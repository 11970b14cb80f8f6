/// \file main.cpp
/// \brief The benchmark binary: runs one workload in this process and
/// prints its result object as the last line of stdout.
///
///   perfbench --workload compress --seed 3 --seconds 10 --trace 0
///             --work_dir .bench_build/work [--smoke]

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "compress|compress_1rank|stream|serve --seed N --seconds S "
               "--trace 0|1 --work_dir DIR [--smoke]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(val);
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(val);
    } else if (arg == "--trace") {
      opt.trace = val == "1";
    } else if (arg == "--work_dir") {
      opt.work_dir = val;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (opt.work_dir.empty()) usage("--work_dir is required");
  if (opt.seconds <= 0.0) usage("--seconds must be positive");
  std::filesystem::create_directories(opt.work_dir);

  perfbench::Report report;
  try {
    if (opt.workload == "compress") {
      perfbench::run_compress(opt, 4, report);
    } else if (opt.workload == "compress_1rank") {
      perfbench::run_compress(opt, 1, report);
    } else if (opt.workload == "stream") {
      perfbench::run_stream(opt, report);
    } else if (opt.workload == "serve") {
      perfbench::run_serve(opt, report);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  report.metric("peak_rss_mb", perfbench::peak_rss_mb());
  // Layers a workload does not exercise report zero work.
  for (const perfbench::MetricSpec& spec : perfbench::per_layer_metrics()) {
    report.default_metric(spec.name, 0.0);
  }
  const auto& specs = opt.trace ? perfbench::per_layer_metrics()
                                : perfbench::end_to_end_metrics();
  return report.emit(specs) ? 0 : 1;
}
