#include "common.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <thread>

#include "blas/blas.hpp"
#include "pario/failpoint.hpp"

namespace perfbench {

namespace {

/// \p s as a quoted JSON string.
std::string json_string(const std::string& s) {
  std::string out(1, '"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::provenance(const std::string& key, double value) {
  provenance_[key] = json_number(value);
}

void Report::note_failure(const std::string& what) {
  // Keep the first few distinct messages; the counts carry the rest.
  if (failures_.size() < 16 && !what.empty() &&
      std::find(failures_.begin(), failures_.end(), what) == failures_.end()) {
    failures_.push_back(what);
  }
}

bool Report::emit(const std::vector<MetricSpec>& specs) const {
  for (const std::string& f : failures_) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  }
  std::string prov = "{";
  for (const auto& [k, v] : provenance_) {
    if (prov.size() > 1) prov += ", ";
    prov += json_string(k);
    prov += ": ";
    prov += json_string(v);
  }
  prov += "}";
  std::printf("provenance %s\n", prov.c_str());

  bool complete = true;
  std::string metrics = "{";
  for (const MetricSpec& spec : specs) {
    const auto it = values_.find(spec.name);
    if (it == values_.end()) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   spec.name);
      complete = false;
      continue;
    }
    if (metrics.size() > 1) metrics += ", ";
    metrics += json_string(spec.name);
    metrics += ": {\"value\": ";
    metrics += json_number(it->second);
    metrics += ", \"unit\": ";
    metrics += json_string(spec.unit);
    metrics += "}";
  }
  metrics += "}";
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct() ? "true" : "false",
      static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_), metrics.c_str());
  std::fflush(stdout);
  return complete;
}

bool keep_going(const ptucker::mps::Comm& comm, Clock::time_point start,
                double seconds, std::size_t done, std::size_t min_reps) {
  int go = 0;
  if (comm.rank() == 0) {
    go = done < min_reps || since(start) < seconds ? 1 : 0;
  }
  ptucker::mps::broadcast(comm, std::span<int>(&go, 1), 0);
  return go != 0;
}

void record_op_counters(const ptucker::mps::Comm& comm, Report& report,
                        const std::function<void()>& body) {
  using namespace ptucker;
  comm.barrier();
  const obs::Snapshot reg0 = obs::registry().snapshot();
  const mps::CommStats comm0 = comm.my_stats();
  body();
  const mps::CommStats comm1 = comm.my_stats();
  comm.barrier();
  const obs::Snapshot reg1 = obs::registry().snapshot();
  std::uint64_t busiest[2] = {comm1.messages_sent - comm0.messages_sent,
                              comm1.bytes_sent - comm0.bytes_sent};
  mps::allreduce(comm, std::span<std::uint64_t>(busiest, 2),
                 mps::Max<std::uint64_t>{});
  if (comm.rank() != 0) return;
  report.metric("mps.messages", static_cast<double>(busiest[0]));
  report.metric("mps.bytes", static_cast<double>(busiest[1]));
  for (const char* name :
       {"blas.pool.jobs", "blas.pool.serial_jobs", "pario.fsyncs",
        "pario.read_bytes", "pario.write_bytes"}) {
    report.metric(name,
                  static_cast<double>(counter(reg1, name) - counter(reg0, name)));
  }
}

void record_allreduce_latency(const ptucker::mps::Comm& comm, Report& report,
                              std::size_t large_doubles) {
  std::vector<double> large(large_doubles, 1.0), small(8, 1.0);
  std::vector<double> large_s, small_s;
  for (int rep = 0; rep < 15; ++rep) {
    large_s.push_back(timed(comm, [&] {
      ptucker::mps::allreduce(comm, std::span<double>(large));
    }));
  }
  for (int rep = 0; rep < 200; ++rep) {
    small_s.push_back(timed(comm, [&] {
      ptucker::mps::allreduce(comm, std::span<double>(small));
    }));
  }
  if (comm.rank() != 0) return;
  report.metric("mps.allreduce_large_ms", 1e3 * median(large_s));
  report.metric("mps.allreduce_small_us", 1e6 * median(small_s));
}

std::uint64_t counter(const ptucker::obs::Snapshot& snap,
                      const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

std::string join(const std::vector<std::size_t>& v) {
  std::string s;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += 'x';
    s += std::to_string(v[i]);
  }
  return s;
}

std::string join(const std::vector<int>& v) {
  return join(std::vector<std::size_t>(v.begin(), v.end()));
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double median_of_means(const std::vector<double>& values,
                       std::size_t block) {
  std::vector<double> means;
  for (std::size_t lo = 0; lo + block <= values.size(); lo += block) {
    double sum = 0.0;
    for (std::size_t i = lo; i < lo + block; ++i) sum += values[i];
    means.push_back(sum / static_cast<double>(block));
  }
  if (means.empty() && !values.empty()) {
    double sum = 0.0;
    for (double v : values) sum += v;
    means.push_back(sum / static_cast<double>(values.size()));
  }
  return median(means);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double measure_peak_gflops() {
  using namespace ptucker;
  // One thread, explicitly: the figure is the per-core peak. Restoring the
  // startup state afterwards re-arms the grid autotune.
  blas::set_gemm_threads(1);
  const std::size_t n = 384;
  std::vector<double> a(n * n, 1.5);
  std::vector<double> b(n * n, -0.5);
  std::vector<double> c(n * n, 0.0);
  auto gemm = [&] {
    blas::gemm(blas::Trans::No, blas::Trans::No, n, n, n, 1.0, a.data(), n,
               b.data(), n, 0.0, c.data(), n);
  };
  gemm();  // warm-up
  std::vector<double> gflops;
  for (int rep = 0; rep < 7; ++rep) {
    const auto t0 = Clock::now();
    gemm();
    gflops.push_back(2.0 * static_cast<double>(n * n * n) / since(t0) / 1e9);
  }
  blas::reset_gemm_threads();
  return median(gflops);
}

void flush_dir(const std::string& dir) {
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return;
  while (dirent* e = readdir(d)) {
    const std::string path = dir + "/" + e->d_name;
    struct stat st{};
    if (stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) continue;
    const int fd = open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
      fsync(fd);
      close(fd);
    }
  }
  closedir(d);
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    fsync(fd);
    close(fd);
  }
}

void add_machine_provenance(Report& report) {
  using namespace ptucker;
  report.provenance("nproc",
                    static_cast<double>(std::thread::hardware_concurrency()));
  report.provenance("l2_bytes",
                    static_cast<double>(sysconf(_SC_LEVEL2_CACHE_SIZE)));
  report.provenance("l3_bytes",
                    static_cast<double>(sysconf(_SC_LEVEL3_CACHE_SIZE)));
  report.provenance("build_type", PERFBENCH_BUILD_TYPE);
  const char* digest = std::getenv("PERFBENCH_SOURCE_DIGEST");
  report.provenance("source_digest", digest ? digest : "unknown");
  report.provenance("ptucker_obs", obs::kEnabled ? "ON" : "OFF");
  report.provenance("ptucker_faults", pario::faults::kEnabled ? "ON" : "OFF");
}

}  // namespace perfbench
