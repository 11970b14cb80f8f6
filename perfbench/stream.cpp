/// \file stream.cpp
/// \brief The stream workload: the in-situ path of paper Sec. II. Step
/// files are read window by window through core::StreamingCompressor
/// (read -> per-species normalize -> ST-HOSVD -> append + fsync) into one
/// PTA1 archive. The traced run replays a pass through the public pario,
/// data and core calls and times each.

#include <filesystem>

#include "blas/blas.hpp"
#include "common.hpp"
#include "core/streaming.hpp"
#include "data/normalize.hpp"
#include "dist/grid.hpp"
#include "mps/runtime.hpp"
#include "steps.hpp"

namespace perfbench {

using namespace ptucker;

void run_stream(const Options& opt, Report& report) {
  const StepShape shape = opt.smoke ? StepShape{16, 4} : StepShape{64, 16};
  const std::size_t steps = opt.smoke ? 16 : 192;
  const std::size_t window = 4;
  const double eps = 1e-3;
  const int ranks = 4;
  const int setup_reps = opt.smoke ? 2 : 3;
  const std::size_t min_passes = opt.smoke ? 2 : 5;
  const std::string dir = opt.work_dir + "/stream_steps";
  const std::string archive = opt.work_dir + "/stream.pta";
  const std::string traced_archive = opt.work_dir + "/stream_traced.pta";
  const tensor::Dims dims = shape.dims();

  add_machine_provenance(report);
  report.provenance("ranks", static_cast<double>(ranks));
  report.provenance("step_dims", join(dims));
  report.provenance("steps", static_cast<double>(steps));
  report.provenance("window", static_cast<double>(window));
  report.provenance("dataset_bytes", static_cast<double>(
                                         steps * dims[0] * dims[1] * dims[2] *
                                         sizeof(double)));
  report.provenance("eps", eps);

  core::StreamingOptions sopts;
  sopts.sthosvd.epsilon = eps;
  sopts.window = window;
  sopts.species_mode = kSpeciesMode;

  mps::Runtime rt(ranks);
  rt.run([&](mps::Comm& comm) {
    const bool root = comm.rank() == 0;
    const std::vector<int> spatial = dist::default_grid_shape(ranks, dims);

    // One pass over every step; each window is one timed operation.
    std::vector<double> window_s, window_cpu_s;
    double orig = 0.0, compressed = 0.0;
    int gemm_threads_seen = 0;
    auto pass = [&](bool timed_windows) {
      core::StreamingCompressor compressor(comm, dir, archive, sopts);
      core::StreamingCompressor::WindowResult r;
      while (true) {
        const auto t0 = Clock::now();
        const double cpu0 = process_cpu_s();
        if (!compressor.compress_next(&r)) break;
        if (!root || !timed_windows) continue;
        window_s.push_back(since(t0));
        window_cpu_s.push_back(process_cpu_s() - cpu0);
        gemm_threads_seen = blas::gemm_threads();
        const double elems = static_cast<double>(
            dims[0] * dims[1] * dims[2] * r.step_count);
        orig += elems;
        compressed += elems / r.compression_ratio;
        report.operation(r.error_bound <= eps && r.step_count == window,
                         "stream window at step " +
                             std::to_string(r.step_first) + ": bound " +
                             std::to_string(r.error_bound));
      }
    };

    // --- setup: dump the steps, flush them to disk, one warm-up pass ------
    std::vector<double> setup_s, setup_cpu_s, generate_s;
    for (int rep = 0; rep < setup_reps; ++rep) {
      double cpu0 = 0.0;
      setup_s.push_back(timed(comm, [&] {
        cpu0 = process_cpu_s();
        if (root) {
          std::filesystem::remove_all(dir);
          std::filesystem::create_directories(dir);
        }
        auto grid = dist::make_grid(comm, spatial);
        generate_s.push_back(timed(comm, [&] {
          dump_steps(grid, dir, shape, 0, steps, opt.seed);
        }));
        if (root) flush_dir(dir);
        pass(false);
      }));
      setup_cpu_s.push_back(process_cpu_s() - cpu0);
    }

    // --- timed passes ------------------------------------------------------
    std::vector<double> pass_s;
    const auto loop_start = Clock::now();
    const double budget = opt.trace ? opt.seconds / 3.0 : opt.seconds;
    while (keep_going(comm, loop_start, budget, pass_s.size(), min_passes)) {
      pass_s.push_back(timed(comm, [&] { pass(true); }));
      if (root) {
        const pario::ArchiveReader reader(archive);
        report.check(reader.step_end() == steps &&
                         reader.entry_count() == steps / window,
                     "stream archive covers " +
                         std::to_string(reader.step_end()) + " of " +
                         std::to_string(steps) + " steps");
      }
    }

    if (root) {
      // Achieved error of sampled windows against the original steps.
      const pario::ArchiveReader reader(archive);
      const std::size_t entries = reader.entry_count();
      const std::size_t samples = std::min<std::size_t>(entries, 8);
      double max_err = 0.0;
      for (std::size_t k = 0; k < samples; ++k) {
        const std::size_t e = k * entries / samples;
        const pario::ArchiveEntry& ent = reader.entry(e);
        const double err = entry_error(
            reader, e,
            make_window(shape, ent.step_first, ent.step_count, opt.seed));
        max_err = std::max(max_err, err);
        report.check(err <= eps, "stream entry " + std::to_string(e) +
                                     " error " + std::to_string(err));
      }
      report.provenance("grid", join(spatial) + "x1");
      report.provenance("gemm_threads",
                        static_cast<double>(gemm_threads_seen));
      report.metric("setup_s", median(setup_cpu_s));
      report.metric("wall.setup_s", median(setup_s));
      report.metric("wall.op_p50_ms", 1e3 * median(window_s));
      report.metric("op_cpu_ms", 1e3 * median_of_means(window_cpu_s, steps / window));
      report.metric("wall.ops_per_s",
                    static_cast<double>(steps / window) / median(pass_s));
      report.metric("compression_ratio", orig / compressed);
      report.metric("rel_error", max_err);
      report.metric("data.generate_s", median(generate_s));
      report.metric("stream.steps_per_s",
                    static_cast<double>(steps) / median(pass_s));
    }
    if (!opt.trace) return;

    // --- traced: one pass's counters, then replayed passes -----------------
    record_op_counters(comm, report, [&] { pass(false); });
    record_allreduce_latency(comm, report, dims[0] * dims[0]);

    std::vector<double> read_ms, norm_ms, sthosvd_ms, append_ms, traced_s;
    core::SthosvdOptions opts;
    opts.epsilon = eps;
    for (std::size_t rep = 0; rep < min_passes; ++rep) {
      traced_s.push_back(timed(comm, [&] {
        const pario::TimestepReader reader(dir);
        std::vector<int> shape4 = spatial;
        shape4.push_back(1);
        auto grid = dist::make_grid(comm, shape4);
        pario::archive_create(traced_archive, comm, dims, kSpeciesMode);
        for (std::size_t first = 0; first < steps; first += window) {
          dist::DistTensor x;
          read_ms.push_back(1e3 * timed(comm, [&] {
            x = reader.read_window(grid, first, window);
          }));
          data::NormalizationStats stats;
          norm_ms.push_back(1e3 * timed(comm, [&] {
            stats = data::normalize_species(x, kSpeciesMode);
          }));
          core::SthosvdResult res;
          sthosvd_ms.push_back(1e3 * timed(comm, [&] {
            res = core::st_hosvd(x, opts);
          }));
          append_ms.push_back(1e3 * timed(comm, [&] {
            pario::archive_append_model(
                traced_archive, first, eps, res.tucker.core,
                std::span<const tensor::Matrix>(res.tucker.factors), &stats);
          }));
        }
      }));
    }
    if (!root) return;
    const pario::ArchiveReader replayed(traced_archive);
    report.check(replayed.step_end() == steps,
                 "replayed stream archive covers " +
                     std::to_string(replayed.step_end()) + " steps");
    report.metric("pario.read_window_ms", median(read_ms));
    report.metric("data.normalize_ms", median(norm_ms));
    report.metric("core.window_sthosvd_ms", median(sthosvd_ms));
    report.metric("pario.append_ms", median(append_ms));
    report.metric("trace_overhead", median(traced_s) / median(pass_s));
  });
}

}  // namespace perfbench
