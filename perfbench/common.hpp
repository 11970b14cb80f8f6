#pragma once
/// \file common.hpp
/// \brief Shared pieces of the repository benchmark: run options, the
/// metric tables, the result record every workload fills, and small timing
/// and statistics helpers.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "mps/collectives.hpp"
#include "obs/registry.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the measured phase
  bool trace = false;     ///< per-layer run instead of the end-to-end run
  bool smoke = false;     ///< tiny sizes; every check, same output schema
  std::string work_dir;   ///< scratch files (step dumps, archives)
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload in untraced runs.
inline const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"op_cpu_ms", "ms"},
      {"compression_ratio", "x"},
      {"rel_error", "1"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

/// Per-layer metrics, reported by every workload in traced runs. A layer
/// the workload does not exercise reports 0.
inline const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"wall.setup_s", "s"},
      {"wall.op_p50_ms", "ms"},      {"wall.ops_per_s", "1/s"},
      {"dist.gram_s.m0", "s"},       {"dist.gram_s.m1", "s"},
      {"dist.gram_s.m2", "s"},       {"dist.gram_s.m3", "s"},
      {"dist.evecs_s.m0", "s"},      {"dist.evecs_s.m1", "s"},
      {"dist.evecs_s.m2", "s"},      {"dist.evecs_s.m3", "s"},
      {"dist.ttm_s.m0", "s"},        {"dist.ttm_s.m1", "s"},
      {"dist.ttm_s.m2", "s"},        {"dist.ttm_s.m3", "s"},
      {"dist.ttm_chain_s", "s"},     {"core.sthosvd_s", "s"},
      {"core.sthosvd_other_s", "s"}, {"core.hooi_sweep_s", "s"},
      {"core.reconstruct_s", "s"},   {"core.window_sthosvd_ms", "ms"},
      {"blas.peak_gflops", "GF/s"},  {"blas.gemm_gflops", "GF/s"},
      {"blas.syrk_gflops", "GF/s"},  {"blas.frac_peak", "1"},
      {"blas.pool.jobs", "count"},   {"blas.pool.serial_jobs", "count"},
      {"mps.messages", "count"},     {"mps.bytes", "bytes"},
      {"mps.allreduce_large_ms", "ms"},
      {"mps.allreduce_small_us", "us"},
      {"costmodel.words_model_over_measured", "1"},
      {"costmodel.flops", "flop"},
      {"pario.read_window_ms", "ms"}, {"pario.append_ms", "ms"},
      {"pario.fsyncs", "count"},     {"pario.read_bytes", "bytes"},
      {"pario.write_bytes", "bytes"},
      {"data.generate_s", "s"},      {"data.normalize_ms", "ms"},
      {"stream.steps_per_s", "1/s"},
      {"serve.route_us", "us"},      {"serve.load_us", "us"},
      {"serve.reconstruct_us", "us"}, {"serve.denormalize_us", "us"},
      {"serve.stitch_us", "us"},     {"serve.query_p99_us", "us"},
      {"serve.append_ms", "ms"},     {"serve.cache_hit_ratio", "1"},
      {"serve.bytes_loaded_per_query", "bytes"},
      {"serve.entries_per_query", "count"},
      {"trace_overhead", "1"},
  };
  return specs;
}

/// What one workload run measured and checked.
class Report {
 public:
  /// Record a metric value (must be one of the tables above).
  void metric(const std::string& name, double value) {
    values_[name] = value;
  }
  /// A recorded metric (0 when not recorded).
  [[nodiscard]] double value(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }
  /// Record \p value only when \p name has not been measured.
  void default_metric(const std::string& name, double value) {
    values_.emplace(name, value);
  }
  /// Count one timed operation; \p ok false marks it failed.
  void operation(bool ok, const std::string& what = {}) {
    operations(1, ok ? 0 : 1, what);
  }
  /// Count \p attempted operations of which \p failed failed.
  void operations(std::uint64_t attempted, std::uint64_t failed,
                  const std::string& what) {
    attempted_ += attempted;
    failed_ += failed;
    if (failed > 0) note_failure(what);
  }
  /// A correctness check outside the timed operations.
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct_ = false;
      note_failure(what);
    }
  }
  void provenance(const std::string& key, const std::string& value) {
    provenance_[key] = value;
  }
  void provenance(const std::string& key, double value);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return correct_ && failed_ == 0; }

  /// Print failures to stderr, then the provenance line and the result
  /// object (the last line) to stdout. Returns false when a metric of
  /// \p specs is missing (a benchmark bug).
  bool emit(const std::vector<MetricSpec>& specs) const;

 private:
  void note_failure(const std::string& what);

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
  std::vector<std::string> failures_;
  std::map<std::string, double> values_;
  std::map<std::string, std::string> provenance_;
};

[[nodiscard]] inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; 0 when
/// empty.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}
/// Median over consecutive blocks of \p block values of each block's mean
/// (a trailing partial block is dropped unless it is the only one): the
/// mean cost of an operation, robust to bursts of host contention.
[[nodiscard]] double median_of_means(const std::vector<double>& values,
                                     std::size_t block);

/// Barrier-bracketed wall time of \p body, rank 0's clock on every rank.
template <class Body>
double timed(const ptucker::mps::Comm& comm, Body&& body) {
  comm.barrier();
  const auto t0 = Clock::now();
  body();
  comm.barrier();
  double t = since(t0);
  ptucker::mps::broadcast(comm, std::span<double>(&t, 1), 0);
  return t;
}

/// Rank 0 decides whether another timed repetition starts (at least
/// \p min_reps, then until \p seconds have passed), so every rank agrees.
[[nodiscard]] bool keep_going(const ptucker::mps::Comm& comm,
                              Clock::time_point start, double seconds,
                              std::size_t done, std::size_t min_reps);

/// Collective: run \p body once and, on rank 0, record the layer counters
/// it moved: the busiest rank's mps messages and bytes, and the
/// process-wide blas.pool and pario registry counters.
void record_op_counters(const ptucker::mps::Comm& comm, Report& report,
                        const std::function<void()>& body);

/// Collective: on rank 0, record the median all-reduce latency over the
/// world at \p large_doubles (mps.allreduce_large_ms) and at 8 doubles
/// (mps.allreduce_small_us).
void record_allreduce_latency(const ptucker::mps::Comm& comm, Report& report,
                              std::size_t large_doubles);

/// Value of a registry counter in \p snap (0 when never registered).
[[nodiscard]] std::uint64_t counter(const ptucker::obs::Snapshot& snap,
                                    const std::string& name);

/// "AxBxC" rendering of a shape.
[[nodiscard]] std::string join(const std::vector<std::size_t>& v);
[[nodiscard]] std::string join(const std::vector<int>& v);

/// CPU seconds (user + system) this process has used, all threads.
[[nodiscard]] double process_cpu_s();

/// CPU seconds the calling thread has used.
[[nodiscard]] double thread_cpu_s();

/// Peak resident set size of this process in MB (ru_maxrss).
[[nodiscard]] double peak_rss_mb();

/// Median GF/s of a 1-thread 384^3 GEMM: the per-core peak the kernel
/// metrics are compared against.
[[nodiscard]] double measure_peak_gflops();

/// fsync every regular file in \p dir and the directory itself, so a later
/// pass does not pay for the writeback of files made during setup.
void flush_dir(const std::string& dir);

/// Standard provenance for every workload (machine, build, environment).
void add_machine_provenance(Report& report);

/// Workload entry points; each runs in a fresh process.
void run_compress(const Options& opt, int ranks, Report& report);
void run_stream(const Options& opt, Report& report);
void run_serve(const Options& opt, Report& report);

}  // namespace perfbench
