/// \file serve.cpp
/// \brief The serve workload: a closed loop of synchronous analyst clients
/// against serve::QueryServer over a PTA1 archive larger than the panel
/// cache, with recency-skewed queries, while an appender thread commits
/// pre-compressed windows at a fixed cadence. The traced run repeats the
/// loop through the public subtensor_traced() breakdown.

#include <atomic>
#include <cmath>
#include <cstring>
#include <exception>
#include <filesystem>
#include <mutex>
#include <thread>
#include <utility>

#include "blas/blas.hpp"
#include "common.hpp"
#include "core/streaming.hpp"
#include "dist/grid.hpp"
#include "mps/runtime.hpp"
#include "serve/query_server.hpp"
#include "steps.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace ptucker;

namespace {

constexpr std::size_t kWindow = 4;
constexpr double kEps = 1e-3;
constexpr int kClients = 3;
constexpr int kProducerRanks = 4;  ///< ranks of the stream producer
constexpr double kAppendEverySeconds = 0.25;
constexpr std::size_t kSeriesWindows = 3;  ///< windows per point time series

/// One analyst's query stream. Windows are picked by age behind the newest
/// committed step (exponential, mean \p mean_age windows), so the working
/// set slides with the appends and stays a fixed multiple of the cache.
class QueryGen {
 public:
  QueryGen(std::uint64_t seed, const StepShape& shape, double mean_age)
      : rng_(seed), shape_(shape), mean_age_(mean_age) {}

  serve::Request next(std::uint64_t step_end) {
    const std::size_t windows = step_end / kWindow;
    const std::size_t kind = rng_.next() % 20;
    serve::Request req;
    if (kind == 0) {
      // Point time series across kSeriesWindows windows.
      const std::size_t w =
          windows - kSeriesWindows - pick_age(windows - kSeriesWindows + 1);
      req.step_lo = w * kWindow;
      req.step_hi = (w + kSeriesWindows) * kWindow;
      req.box = {point(shape_.dim), point(shape_.dim), point(shape_.species)};
      return req;
    }
    const std::size_t w = windows - 1 - pick_age(windows);
    req.step_lo = w * kWindow + rng_.next() % kWindow;
    req.step_hi = req.step_lo + 1;
    if (kind <= 3) {
      // One species plane.
      req.box = {{0, shape_.dim}, {0, shape_.dim}, point(shape_.species)};
    } else {
      // A small box.
      req.box = {box(shape_.dim, 4), box(shape_.dim, 4),
                 box(shape_.species, 2)};
    }
    return req;
  }

 private:
  std::size_t pick_age(std::size_t limit) {
    const double u = (static_cast<double>(rng_.next() >> 11) + 0.5) /
                     static_cast<double>(1ull << 53);
    const auto age = static_cast<std::size_t>(-std::log(u) * mean_age_);
    return std::min(age, limit - 1);
  }
  util::Range point(std::size_t extent) {
    const std::size_t i = rng_.next() % extent;
    return {i, i + 1};
  }
  util::Range box(std::size_t extent, std::size_t width) {
    const std::size_t lo = rng_.next() % (extent - width + 1);
    return {lo, lo + width};
  }

  struct SplitMix {
    explicit SplitMix(std::uint64_t s) : state(s) {}
    std::uint64_t next() { return util::splitmix64(state++); }
    std::uint64_t state;
  } rng_;
  StepShape shape_;
  double mean_age_;
};

/// What the client threads measured in one phase of the loop.
struct Phase {
  std::vector<double> latency_s;
  std::vector<double> cpu_s;  ///< client-thread CPU per query
  std::vector<serve::QueryTrace> traces;
  std::size_t failed = 0;
  double wall_s = 0.0;
  int gemm_threads_seen = 0;
  /// Every 50th answer, re-evaluated by the reference server afterwards.
  std::vector<std::pair<serve::Request, tensor::Tensor>> samples;
};

/// Run the clients for \p seconds against \p server.
Phase run_clients(const serve::QueryServer& server, const Options& opt,
                  const StepShape& shape, double mean_age,
                  const std::atomic<std::uint64_t>& step_end, double seconds,
                  bool traced, std::uint64_t stream_id) {
  Phase phase;
  std::mutex mu;
  const auto t0 = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Phase mine;
      QueryGen gen(util::splitmix64(opt.seed * 7919 + stream_id * 131 + c),
                   shape, mean_age);
      for (std::size_t i = 0; since(t0) < seconds; ++i) {
        serve::Request req = gen.next(step_end.load());
        const auto q0 = Clock::now();
        const double cpu0 = thread_cpu_s();
        try {
          tensor::Tensor ans;
          if (traced) {
            serve::QueryTrace qt;
            ans = server.subtensor_traced(req, qt);
            mine.traces.push_back(qt);
          } else {
            ans = server.subtensor(req);
          }
          mine.latency_s.push_back(since(q0));
          mine.cpu_s.push_back(thread_cpu_s() - cpu0);
          if (i % 50 == 0) mine.samples.emplace_back(req, std::move(ans));
        } catch (const std::exception&) {
          ++mine.failed;
        }
        if (i == 0) mine.gemm_threads_seen = blas::gemm_threads();
      }
      const std::lock_guard<std::mutex> lock(mu);
      phase.latency_s.insert(phase.latency_s.end(), mine.latency_s.begin(),
                             mine.latency_s.end());
      phase.cpu_s.insert(phase.cpu_s.end(), mine.cpu_s.begin(),
                         mine.cpu_s.end());
      phase.traces.insert(phase.traces.end(), mine.traces.begin(),
                          mine.traces.end());
      phase.failed += mine.failed;
      phase.gemm_threads_seen =
          std::max(phase.gemm_threads_seen, mine.gemm_threads_seen);
      for (auto& s : mine.samples) phase.samples.push_back(std::move(s));
    });
  }
  for (auto& t : clients) t.join();
  phase.wall_s = since(t0);
  return phase;
}

/// Commits pre-compressed windows to the live archive every
/// kAppendEverySeconds on its own runtime with the producer's rank count
/// and grid, so appended entries have the same block layout (and load
/// cost) as the archive built in setup. After each append returns, rank 0
/// queries the new window's last step through the shared server.
class Appender {
 public:
  Appender(std::string archive, std::vector<pario::LocalModelData> models,
           std::atomic<std::uint64_t>& step_end, tensor::Dims step_dims)
      : archive_(std::move(archive)),
        models_(std::move(models)),
        step_end_(step_end),
        step_dims_(std::move(step_dims)) {}
  Appender(const Appender&) = delete;
  Appender& operator=(const Appender&) = delete;
  ~Appender() { stop(); }

  /// Start appending; queries after each commit go to \p server.
  void start(const serve::QueryServer& server) {
    server_ = &server;
    thread_ = std::thread([this] { run(); });
  }

  /// Stop and join; rethrow() then reports what the runtime threw.
  void stop() {
    stopping_ = true;
    if (thread_.joinable()) thread_.join();
  }
  void rethrow() const {
    if (error_) std::rethrow_exception(error_);
  }

  /// Append latencies so far, moved out.
  std::vector<double> take_append_s() {
    const std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(append_s_, {});
  }
  /// Appends made, and those whose committed step could not be queried
  /// (read after stop()).
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }

 private:
  void run() {
    try {
      mps::run(kProducerRanks, [&](mps::Comm& comm) {
        std::vector<int> shape =
            dist::default_grid_shape(kProducerRanks, step_dims_);
        shape.push_back(1);
        auto grid = dist::make_grid(comm, shape);
        std::vector<dist::DistTensor> cores;
        for (const auto& m : models_) {
          cores.push_back(dist::DistTensor::scatter(grid, m.core, 0));
        }
        const bool root = comm.rank() == 0;
        auto next = Clock::now();
        for (std::size_t k = 0;; ++k) {
          int go = 1;
          if (root) {
            next += std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(kAppendEverySeconds));
            while (!stopping_ && Clock::now() < next) {
              std::this_thread::sleep_for(std::chrono::milliseconds(2));
            }
            go = stopping_ ? 0 : 1;
          }
          mps::broadcast(comm, std::span<int>(&go, 1), 0);
          if (go == 0) break;
          const std::size_t m = k % models_.size();
          const std::uint64_t first = step_end_.load();
          const auto t0 = Clock::now();
          pario::archive_append_model(
              archive_, first, kEps, cores[m],
              std::span<const tensor::Matrix>(models_[m].factors),
              &models_[m].stats);
          if (!root) continue;
          const double dt = since(t0);
          step_end_.store(first + kWindow);
          // The committed step must be servable now.
          bool ok = true;
          try {
            serve::Request req;
            req.step_lo = first + kWindow - 1;
            req.step_hi = first + kWindow;
            (void)server_->subtensor(req);
          } catch (const std::exception&) {
            ok = false;
          }
          const std::lock_guard<std::mutex> lock(mu_);
          ++attempted_;
          if (!ok) ++failed_;
          append_s_.push_back(dt);
        }
      });
    } catch (...) {
      error_ = std::current_exception();
    }
  }

  std::string archive_;
  std::vector<pario::LocalModelData> models_;
  std::atomic<std::uint64_t>& step_end_;
  tensor::Dims step_dims_;
  const serve::QueryServer* server_ = nullptr;
  std::atomic<bool> stopping_{false};
  std::exception_ptr error_;
  std::mutex mu_;
  std::vector<double> append_s_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::thread thread_;  // last: joined before the members it uses go
};

/// Original over compressed element count of every entry of \p reader.
double archive_ratio(const pario::ArchiveReader& reader,
                     const tensor::Dims& step_dims) {
  double orig = 0.0, compressed = 0.0;
  for (std::size_t e = 0; e < reader.entry_count(); ++e) {
    const pario::LocalModelData m = reader.read_entry_local(e);
    double elems = static_cast<double>(reader.entry(e).step_count);
    for (std::size_t d : step_dims) elems *= static_cast<double>(d);
    orig += elems;
    compressed += static_cast<double>(m.core.size());
    for (const auto& f : m.factors) {
      compressed += static_cast<double>(f.rows() * f.cols());
    }
  }
  return orig / compressed;
}

}  // namespace

void run_serve(const Options& opt, Report& report) {
  const StepShape shape = opt.smoke ? StepShape{16, 4} : StepShape{64, 16};
  const std::size_t steps = opt.smoke ? 32 : 192;  // 8 or 48 windows
  const std::size_t cache_panels = opt.smoke ? 4 : 16;
  const double mean_age = opt.smoke ? 3.0 : 14.0;
  const int setup_reps = opt.smoke ? 2 : 3;
  const std::size_t warmup_queries = opt.smoke ? 100 : 2000;
  const std::string dir = opt.work_dir + "/serve_steps";
  const std::string archive = opt.work_dir + "/serve.pta";
  const tensor::Dims dims = shape.dims();

  // Query threads must run the kernels single-threaded. Pinning it
  // explicitly keeps any grid the process builds from re-tuning the
  // process-wide setting (a 1-rank grid would pick every core).
  blas::set_gemm_threads(1);

  add_machine_provenance(report);
  report.provenance("step_dims", join(dims));
  report.provenance("entries", static_cast<double>(steps / kWindow));
  report.provenance("cache_panels", static_cast<double>(cache_panels));
  report.provenance("clients", static_cast<double>(kClients));
  report.provenance("append_every_s", kAppendEverySeconds);
  report.provenance("dataset_bytes", static_cast<double>(
                                         steps * dims[0] * dims[1] * dims[2] *
                                         sizeof(double)));

  serve::ServerOptions sopts;
  sopts.cache_capacity = cache_panels;
  sopts.executor_threads = 0;

  // --- setup: dump, build the archive, load the appender's windows, warm
  // the cache ---------------------------------------------------------------
  std::vector<double> setup_s, setup_cpu_s;
  std::vector<pario::LocalModelData> pending;
  std::unique_ptr<serve::QueryServer> server;
  std::atomic<std::uint64_t> step_end{0};
  for (int rep = 0; rep < setup_reps; ++rep) {
    server.reset();
    const auto t0 = Clock::now();
    const double cpu0 = process_cpu_s();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    mps::run(kProducerRanks, [&](mps::Comm& comm) {
      auto grid = dist::make_grid(
          comm, dist::default_grid_shape(kProducerRanks, dims));
      dump_steps(grid, dir, shape, 0, steps, opt.seed);
      core::StreamingOptions so;
      so.sthosvd.epsilon = kEps;
      so.window = kWindow;
      so.species_mode = kSpeciesMode;
      core::StreamingCompressor(comm, dir, archive, so).compress_all();
    });
    flush_dir(dir);
    flush_dir(opt.work_dir);
    const pario::ArchiveReader reader(archive);
    pending.clear();
    for (std::size_t e = 0; e < reader.entry_count(); ++e) {
      pending.push_back(reader.read_entry_local(e));
    }
    step_end = reader.step_end();
    server = std::make_unique<serve::QueryServer>(
        std::vector<std::string>{archive}, sopts);
    QueryGen warm(opt.seed, shape, mean_age);
    for (std::size_t i = 0; i < warmup_queries; ++i) {
      (void)server->subtensor(warm.next(step_end.load()));
    }
    setup_s.push_back(since(t0));
    setup_cpu_s.push_back(process_cpu_s() - cpu0);
  }

  // Model quality of the archive as built, checked against the dumps.
  const pario::ArchiveReader built(archive);
  const double ratio = archive_ratio(built, dims);
  double max_err = 0.0;
  const std::size_t samples = std::min<std::size_t>(built.entry_count(), 8);
  for (std::size_t k = 0; k < samples; ++k) {
    const std::size_t e = k * built.entry_count() / samples;
    const pario::ArchiveEntry& ent = built.entry(e);
    const double err = entry_error(
        built, e, make_window(shape, ent.step_first, ent.step_count, opt.seed));
    max_err = std::max(max_err, err);
    report.check(err <= kEps, "serve entry " + std::to_string(e) + " error " +
                                  std::to_string(err));
  }

  // --- timed closed loop with concurrent appends -----------------------------
  const obs::Snapshot reg0 = obs::registry().snapshot();
  const serve::CacheCounters cache0 = server->cache().counters();
  Appender appender(archive, std::move(pending), step_end, dims);
  appender.start(*server);
  const double budget = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  Phase plain = run_clients(*server, opt, shape, mean_age, step_end,
                            budget, false, 1);
  const serve::CacheCounters cache1 = server->cache().counters();
  const obs::Snapshot reg1 = obs::registry().snapshot();
  const std::vector<double> append_s = appender.take_append_s();
  Phase traced;
  if (opt.trace) {
    traced = run_clients(*server, opt, shape, mean_age, step_end,
                         budget, true, 2);
  }
  appender.stop();
  appender.rethrow();

  report.operations(plain.latency_s.size() + plain.failed, plain.failed,
                    "serve query threw");
  report.operations(appender.attempted(), appender.failed(),
                    "the query of a just-committed step failed");

  // Sampled answers must match a fresh single-threaded reference server
  // over the final archive byte for byte.
  serve::ServerOptions ref_opts;
  ref_opts.cache_capacity = 1;
  ref_opts.executor_threads = 0;
  const serve::QueryServer reference({archive}, ref_opts);
  std::size_t mismatches = 0;
  for (const Phase* p : {&plain, &traced}) {
    for (const auto& [req, ans] : p->samples) {
      const tensor::Tensor want = reference.subtensor(req);
      if (want.size() != ans.size() ||
          std::memcmp(want.data(), ans.data(), want.size() * sizeof(double)) !=
              0) {
        ++mismatches;
      }
    }
  }
  report.check(mismatches == 0, std::to_string(mismatches) +
                                    " sampled answers differ from the "
                                    "reference server");
  report.check(built.step_end() == steps, "serve archive covers " +
                                              std::to_string(built.step_end()) +
                                              " steps");

  report.provenance("gemm_threads",
                    static_cast<double>(plain.gemm_threads_seen));
  report.provenance("appends", static_cast<double>(appender.attempted()));
  const std::size_t lookups = cache1.lookups - cache0.lookups;
  report.provenance("cache_hit_ratio",
                    lookups ? static_cast<double>(cache1.hits - cache0.hits) /
                                  static_cast<double>(lookups)
                            : 0.0);
  report.metric("setup_s", median(setup_cpu_s));
  report.metric("wall.setup_s", median(setup_s));
  report.metric("wall.op_p50_ms", 1e3 * median(plain.latency_s));
  report.metric("op_cpu_ms", 1e3 * median_of_means(plain.cpu_s, 1000));
  report.metric("wall.ops_per_s",
                static_cast<double>(plain.latency_s.size()) / plain.wall_s);
  report.metric("compression_ratio", ratio);
  report.metric("rel_error", max_err);
  if (!opt.trace) return;

  report.metric("serve.query_p99_us", 1e6 * percentile(plain.latency_s, 99));
  report.metric("serve.append_ms", 1e3 * median(append_s));
  for (const char* name : {"pario.fsyncs", "pario.read_bytes",
                           "pario.write_bytes"}) {
    report.metric(name,
                  static_cast<double>(counter(reg1, name) - counter(reg0, name)));
  }
  std::vector<double> route, load, recon, denorm, stitch;
  double hits = 0.0, misses = 0.0, bytes = 0.0, entries = 0.0;
  for (const serve::QueryTrace& qt : traced.traces) {
    route.push_back(static_cast<double>(qt.route_us));
    load.push_back(static_cast<double>(qt.load_us));
    recon.push_back(static_cast<double>(qt.reconstruct_us));
    denorm.push_back(static_cast<double>(qt.denormalize_us));
    stitch.push_back(static_cast<double>(qt.stitch_us));
    hits += static_cast<double>(qt.cache_hits);
    misses += static_cast<double>(qt.cache_misses);
    bytes += static_cast<double>(qt.bytes_loaded);
    entries += static_cast<double>(qt.entries_touched);
  }
  const double n = std::max<double>(1.0, static_cast<double>(traced.traces.size()));
  report.metric("serve.route_us", median(route));
  report.metric("serve.load_us", median(load));
  report.metric("serve.reconstruct_us", median(recon));
  report.metric("serve.denormalize_us", median(denorm));
  report.metric("serve.stitch_us", median(stitch));
  report.metric("serve.cache_hit_ratio",
                hits + misses > 0 ? hits / (hits + misses) : 0.0);
  report.metric("serve.bytes_loaded_per_query", bytes / n);
  report.metric("serve.entries_per_query", entries / n);
  const double traced_qps =
      static_cast<double>(traced.latency_s.size()) / traced.wall_s;
  report.metric("trace_overhead", report.value("wall.ops_per_s") / traced_qps);
}

}  // namespace perfbench
