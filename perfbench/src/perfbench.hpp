#pragma once

// Shared plumbing of the repository benchmark: options, clocks, sample
// statistics, the in-memory span tracer, child processes, daemon
// frames, answer normalization and the result line. The three workloads
// (cold_campaign.cpp, daemon_mixed.cpp, cli_snapshot.cpp) and the
// traced-run layer probes (layers.cpp) build on it.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "tytra/dse/lowerer.hpp"
#include "tytra/dse/session.hpp"
#include "tytra/support/rng.hpp"

namespace perfbench {

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  /// Short mode for the benchmark's own tests: a few ops, tiny setup.
  bool quick{false};
  /// Test hook: corrupts the precomputed reference answers, so every op
  /// checked against one must be counted as failed.
  bool wrong_reference{false};
  /// Working directory inside the checkout (snapshots, sockets, traces).
  std::string work_dir{".bench_build/run"};
  std::string cc_bin;
  std::string dsed_bin;
};

/// A self-check failed: the workload is not measuring what its label
/// says. Aborts the run with a nonzero exit and no result line.
struct SelfCheckError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] void self_check_failed(const std::string& what);
inline void require(bool ok, const std::string& what) {
  if (!ok) self_check_failed(what);
}

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

unsigned hardware_threads();

/// Session workers for campaigns: one core is left to the benchmark's own
/// thread and the system. With every core busy, any background wake-up
/// stalls a worker at the campaign's wave barrier and op times spread
/// (measured: 25% run-to-run range with 4 workers on 4 cores, 8% with 3).
unsigned campaign_workers();

/// An independent random stream for one use (`tag`) of the workload
/// seed. Seeds are mixed first: SplitMix64 streams started from nearby
/// states overlap.
tytra::SplitMix64 seeded_rng(std::uint64_t seed, std::uint64_t tag);

/// Linear-interpolated percentile (q in [0, 100]) of unsorted samples;
/// 0 when empty.
double percentile(std::vector<double> samples, double q);
inline double median(const std::vector<double>& samples) {
  return percentile(samples, 50);
}

/// Cumulative CPU ticks from /proc/stat: steal (time the hypervisor ran
/// someone else on the host's CPUs) and the total.
struct CpuTicks {
  double steal{0};
  double total{0};
};
CpuTicks cpu_ticks();

/// Peak resident set of this process, in MiB.
double self_peak_rss_mb();

// ---------------------------------------------------------------------------
// Tracing: spans recorded around the benchmark's own calls into each layer.
// ---------------------------------------------------------------------------

struct SpanRecord {
  std::string name;   ///< "<layer>.<what>", e.g. "dse.session.run"
  double start{0};
  double end{0};
  int parent{-1};     ///< index into the span list, -1 for roots
  std::int64_t op{-1};
  std::string cls;    ///< the op's request class (roots only)
};

/// Records spans in memory while enabled; one instance per thread.
class Tracer {
 public:
  bool enabled{false};
  std::vector<SpanRecord> spans;

  int open(std::string name, std::int64_t op, std::string cls = {});
  void close(int id);

 private:
  std::vector<int> stack_;
};

/// RAII span; a no-op when the tracer is null or disabled.
class Span {
 public:
  Span(Tracer* tracer, std::string name, std::int64_t op = -1,
       std::string cls = {});
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int id_{-1};
};

/// The repository's layers, in report order.
const std::vector<std::string>& layer_names();

/// Per-op self time of each layer (median over root spans, ms) and the
/// share of the op the named layers cover (median, %).
struct SelfTimes {
  std::map<std::string, double> layer_ms;
  double covered_pct{0};
};
SelfTimes self_times(const std::vector<SpanRecord>& spans);

/// Writes the spans as JSON lines to `path` (best effort).
void write_spans(const std::string& path, const std::vector<SpanRecord>& spans);

// ---------------------------------------------------------------------------
// Child processes and the daemon's frame protocol.
// ---------------------------------------------------------------------------

struct ProcResult {
  int exit_code{-1};   ///< -1 when the child died on a signal
  std::string out;
  double seconds{0};
  double max_rss_mb{0};
};

/// Runs argv to completion with stdout captured and stderr discarded.
ProcResult run_process(const std::vector<std::string>& argv);

/// A spawned long-running child (the daemon).
class Child {
 public:
  Child() = default;
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  void start(const std::vector<std::string>& argv);
  /// Waits for exit; returns the exit code and fills peak RSS (MiB).
  int wait(double* max_rss_mb);
  /// SIGKILLs and reaps a child that is still running.
  void kill();
  [[nodiscard]] bool running() const { return pid_ > 0; }
  /// Peak resident set so far (VmHWM), in MiB; 0 when not running.
  [[nodiscard]] double peak_rss_mb() const;

 private:
  int pid_{-1};
};

/// Connects to a Unix socket; -1 on failure.
int connect_unix(const std::string& path);
/// connect_unix, retried until a daemon that is starting up listens.
int connect_retry(const std::string& path, double timeout_s);

/// One request/response exchange with the daemon.
struct Exchange {
  bool transport_ok{false};
  int exit_code{-1};
  std::string type;       ///< terminal frame type
  std::string stdout_text;
  std::string payload;    ///< the terminal frame's raw payload
};

/// Sends `request` and reads frames until the terminal one. When a
/// tracer is given, frame I/O and parsing get their own spans.
Exchange round_trip(int fd, const std::string& request,
                    Tracer* tracer = nullptr, std::int64_t op = -1);

// ---------------------------------------------------------------------------
// Answers.
// ---------------------------------------------------------------------------

/// A rendered result with wall times and cache counters removed: what is
/// left is the design answers (entries, best, frontier, verdicts).
std::string normalize_answer(const std::string& rendered);

/// A rendering's total cache counters (zero when it has none).
struct Counters {
  std::uint64_t hits{0};
  std::uint64_t misses{0};
  std::uint64_t variant_hits{0};
};
Counters cache_counters(const std::string& rendered);

/// Design points answered by a rendering: the "variants" count of every
/// sweep, plus one per tune step.
std::uint64_t answered_variants(const std::string& rendered);

/// Model-vs-simulator gap in cycles per instance, %, for one design.
double est_err_pct(const tytra::ir::Module& design,
                   const tytra::target::DeviceDesc& device,
                   double model_cycles_per_instance);

/// A built-in kernel job against a preset (by its CLI name).
struct BuiltinJob {
  std::string kernel;
  std::uint32_t nd{0};
  std::string device;
};

/// The largest model-vs-simulator gap over `jobs` at lanes 1 and 4 (when
/// the lane count divides the NDRange and is within `max_lanes`). These
/// are the reports a Session answers for the jobs: the workloads check
/// their answers against the same model, so this is the answers' error.
double est_err_max_pct(const std::vector<BuiltinJob>& jobs,
                       std::uint32_t max_lanes);

/// Warm-set sizes for the daemon and CLI workloads: 16, then `count - 1`
/// seeded picks from 32..512. Powers of two give every kernel the same
/// five lane counts under a cap of 16, so the seed changes which sizes
/// are warm but not how much work a request is; 16 anchors the set at
/// the size whose model-vs-simulator gap is the largest.
std::vector<std::uint32_t> draw_warm_nds(tytra::SplitMix64& rng,
                                         std::size_t count);

/// Never-warm (kernel, nd) pairs in a seeded order. Each nd is 2^k * p
/// (k in 4..7, p a prime in 17..9999), so every kernel answers exactly
/// five lane counts under a cap of 16 at any of them, and none is a warm
/// size.
std::vector<std::pair<std::string, std::uint32_t>> novel_schedule(
    tytra::SplitMix64& rng);

/// The three device presets every workload costs against.
const std::vector<std::string>& preset_names();

/// Calibrates the presets into `session`; maps each preset's CLI name to
/// its device-table name.
std::map<std::string, std::string> add_presets(tytra::dse::Session& session);

/// The daemon's explore request for `job`, JSON output.
std::string explore_request(const BuiltinJob& job, std::uint32_t max_lanes);

/// A seeded slice of the kernel generator, lowered through file_lowerer.
struct GenDesign {
  std::uint64_t seed{0};
  std::shared_ptr<const tytra::ir::Module> baseline;
  std::shared_ptr<const tytra::dse::Lowerer> lowerer;
};
/// `count` generated designs with distinct structural digests. With
/// `variants` != 0, only designs whose NDRange gives exactly that many
/// lane counts under `lane_cap` are kept.
std::vector<GenDesign> draw_gen_designs(tytra::SplitMix64& rng,
                                        std::size_t count,
                                        std::size_t variants = 0,
                                        std::uint32_t lane_cap = 0);

// ---------------------------------------------------------------------------
// Result line.
// ---------------------------------------------------------------------------

struct Metric {
  double value{0};
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Adds p50/p90/count of `samples` under `<name>.p50` etc.
void add_dist(Metrics& m, const std::string& name, const std::string& unit,
              const std::vector<double>& samples);

/// Prints the final JSON line.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics);

/// What every workload's op loop hands back.
struct RunOutcome {
  double setup_s{0};
  std::vector<double> op_ms;           ///< untraced ops
  std::vector<double> traced_op_ms;    ///< ops run with tracing on
  double loop_seconds{0};              ///< wall time of the untraced loop
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::uint64_t variants{0};           ///< design points answered (untraced)
  std::uint64_t variant_hits{0};
  std::uint64_t misses{0};
  std::uint64_t lookups{0};
  double rss_mb{0};
  double est_err_max_pct{0};
  std::vector<SpanRecord> spans;
  Metrics layer;                       ///< per-layer probe metrics
};

/// The per-layer probe suite (layers.cpp): times the workload's distinct
/// designs through each layer's public functions, single-threaded.
struct ProbeInput {
  struct Design {
    std::shared_ptr<const tytra::dse::Lowerer> lowerer;
    bool file{false};           ///< lowered via kernels::file_lowerer
    std::uint64_t n{0};
    std::uint32_t max_lanes{16};
    std::string device;
  };
  std::vector<Design> designs;
  /// Adds a seeded slice of generated designs, so workloads that lower
  /// only built-in kernels still time the file lowering path.
  void add_gen_slice(std::uint64_t seed, std::uint32_t max_lanes);
  /// Daemon socket to probe (empty: the probe spawns its own daemon).
  std::string socket;
  /// Explore requests for the daemon-overhead and tytra-cc probes.
  std::vector<BuiltinJob> requests;
  std::uint32_t request_lanes{16};
};
void run_layer_probes(const Options& opt, const ProbeInput& in,
                      Metrics& out);

RunOutcome run_cold_campaign(const Options& opt);
RunOutcome run_daemon_mixed(const Options& opt);
RunOutcome run_cli_snapshot(const Options& opt);

/// Whether ops keep running: a time budget, or a fixed count in short mode.
class OpClock {
 public:
  OpClock(double seconds, std::uint64_t max_ops)
      : deadline_(now_s() + seconds), max_ops_(max_ops) {}
  bool more(std::uint64_t done) const {
    return max_ops_ != 0 ? done < max_ops_ : now_s() < deadline_;
  }

 private:
  double deadline_;
  std::uint64_t max_ops_;
};

}  // namespace perfbench
