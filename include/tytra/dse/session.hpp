#pragma once

// The object-oriented entry point to design-space exploration — the
// "compiler with a feedback path" of paper §I/§VI as one engine object
// instead of a pile of free-function overloads with caches, arenas and
// thread counts threaded by hand.
//
// A Session owns everything repeated exploration wants to share:
//
//   * the two-level CostCache (see dse/cache.hpp) — every sweep, tune
//     walk and campaign job run by the session warms the same cache, so
//     a tuner trajectory after a sweep, or a campaign's repeat sizes,
//     resolve at the variant-key level without lowering any IR;
//   * a device table of named, calibrated DeviceCostDbs — calibrate a
//     board once, cost any number of jobs against it by name;
//   * the persistent worker pool (dse::ThreadPool) — created lazily on
//     the first batch that resolves to more than one worker under the
//     clamping policy SessionOptions::num_threads documents, then reused
//     for every subsequent sweep, tune walk and campaign, so repeated
//     small jobs stop paying thread spawn/join churn;
//   * the per-worker BuildArenas — worker index i is pinned to one pool
//     thread for the session's lifetime, so arena i is only ever touched
//     by that thread and recycled builder storage survives *across*
//     jobs, not just within one sweep.
//
// Work is described by a Job ({workload, size, device} plus per-job
// knobs) and submitted through explore / tune / baseline, or batched as
// a Campaign whose result adds the cross-device comparison and a merged
// Pareto view over every job. run(Campaign) schedules campaign-wide:
// every job's variants are flattened into one work list and evaluated
// concurrently through the shared cache (many small jobs keep every
// worker busy instead of parallelizing each job alone; a design shared
// by several devices is lowered once for all of them), while the
// per-job merge, best and Pareto computation stay in enumeration order —
// campaign output is byte-identical to running the jobs one at a time.
// The legacy free functions in explorer.hpp and tuner.hpp are thin shims
// over a temporary Session and produce byte-identical results
// (tests/test_session.cpp pins this).
//
// Thread-safety: the session's cache is safe for concurrent use —
// including one cache shared across sessions via the cache_override
// parameters — but Session methods themselves are not: explore / tune /
// baseline / run share the persistent pool and its per-worker arenas.
// Drive one job or campaign at a time per Session; each call
// parallelizes internally on the session's pool.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "tytra/cost/calibration.hpp"
#include "tytra/dse/cache.hpp"
#include "tytra/dse/cancel.hpp"
#include "tytra/dse/explorer.hpp"
#include "tytra/dse/pool.hpp"
#include "tytra/dse/tuner.hpp"
#include "tytra/ir/arena.hpp"
#include "tytra/target/device.hpp"

namespace tytra::dse {

/// Session-wide policy. Validated at construction: a zero lane cap is
/// rejected (a sweep over no lane counts is always a caller bug).
struct SessionOptions {
  /// Default lane-count cap for jobs that do not set their own.
  std::uint32_t max_lanes{16};
  /// Worker threads per batch evaluation; same semantics and clamping as
  /// DseOptions::num_threads (0 = one per hardware thread). The workers
  /// are persistent: the session spawns its ThreadPool once, on the
  /// first batch that resolves to more than one worker, and reuses it
  /// for every subsequent sweep, tune walk and campaign.
  std::uint32_t num_threads{0};
  /// Shard count forwarded to the session's CostCache (0 = auto).
  std::size_t cache_shards{0};
  /// When false the session owns no cache and jobs run uncached unless a
  /// per-call override is supplied — the legacy free-function semantics
  /// (their shims construct a cache-less Session so that a caller who
  /// passed no cache keeps paying exactly zero caching overhead).
  bool enable_cache{true};
  /// When non-empty, the session warm-starts from this snapshot file at
  /// construction. Degradation is the contract, not an afterthought: a
  /// missing file is a normal first run (silent cold start), and *any*
  /// load failure — truncation, bit flip, foreign endianness, newer
  /// format, malformed payload — logs exactly one structured warning to
  /// stderr and cold-starts; it never throws and never half-applies a
  /// snapshot. Save-back is explicit via save_snapshot().
  std::string snapshot_path;
  /// Cooperative cancellation (non-owning; must outlive the session's
  /// calls). Polled at variant granularity: flipping it stops the next
  /// evaluation, never one in flight. Single-job calls throw
  /// CancelledError; run(Campaign) reports JobState::Cancelled per job
  /// and keeps every completed job's results. Safe to flip from a signal
  /// handler (see dse/cancel.hpp).
  CancelToken* cancel{nullptr};
  /// Wall-clock budget in seconds for each explore/tune/run call,
  /// measured from the call's start; 0 disables. Checked at the same
  /// variant granularity as cancellation. Single-job calls throw
  /// DeadlineExceeded; campaign jobs degrade to JobState::TimedOut.
  /// Job::deadline_seconds overrides this per job.
  double deadline_seconds{0};
};

/// One unit of exploration work: which design family, how big, against
/// which device, under which per-job knobs.
struct Job {
  /// Workload label for reports ("sor", "hotspot", ..., or free-form for
  /// custom lowerers). Purely descriptive; kernels::Registry fills it.
  std::string workload;
  /// Problem dimension the NDRange was derived from (descriptive; 0 when
  /// the job was built directly from `n`).
  std::uint32_t nd{0};
  /// NDRange size (work-items per kernel instance). Must be >= 1.
  std::uint64_t n{0};
  /// How variants materialize. Shared so campaign jobs own their lowerer;
  /// shims alias the caller's without taking ownership.
  std::shared_ptr<const Lowerer> lower;
  /// Device-table name to cost against; empty selects the default device
  /// (the first one added). Ignored when `db` is set.
  std::string device;
  /// Direct database override bypassing the device table (non-owning;
  /// must outlive the call). The legacy shims use this to borrow the
  /// caller's already-calibrated database without copying it.
  const cost::DeviceCostDb* db{nullptr};
  /// Lane-count cap for this job; 0 inherits SessionOptions::max_lanes.
  /// Bounds both the sweep's enumeration and the tuner's reshape walk
  /// (tune stops with a "lane cap reached" verdict instead of walking
  /// past it).
  std::uint32_t max_lanes{0};
  /// Also enumerate the sequential (C4) variant.
  bool include_seq{false};
  /// Step budget for tune() (<= 0 yields an empty trajectory, matching
  /// the free function).
  int max_steps{12};
  /// Per-job wall-clock budget in seconds, measured from the start of
  /// the explore/tune/run call this job is part of; 0 inherits
  /// SessionOptions::deadline_seconds.
  double deadline_seconds{0};
  /// Per-job cooperative cancellation (non-owning; must outlive the
  /// call). Unlike SessionOptions::cancel — which stops the whole batch —
  /// flipping this kills only *this* job: in a campaign it degrades to
  /// JobState::Cancelled while every other job completes normally;
  /// single-job calls throw CancelledError. Checked at the same variant
  /// (explore/run) or step (tune) granularity as the session-wide token.
  /// The daemon wires each client connection's token here so one
  /// client's disconnect cancels its jobs and nobody else's.
  const CancelToken* cancel{nullptr};
};

/// A batch of jobs fanned through one shared warm cache.
struct Campaign {
  std::vector<Job> jobs;
};

/// How one campaign job ended. Ok is the only state with results; the
/// other three are the job's failure domain — contained to this job,
/// never the campaign (see JobStatus).
enum class JobState {
  Ok,        ///< every variant evaluated
  Failed,    ///< an evaluation threw; `error` carries the first what()
  TimedOut,  ///< the job's deadline elapsed mid-sweep
  Cancelled  ///< the run's CancelToken was flipped before the job finished
};

/// Lowercase stable name for tables and JSON ("ok", "failed",
/// "timed_out", "cancelled").
std::string_view job_state_name(JobState state);

/// Per-job outcome of a campaign. A non-ok job keeps the shared cache
/// consistent (entries are only ever published after a successful
/// evaluation, so a fault cannot tear one) and costs no retries: the
/// first fault marks the job dead and its remaining variants are
/// skipped, so a failing job never takes longer than it would have
/// healthy.
struct JobStatus {
  JobState state{JobState::Ok};
  /// First failure's message; empty when ok. For TimedOut/Cancelled a
  /// short structured reason ("deadline exceeded (...)", "cancelled").
  std::string error;
  std::size_t evaluated{0};  ///< variants with a computed report
  std::size_t faults{0};     ///< evaluations that threw (first one wins `error`)
  std::size_t skipped{0};    ///< variants never attempted after the fault/expiry

  [[nodiscard]] bool ok() const { return state == JobState::Ok; }
};

/// One campaign job's sweep, with the job echoed for labeling. When
/// `status` is not ok, `result` is empty (no entries, no best, no
/// frontier) — partial sweeps are never presented as results.
struct CampaignJobResult {
  Job job;
  DseResult result;
  JobStatus status;
};

/// A merged-frontier member: `point.index` indexes jobs[job].result.entries.
struct CampaignParetoPoint {
  std::size_t job{0};
  ParetoPoint point;
};

struct CampaignResult {
  /// Per-job results in campaign order. Campaign jobs are evaluated as
  /// one flattened concurrent batch, so each job's
  /// `result.explore_seconds` reports the campaign's shared evaluation
  /// wall clock, not a per-job span; everything else (entries, best,
  /// pareto, cache_stats) is exactly what running the job alone through
  /// the same cache state would produce.
  std::vector<CampaignJobResult> jobs;
  /// The Pareto frontier over every job's valid entries — the
  /// cross-workload, cross-device trade-off surface. Dominance uses the
  /// same three objectives as per-job frontiers; points keep
  /// (job, enumeration) order.
  std::vector<CampaignParetoPoint> pareto;
  CacheStats cache_stats;                  ///< summed per-job sweep stats
  double campaign_seconds{0};

  [[nodiscard]] const DseEntry& entry(const CampaignParetoPoint& p) const {
    return jobs[p.job].result.entries[p.point.index];
  }
  /// Number of non-ok jobs (the campaign's degradation count).
  [[nodiscard]] std::size_t degraded() const {
    std::size_t n = 0;
    for (const auto& jr : jobs) {
      if (!jr.status.ok()) ++n;
    }
    return n;
  }
};

/// The DSE engine object. Owns cache, device table, thread policy and
/// per-worker arenas; every sweep/tune/baseline/campaign runs through it.
class Session {
 public:
  /// Throws std::invalid_argument when options are invalid
  /// (max_lanes == 0).
  explicit Session(SessionOptions options = {});
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Calibrates `desc` and adds it to the device table under its own
  /// name. Throws std::invalid_argument on a duplicate name. Returns the
  /// calibrated database (stable address for the session's lifetime).
  const cost::DeviceCostDb& add_device(const target::DeviceDesc& desc);
  /// Adds an already-calibrated database under `name` (moves it in).
  const cost::DeviceCostDb& add_device(std::string name,
                                       cost::DeviceCostDb db);
  /// Looks a device up by name; null when absent.
  [[nodiscard]] const cost::DeviceCostDb* find_device(
      std::string_view name) const;
  /// Device names in the order they were added (front = default device).
  [[nodiscard]] const std::vector<std::string>& device_names() const {
    return device_order_;
  }

  /// Sweeps the job's reshape family. Validates the job at this boundary
  /// — null lowerer, n == 0, an effective lane cap of 0, or an unknown
  /// device name all throw std::invalid_argument with a message naming
  /// the offending field. `cache_override` replaces the session cache
  /// for this call (the legacy shims route their caller's cache through
  /// here); null means the session cache, or uncached when caching is
  /// disabled.
  DseResult explore(const Job& job, CostCache* cache_override = nullptr);

  /// Walks the feedback path from the baseline variant (see dse/tuner.hpp),
  /// riding the session cache — after explore() of the same job, the whole
  /// trajectory answers at the variant-key level. The walk is bounded by
  /// the job's resolved lane cap (Job::max_lanes, falling back to
  /// SessionOptions::max_lanes).
  TuneResult tune(const Job& job, CostCache* cache_override = nullptr);

  /// The MaxJ-like HLS baseline: the 1-lane variant's cost report.
  cost::CostReport baseline(const Job& job,
                            CostCache* cache_override = nullptr);

  /// Runs the whole campaign through the shared cache and merges the
  /// cross-device comparison + Pareto view. Scheduling is campaign-wide:
  /// all jobs' variants form one flattened work list drained by the
  /// session pool, in two waves. Wave 1 holds one unit per distinct
  /// design (by device-free variant key) listing every database that
  /// enumerates it: the design is lowered, digested and summarized once,
  /// and only cost_design runs per database. A (design, database) pair
  /// repeated across jobs is evaluated once; wave 2 runs the repeats,
  /// which resolve at the variant-key level against the now-warm cache.
  /// Per-job merge, best, Pareto and cache stats are computed in
  /// enumeration order, so campaign output (text and JSON, wall times
  /// aside) is byte-identical across thread counts and to running the
  /// jobs one by one. The stats-determinism guarantee assumes repeated
  /// designs are visible to the dedup, i.e. they share a variant key and
  /// a database address (jobs naming the same device-table entry do).
  /// Designs that only coincide later — key-less FnLowerer jobs, keyed
  /// lowerers with different fingerprints lowering to identical IR, or
  /// distinct Job::db copies calibrated from one device — race at the
  /// structural level instead, and their per-job hit/miss stats may vary
  /// across thread counts; the reports, entries, best and frontiers are
  /// still exact.
  ///
  /// Failure domains are per (design, database) pair, and a failure
  /// fails that pair's job: a throw from a design's shared lowering,
  /// digest or summarize fails the job of every database that needed it
  /// (each would have thrown the same alone), a throw from one
  /// database's cost model fails only that job, and a job whose deadline
  /// elapses is TimedOut — each checked per pair. A failed job is marked
  /// in its JobStatus and its remaining variants skipped; every
  /// unaffected job completes with results byte-identical to a
  /// fault-free run of those jobs. run() itself only throws for
  /// campaign-level errors (invalid jobs at the resolve boundary). A
  /// flipped CancelToken drains the work list and marks unfinished jobs
  /// Cancelled. Caveat: when a failed evaluation was the wave-1
  /// representative of a design repeated in another job, the repeat
  /// re-evaluates cold — its results are unchanged, but its hit/miss
  /// stats can differ from the fault-free run.
  CampaignResult run(const Campaign& campaign,
                     CostCache* cache_override = nullptr);

  /// The session cache (null when SessionOptions::enable_cache is false).
  [[nodiscard]] CostCache* cache() { return cache_.get(); }
  [[nodiscard]] const SessionOptions& options() const { return options_; }

  /// What one snapshot load restored.
  struct SnapshotStats {
    std::size_t structural_entries{0};
    std::size_t variant_entries{0};
    std::size_t calibrations{0};
  };

  /// Loads a snapshot into the session: cache entries into the session
  /// cache (skipped, not an error, when caching is disabled) and stored
  /// calibrations into a pending table that add_device() consults —
  /// a calibration is only ever *used* when the device description's
  /// fingerprint still matches the one it was computed from. Requires the
  /// same quiescence as CostCache::clear(). On any failure the session is
  /// rolled back to fully cold (cache cleared, pending calibrations
  /// dropped) and the diagnostic returned — a partially-applied snapshot
  /// can never leak into results.
  Result<SnapshotStats> load_snapshot(const std::string& path);

  /// Atomically writes the session's cache entries, device calibrations
  /// and still-unclaimed restored calibrations to `path` (empty = the
  /// options' snapshot_path). Returns the file's size in bytes.
  ///
  /// A save is a successful no-op when the session is *clean* with
  /// respect to `path`: it loaded `path` into an empty session in this
  /// process, the cache has published no entry and seen no clear() since
  /// (CostCache::generation), no device was calibrated fresh (a new
  /// device, a stale-fingerprint recalibration, or an explicit
  /// add_device(name, db)), and the file still has the FileStamp it was
  /// read with. The file then already holds everything the save would
  /// write, up to the order of the calibration section, which no load
  /// depends on. Otherwise the save renders and writes the full file
  /// (tmp + fsync + rename + directory fsync). `wrote`, when non-null,
  /// receives whether a write happened.
  Result<std::uint64_t> save_snapshot(const std::string& path = {},
                                      bool* wrote = nullptr);

 private:
  struct ResolvedJob {
    const cost::DeviceCostDb* db;
    const Lowerer* lower;
    std::uint64_t n;
    std::uint32_t max_lanes;
  };
  [[nodiscard]] ResolvedJob resolve(const Job& job) const;
  [[nodiscard]] CostCache* effective_cache(CostCache* override_cache) {
    return override_cache ? override_cache : cache_.get();
  }
  /// Grows the arena pool to at least `n` workers.
  std::vector<ir::BuildArena>& arenas(std::size_t n);
  /// The widest batch this session will ever run (the num_threads clamp
  /// applied to unbounded work) — the pool's capacity.
  [[nodiscard]] std::uint32_t max_participants() const;
  /// The session pool sized for max_participants(), created on the first
  /// call that needs more than one participant; null for serial batches.
  ThreadPool* pool_for(std::uint32_t participants);
  /// load_snapshot() over bytes already read from `path` (`bytes` may
  /// carry the read's error), so the constructor's warm start opens the
  /// file once.
  Result<SnapshotStats> load_snapshot_bytes(const std::string& path,
                                            Result<std::string> bytes,
                                            const binio::FileStamp& stamp);
  /// Adds to the device table without touching the clean state.
  const cost::DeviceCostDb& insert_device(std::string name,
                                          cost::DeviceCostDb db);

  SessionOptions options_;
  std::unique_ptr<CostCache> cache_;
  std::map<std::string, cost::DeviceCostDb, std::less<>> devices_;
  std::vector<std::string> device_order_;
  std::vector<ir::BuildArena> arenas_;
  std::unique_ptr<ThreadPool> pool_;
  /// Calibrations restored from a snapshot, keyed by device name, waiting
  /// for add_device() to claim them. The stored fingerprint is the
  /// invalidation key: add_device() recalibrates (and drops the stale
  /// entry) when the incoming description no longer matches.
  struct RestoredCalibration {
    std::uint64_t fingerprint{0};
    cost::DeviceCostDb db;
  };
  std::map<std::string, RestoredCalibration, std::less<>> restored_;
  /// The snapshot file the session still equals (see save_snapshot): its
  /// path, the stamp it was read with, and the cache generation right
  /// after the load. Unset until a load into an empty session succeeds;
  /// reset by any fresh calibration or further load.
  struct CleanSnapshot {
    std::string path;
    binio::FileStamp stamp;
    std::uint64_t cache_generation{0};
  };
  std::optional<CleanSnapshot> clean_;
};

// ---------------------------------------------------------------------------
// Snapshot file inspection (the `tytra-cc cache inspect|verify` backend)
// ---------------------------------------------------------------------------

/// What a full offline walk of a snapshot file found. Producing one means
/// every container check (magic, version, endianness, checksums, exact
/// length) and every payload decode (each cache entry, each calibration)
/// succeeded.
struct SnapshotSummary {
  std::uint32_t format_version{0};
  std::uint32_t payload_version{0};
  std::uint64_t file_bytes{0};
  std::size_t structural_entries{0};
  std::size_t variant_entries{0};
  /// Restored calibrations as (device name, fingerprint) pairs.
  std::vector<std::pair<std::string, std::uint64_t>> calibrations;
};

/// Fully validates `path` — container integrity and every payload —
/// without touching any session state. The error carries the first
/// defect found; `tytra-cc cache verify` maps it to a nonzero exit.
Result<SnapshotSummary> verify_snapshot(const std::string& path);

namespace detail {
/// The skyline shared by per-sweep frontiers and the campaign's merged
/// view: keep[i] says whether candidates[i] is non-dominated under
/// (EKIT max, util min, bw-share min), ties breaking on position.
/// Candidates with a non-finite objective are never kept — NaN would
/// break the sort's strict weak ordering — and do not dominate anything.
/// Exposed for tests; not a stable public API.
std::vector<bool> skyline_keep(const std::vector<ParetoPoint>& candidates);
}  // namespace detail

/// The campaign's merged frontier over its jobs' per-sweep frontiers, in
/// (job, enumeration) order — what Session::run stores in
/// CampaignResult::pareto, for callers that assemble a CampaignResult from
/// jobs run one at a time.
std::vector<CampaignParetoPoint> merged_frontier(
    const std::vector<CampaignJobResult>& jobs);

/// Cross-device comparison table: one row per campaign job (workload,
/// nd, device, variant count, best design). Deterministic — no wall
/// times — so output is directly comparable across runs. A non-ok job's
/// row carries its status + error in place of the best-design columns,
/// and a "degraded:" summary line appears only when degraded() > 0 — a
/// fault-free campaign renders byte-identically to before the failure
/// model existed.
std::string format_campaign(const CampaignResult& result);

/// The merged frontier, labeled with workload/device per row.
std::string format_campaign_pareto(const CampaignResult& result);

// ---------------------------------------------------------------------------
// Structured (JSON) renderings — the machine-readable counterpart of the
// format_* tables, used by `tytra-cc --json` and the CI smoke step.
// ---------------------------------------------------------------------------

std::string format_sweep_json(const DseResult& result);
std::string format_tune_json(const TuneResult& result);
std::string format_campaign_json(const CampaignResult& result);

}  // namespace tytra::dse
