#include "tytra/dse/session.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iomanip>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "tytra/ir/analysis.hpp"
#include "tytra/support/failpoint.hpp"
#include "tytra/support/json.hpp"
#include "tytra/support/strings.hpp"
#include "tytra/support/thread_annotations.hpp"

// This file IS the DSE engine: the batched parallel sweep, the tuner's
// feedback walk and the Pareto skyline all live here, and the free
// functions in explorer.cpp / tuner.cpp are thin shims over a temporary
// Session. There is exactly one evaluation path, so the Session API and
// the legacy API cannot drift apart.

namespace tytra::dse {

namespace {

std::uint32_t resolve_threads(std::uint32_t requested, std::size_t work_items) {
  // The clamping policy is documented on DseOptions::num_threads: at most
  // 4x the core count and at most one worker per variant. Workers are not
  // clamped to the cache's shard count — cache reads are lock-free, so a
  // warm (hit-dominated) sweep scales past the shard count instead of
  // queuing on shard locks.
  std::uint32_t cores = std::thread::hardware_concurrency();
  if (cores == 0) cores = 1;
  std::uint32_t n = requested == 0 ? cores : std::min(requested, 4 * cores);
  if (work_items < n) n = static_cast<std::uint32_t>(work_items);
  return n == 0 ? 1 : n;
}

/// One (design, database) pair: the database the design is costed
/// against, the result slot it writes, and the job it belongs to (the
/// failure domain).
struct EvalTarget {
  const cost::DeviceCostDb* db;
  std::size_t slot;
  std::size_t job;
};

/// One unit of evaluation work: a design (a variant and the lowerer that
/// materializes it) and the databases it is costed against,
/// targets[first, first + count) of the batch's target list. A sweep's
/// tasks have one target each; a campaign's wave-1 tasks have one per
/// database that enumerates the design, so lowering, digest and summary
/// are shared across them.
struct EvalTask {
  const frontend::Variant* variant;
  const Lowerer* lower;
  std::size_t first;
  std::size_t count;
};

double seconds_since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// What the workers recorded about one job. Exactly one task per job —
/// the one whose dead-flag exchange came back false — gets to set the
/// state and first error; later faults in the same job only bump the
/// count.
struct FaultRecord {
  JobState state{JobState::Ok};
  std::exception_ptr error;  ///< first failing evaluation, for rethrow
  std::string message;       ///< its what(), for JobStatus::error
  std::size_t faults{0};     ///< evaluations that threw
};

/// Per-batch failure-domain state shared by the workers: one dead flag
/// and one FaultRecord per job. The dead flags gate task draw — the
/// first fault (or deadline expiry) in a job marks it dead and its
/// remaining tasks are skipped, so a failing job costs no more
/// wall-clock than the work it completed (no retries, no wedged pool).
struct EvalContext {
  const CancelToken* cancel;
  std::chrono::steady_clock::time_point t0;
  /// Per-job wall-clock budget in seconds since t0; <= 0 disables.
  std::vector<double> deadline;
  bool any_deadline{false};
  /// Per-job cancel tokens (Job::cancel); null disables. A flipped token
  /// kills only its job — the dead flag gates the rest, and
  /// finalize_status turns the incomplete-but-fault-free job into
  /// Cancelled.
  std::vector<const CancelToken*> job_cancel;
  bool any_job_cancel{false};
  mutable tytra::Mutex mu;  ///< guards records (cold path only)
  std::vector<FaultRecord> records TYTRA_GUARDED_BY(mu);
  std::unique_ptr<std::atomic<bool>[]> dead;  ///< one flag per job

  EvalContext(std::size_t jobs, const CancelToken* cancel_token,
              std::chrono::steady_clock::time_point start)
      : cancel(cancel_token),
        t0(start),
        deadline(jobs, 0.0),
        job_cancel(jobs, nullptr),
        records(jobs),
        dead(std::make_unique<std::atomic<bool>[]>(jobs)) {
    for (std::size_t j = 0; j < jobs; ++j) {
      dead[j].store(false, std::memory_order_relaxed);
    }
  }

  /// A copy of job `job`'s fault record, for reading after the drain.
  FaultRecord record(std::size_t job) const {
    MutexLock lock(mu);
    return records[job];
  }

  /// Whether job `job` may still evaluate: false once it is dead, and it
  /// dies here when its cancel token is flipped or its deadline elapsed.
  bool admit(std::size_t job) {
    if (dead[job].load(std::memory_order_relaxed)) return false;
    if (any_job_cancel) {
      const CancelToken* jc = job_cancel[job];
      if (jc != nullptr && jc->cancelled()) {
        // Idempotent store, no record: finalize_status derives the
        // Cancelled state from the fault-free-but-incomplete slots.
        dead[job].store(true, std::memory_order_relaxed);
        return false;
      }
    }
    if (any_deadline) {
      const double budget = deadline[job];
      if (budget > 0 && seconds_since(t0) >= budget) {
        if (!dead[job].exchange(true, std::memory_order_relaxed)) {
          MutexLock lock(mu);
          FaultRecord& r = records[job];
          r.state = JobState::TimedOut;
          std::ostringstream why;
          why << "deadline exceeded (budget " << budget << " s)";
          r.message = why.str();
        }
        return false;
      }
    }
    return true;
  }

  /// Records one failed evaluation of job `job`. The first fault marks
  /// the job dead and keeps `error`; later ones only bump the count.
  void fail(std::size_t job, const std::exception_ptr& error) {
    const bool first = !dead[job].exchange(true, std::memory_order_relaxed);
    MutexLock lock(mu);
    FaultRecord& r = records[job];
    ++r.faults;
    if (!first) return;
    r.state = JobState::Failed;
    r.error = error;
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& e) {
      r.message = e.what();
    } catch (...) {
      r.message = "unknown exception";
    }
  }
};

/// The uncached evaluation of one design: lower and summarize once, then
/// run the cost model per target. Mirrors CostCache's multi-target
/// contract: a throw from the shared work propagates, one from a single
/// target's cost model lands in that target's `error`.
void cost_uncached(const EvalTask& task,
                   std::span<CostCache::Target> targets,
                   ir::BuildArena& arena) {
  ir::Module module = task.lower->lower(*task.variant, &arena);
  const ir::AnalysisSummary summary = ir::summarize(module);
  for (CostCache::Target& t : targets) {
    try {
      t.report = cost::cost_design(module, *t.db, summary);
    } catch (...) {
      t.error = std::current_exception();
    }
  }
  arena.recycle(std::move(module));
}

/// Drains `tasks` into per-target slots. The work-queue is a single
/// atomic cursor over designs; slots are disjoint, so workers never
/// contend on results, and merging slots in enumeration order is
/// deterministic no matter the interleaving. Worker t draws lowering
/// scratch from arenas[t] — worker indices are pinned to pool threads, so
/// recycled builder capacity survives across batches and jobs.
/// levels[slot] records which cache level answered (stays Miss when
/// uncached); the per-batch accounting is aggregated from it afterwards,
/// deterministically, instead of from racing shared counters.
///
/// Failure containment is per (design, database) pair, and a failure
/// kills that pair's job, never the batch. Each target is admitted on its
/// own: its job's dead flag, cancel token and deadline are checked, and
/// the `dse.pool-task` failpoint fires once per target. A throw from the
/// design's shared work (lowering, digest, summarize) fails the job of
/// every live target that needed it; a throw from one target's cost
/// model fails only that target's job. A dead job's remaining targets
/// are skipped while every other job keeps evaluating. A flipped
/// CancelToken jumps the cursor past the end — in-flight evaluations
/// finish (their slots stay valid), nothing new starts. This function
/// itself never throws engine errors; callers read ctx.records and
/// decide (explore rethrows, run() degrades).
void evaluate_tasks(const std::vector<EvalTask>& tasks,
                    const std::vector<EvalTarget>& targets, CostCache* cache,
                    ThreadPool* pool, std::uint32_t participants,
                    std::vector<ir::BuildArena>& arenas,
                    std::vector<std::optional<cost::CostReport>>& slots,
                    std::vector<CostCache::HitLevel>& levels,
                    EvalContext& ctx) {
  std::atomic<std::size_t> cursor{0};

  auto worker = [&](std::uint32_t worker_index) {
    ir::BuildArena& arena = arenas[worker_index];
    // The task's admitted targets and their lookups, reused across tasks.
    std::vector<const EvalTarget*> live;
    std::vector<CostCache::Target> lookups;
    for (;;) {
      if (ctx.cancel != nullptr && ctx.cancel->cancelled()) {
        // Unfinished jobs are marked Cancelled by finalize_status once
        // the batch drains.
        cursor.store(tasks.size(), std::memory_order_relaxed);
        return;
      }
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= tasks.size()) return;
      const EvalTask& task = tasks[i];
      live.clear();
      lookups.clear();
      for (std::size_t k = task.first; k < task.first + task.count; ++k) {
        const EvalTarget& t = targets[k];
        if (!ctx.admit(t.job)) continue;
        try {
          failpoint::maybe_throw("dse.pool-task");
        } catch (...) {
          ctx.fail(t.job, std::current_exception());
          continue;
        }
        live.push_back(&t);
        lookups.push_back(CostCache::Target{t.db});
      }
      if (live.empty()) continue;
      try {
        if (cache) {
          cache->cost(*task.variant, *task.lower, lookups, &arena);
        } else {
          cost_uncached(task, lookups, arena);
        }
      } catch (...) {
        // The shared work threw: every target still without a report
        // would have thrown the same on its own.
        for (CostCache::Target& l : lookups) {
          if (!l.report && !l.error) l.error = std::current_exception();
        }
      }
      for (std::size_t k = 0; k < live.size(); ++k) {
        CostCache::Target& l = lookups[k];
        if (l.error) {
          ctx.fail(live[k]->job, l.error);
        } else {
          slots[live[k]->slot] = std::move(l.report);
          levels[live[k]->slot] = l.level;
        }
      }
    }
  };

  if (participants <= 1 || pool == nullptr) {
    worker(0);
  } else {
    pool->run_batch(participants, worker);
  }
}

/// Derives one job's final JobStatus from its slot range after every
/// wave drained: evaluated = filled slots, skipped = the rest minus the
/// faulting attempts. A job that recorded nothing wrong but did not
/// finish can only have been stopped by the cancel latch.
JobStatus finalize_status(const EvalContext& ctx, std::size_t job,
                          const std::vector<std::optional<cost::CostReport>>&
                              slots,
                          std::size_t begin, std::size_t end) {
  const FaultRecord r = ctx.record(job);
  JobStatus s;
  s.state = r.state;
  s.error = r.message;
  s.faults = r.faults;
  for (std::size_t i = begin; i < end; ++i) {
    if (slots[i].has_value()) ++s.evaluated;
  }
  s.skipped = (end - begin) - s.evaluated - s.faults;
  if (s.state == JobState::Ok && s.evaluated < end - begin) {
    s.state = JobState::Cancelled;
    s.error = "cancelled";
  }
  return s;
}

/// Sums levels[begin, end) into per-sweep stats — only for slots that
/// were actually evaluated (a skipped task's level is a meaningless
/// default, not a miss). Separate from the cache's global counters,
/// which concurrent sweeps sharing the cache also advance; and per-slot,
/// so a campaign can attribute one flattened batch back to its jobs in
/// enumeration order.
void accumulate_stats(CacheStats& stats,
                      const std::vector<CostCache::HitLevel>& levels,
                      const std::vector<std::optional<cost::CostReport>>& slots,
                      std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    if (!slots[i].has_value()) continue;
    if (levels[i] == CostCache::HitLevel::Miss) {
      ++stats.misses;
    } else {
      ++stats.hits;
      if (levels[i] == CostCache::HitLevel::Variant) ++stats.variant_hits;
    }
  }
}

/// The streaming share of the per-instance time: how much of the budget
/// the DRAM term claims (0 for form-C designs, ~1 on a bandwidth wall).
double bandwidth_share(const cost::CostReport& report) {
  const auto& t = report.throughput;
  return t.seconds_per_instance > 0 ? t.t_mem_stream / t.seconds_per_instance
                                    : 0.0;
}

}  // namespace

// A point dominates another when it is at least as good on every
// objective (EKIT >=, util <=, bw-share <=) and strictly better on one.
//
/// Sort-based skyline over an arbitrary candidate set. Candidates sorted
/// by EKIT descending can only be dominated by points earlier in the
/// sort; kept points are condensed into a (util, bw) staircase —
/// strictly increasing util, strictly decreasing bw — so each dominance
/// probe is one ordered-map lookup: O(n log n) overall. Returns the keep
/// flag per candidate position; ties break on candidate position, so
/// callers that build candidates in enumeration order get the same set
/// and order as the all-pairs definition. Shared by per-sweep frontiers
/// and the campaign's merged view.
std::vector<bool> detail::skyline_keep(
    const std::vector<ParetoPoint>& candidates) {
  std::vector<bool> keep(candidates.size(), false);
  // A non-finite objective breaks the sort's strict weak ordering (NaN
  // compares false against everything) and has no place on the staircase;
  // such a candidate is never a frontier member and must not dominate
  // anything, so it is dropped before ordering.
  std::vector<std::size_t> order;
  order.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const ParetoPoint& p = candidates[i];
    if (std::isfinite(p.ekit) && std::isfinite(p.util_max) &&
        std::isfinite(p.bw_share)) {
      order.push_back(i);
    }
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const ParetoPoint& pa = candidates[a];
    const ParetoPoint& pb = candidates[b];
    if (pa.ekit != pb.ekit) return pa.ekit > pb.ekit;
    if (pa.util_max != pb.util_max) return pa.util_max < pb.util_max;
    if (pa.bw_share != pb.bw_share) return pa.bw_share < pb.bw_share;
    return a < b;
  });

  // Staircase over kept points from strictly-higher-EKIT groups. Every
  // staircase point has strictly greater EKIT than the probe, so covering
  // it on (util, bw) — even with equality — is domination.
  std::map<double, double> staircase;  // util -> bw, bw strictly decreasing
  const auto covered = [&](const ParetoPoint& c) {
    auto it = staircase.upper_bound(c.util_max);
    if (it == staircase.begin()) return false;
    --it;  // greatest util <= c.util; its bw is the minimum among those
    return it->second <= c.bw_share;
  };
  const auto insert_point = [&](const ParetoPoint& c) {
    auto it = staircase.upper_bound(c.util_max);
    if (it != staircase.begin() && std::prev(it)->second <= c.bw_share) {
      return;  // an existing point already covers it
    }
    auto pos = staircase.lower_bound(c.util_max);
    while (pos != staircase.end() && pos->second >= c.bw_share) {
      pos = staircase.erase(pos);
    }
    staircase.emplace(c.util_max, c.bw_share);
  };

  std::size_t g = 0;
  while (g < order.size()) {
    // One group of equal-EKIT candidates, in (util asc, bw asc) order.
    std::size_t g_end = g + 1;
    while (g_end < order.size() &&
           candidates[order[g_end]].ekit == candidates[order[g]].ekit) {
      ++g_end;
    }
    // Within the group EKIT ties, so domination needs strictness on the
    // other two objectives. Earlier members have util <= ours; tracking
    // the running minimum bw (and the smallest util achieving it) decides
    // domination without a scan. Dominated members participate too:
    // whatever they would dominate, their own dominator also dominates.
    double g_min_bw = 0;
    double g_min_bw_util = 0;
    for (std::size_t k = g; k < g_end; ++k) {
      const ParetoPoint& c = candidates[order[k]];
      const bool by_group =
          k > g && (g_min_bw < c.bw_share ||
                    (g_min_bw == c.bw_share && g_min_bw_util < c.util_max));
      keep[order[k]] = !by_group && !covered(c);
      if (k == g || c.bw_share < g_min_bw) {
        g_min_bw = c.bw_share;
        g_min_bw_util = c.util_max;  // first achiever has the smallest util
      }
    }
    // Merge the group's survivors only after the whole group is probed:
    // equal-EKIT points must not dominate through the staircase.
    for (std::size_t k = g; k < g_end; ++k) {
      if (keep[order[k]]) insert_point(candidates[order[k]]);
    }
    g = g_end;
  }
  return keep;
}

namespace {

std::vector<ParetoPoint> pareto_frontier(const std::vector<DseEntry>& entries) {
  std::vector<ParetoPoint> candidates;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& e = entries[i];
    if (!e.report.valid) continue;
    candidates.push_back(ParetoPoint{i, e.report.throughput.ekit,
                                     e.report.resources.util.max(),
                                     bandwidth_share(e.report)});
  }
  const std::vector<bool> keep = detail::skyline_keep(candidates);
  std::vector<ParetoPoint> frontier;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (keep[i]) frontier.push_back(candidates[i]);
  }
  return frontier;  // candidates were built in enumeration order
}

/// Smallest divisor of n strictly greater than `lanes`, or 0 — one
/// upper_bound on the pre-enumerated divisor ladder.
std::uint64_t next_lane_count(const std::vector<std::uint64_t>& divs,
                              std::uint64_t lanes) {
  const auto it = std::upper_bound(divs.begin(), divs.end(), lanes);
  return it == divs.end() ? 0 : *it;
}

/// Index of the highest-EKIT valid report in `seq` (get maps an element
/// to its CostReport), or nullopt when nothing is valid — the one "best"
/// rule shared by the sweep's entries and the tuner's trajectory.
template <typename Seq, typename GetReport>
std::optional<std::size_t> best_valid_index(const Seq& seq, GetReport get) {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const cost::CostReport& r = get(seq[i]);
    if (!r.valid) continue;
    if (!best || r.throughput.ekit > get(seq[*best]).throughput.ekit) {
      best = i;
    }
  }
  return best;
}

/// Deterministic merge in enumeration order: moves variants[i] +
/// slots[offset + i] into entries, then derives best and the frontier.
/// Shared by explore and the campaign's per-job attribution of one
/// flattened batch.
void merge_sweep(DseResult& result, std::vector<frontend::Variant>& variants,
                 std::vector<std::optional<cost::CostReport>>& slots,
                 std::size_t offset) {
  result.entries.reserve(variants.size());
  for (std::size_t i = 0; i < variants.size(); ++i) {
    result.entries.emplace_back(std::move(variants[i]),
                                std::move(*slots[offset + i]));
  }
  result.best = best_valid_index(
      result.entries, [](const DseEntry& e) -> const cost::CostReport& {
        return e.report;
      });
  result.pareto = pareto_frontier(result.entries);
}

TuneResult run_tune(std::uint64_t n, const Lowerer& lower,
                    const cost::DeviceCostDb& db, int max_steps,
                    std::uint32_t max_lanes, CostCache* cache,
                    ir::BuildArena& arena, const CancelToken* cancel,
                    const CancelToken* job_cancel, double deadline_seconds,
                    std::chrono::steady_clock::time_point t0) {
  TuneResult result;
  if (max_steps <= 0) {
    // Guard the degenerate budget instead of indexing an empty trajectory.
    result.verdict = "stopped: no step budget (max_steps <= 0)";
    return result;
  }
  // One O(sqrt n) enumeration serves every step's "next lane count" probe.
  const std::vector<std::uint64_t> lane_ladder = frontend::divisors(n);
  frontend::Variant current = frontend::baseline_variant(n);
  std::string action = "baseline: single kernel pipeline (what an HLS tool extracts)";

  for (int step = 0; step < max_steps; ++step) {
    // The walk's checkpoints mirror evaluate_tasks' variant granularity:
    // a cancel or expiry stops the next step, never one in flight.
    if (cancel != nullptr && cancel->cancelled()) throw CancelledError();
    if (job_cancel != nullptr && job_cancel->cancelled()) {
      throw CancelledError();
    }
    if (deadline_seconds > 0 && seconds_since(t0) >= deadline_seconds) {
      throw DeadlineExceeded(deadline_seconds);
    }
    cost::CostReport report;
    if (cache) {
      report = cache->cost(current, lower, db, nullptr, &arena);
    } else {
      ir::Module module = lower.lower(current, &arena);
      report = cost::cost_design(module, db);
      arena.recycle(std::move(module));
    }
    const bool valid = report.valid;
    const cost::Wall wall = report.throughput.limiting;
    result.trajectory.emplace_back(current, std::move(report), action);
    const auto& placed = result.trajectory.back();

    if (!valid) {
      result.verdict =
          "stopped: variant exceeds the device (computation wall); keeping "
          "the last fitting variant";
      break;
    }
    if (wall == cost::Wall::HostBandwidth) {
      result.verdict =
          "stopped: host-bandwidth wall — replication cannot help; move to a "
          "form-B/C memory execution or reduce host traffic";
      break;
    }
    if (wall == cost::Wall::DramBandwidth) {
      result.verdict =
          "stopped: DRAM-bandwidth wall — replication cannot help; improve "
          "access contiguity or tile through local memory";
      break;
    }

    // Compute-bound (or fill-bound): add lanes.
    const std::uint64_t next =
        next_lane_count(lane_ladder, placed.report.params.knl);
    if (next == 0) {
      result.verdict = "stopped: no further lane count divides the NDRange";
      break;
    }
    if (next > max_lanes) {
      // The resolved lane cap bounds the walk exactly like it bounds the
      // sweep's enumeration (this used to be a hard-coded `next > 1024`
      // that ignored Job::max_lanes / SessionOptions::max_lanes).
      std::ostringstream why;
      why << "stopped: lane cap reached (next divisor " << next
          << " exceeds max_lanes=" << max_lanes << ")";
      result.verdict = why.str();
      break;
    }
    current = frontend::reshape_to(frontend::baseline_variant(n), next,
                                   frontend::ParAnn::Par);
    std::ostringstream why;
    why << "compute wall at " << placed.report.params.knl
        << " lanes -> reshapeTo " << next << " lanes";
    action = why.str();
  }

  // Best valid step; stays nullopt when every step exceeded the device.
  result.best = best_valid_index(
      result.trajectory, [](const TuneStep& s) -> const cost::CostReport& {
        return s.report;
      });
  if (result.verdict.empty()) result.verdict = "stopped: step budget exhausted";
  return result;
}

}  // namespace

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

namespace {

// Snapshot container section ids.
constexpr std::uint32_t kSecMeta = 1;
constexpr std::uint32_t kSecStructural = 2;
constexpr std::uint32_t kSecVariant = 3;
constexpr std::uint32_t kSecCalibration = 4;

/// Version of the *payload* schemas inside the sections (report encoding,
/// digest scheme, calibration layout). Bump on any change to those — the
/// container format version in binio.hpp only covers the framing.
/// v2: structural entries are (key, check, report) — no printed IR.
constexpr std::uint32_t kSnapshotPayloadVersion = 2;

}  // namespace

Session::Session(SessionOptions options) : options_(std::move(options)) {
  if (options_.max_lanes == 0) {
    throw std::invalid_argument(
        "dse::Session: SessionOptions::max_lanes must be >= 1 (a sweep over "
        "no lane counts is empty)");
  }
  if (options_.enable_cache) {
    cache_ = std::make_unique<CostCache>(options_.cache_shards);
  }
  if (!options_.snapshot_path.empty()) {
    // A missing file is a normal first run: cold-start silently, and the
    // eventual save_snapshot() creates it. Everything else that can be
    // wrong with the file surfaces as exactly one structured warning.
    binio::FileStamp stamp;
    bool missing = false;
    auto bytes = binio::read_file(options_.snapshot_path, &stamp, &missing);
    if (!missing) {
      const auto loaded = load_snapshot_bytes(options_.snapshot_path,
                                              std::move(bytes), stamp);
      if (!loaded.ok()) {
        std::fprintf(stderr,
                     "tytra: warning: snapshot-load path='%s' error='%s' "
                     "action=cold-start\n",
                     options_.snapshot_path.c_str(),
                     loaded.diag().message.c_str());
      }
    }
  }
}

Session::~Session() = default;

const cost::DeviceCostDb& Session::add_device(const target::DeviceDesc& desc) {
  // A restored calibration is used only while its fingerprint still
  // matches the incoming description — a stale entry (edited .tgt file,
  // different preset under the same name) is dropped and recalibrated,
  // never trusted.
  const auto it = restored_.find(desc.name);
  if (it != restored_.end()) {
    const bool fresh = it->second.fingerprint == device_fingerprint(desc);
    if (!fresh) clean_.reset();
    cost::DeviceCostDb db = fresh ? std::move(it->second.db)
                                  : cost::DeviceCostDb::calibrate(desc);
    restored_.erase(it);
    return insert_device(desc.name, std::move(db));
  }
  clean_.reset();
  return insert_device(desc.name, cost::DeviceCostDb::calibrate(desc));
}

const cost::DeviceCostDb& Session::add_device(std::string name,
                                              cost::DeviceCostDb db) {
  clean_.reset();
  return insert_device(std::move(name), std::move(db));
}

const cost::DeviceCostDb& Session::insert_device(std::string name,
                                                 cost::DeviceCostDb db) {
  if (name.empty()) {
    throw std::invalid_argument("dse::Session: device name must be non-empty");
  }
  const auto [it, inserted] = devices_.emplace(std::move(name), std::move(db));
  if (!inserted) {
    throw std::invalid_argument("dse::Session: device '" + it->first +
                                "' is already in the device table");
  }
  device_order_.push_back(it->first);
  return it->second;
}

const cost::DeviceCostDb* Session::find_device(std::string_view name) const {
  const auto it = devices_.find(name);
  return it == devices_.end() ? nullptr : &it->second;
}

std::string_view job_state_name(JobState state) {
  switch (state) {
    case JobState::Ok: return "ok";
    case JobState::Failed: return "failed";
    case JobState::TimedOut: return "timed_out";
    case JobState::Cancelled: return "cancelled";
  }
  return "unknown";
}

Result<Session::SnapshotStats> Session::load_snapshot(const std::string& path) {
  binio::FileStamp stamp;
  auto bytes = binio::read_file(path, &stamp);
  return load_snapshot_bytes(path, std::move(bytes), stamp);
}

Result<Session::SnapshotStats> Session::load_snapshot_bytes(
    const std::string& path, Result<std::string> bytes,
    const binio::FileStamp& stamp) {
  // The session equals the file only when the file is all it holds.
  const bool empty_before =
      devices_.empty() && restored_.empty() &&
      (!cache_ || (cache_->size() == 0 && cache_->variant_size() == 0));
  clean_.reset();
  if (failpoint::fire("snapshot.load")) {
    return make_error("snapshot: injected fault at failpoint 'snapshot.load'");
  }
  if (!bytes.ok()) return bytes.diag();
  auto opened = binio::Reader::from_bytes(std::move(bytes).take());
  if (!opened.ok()) return opened.diag();
  const binio::Reader reader = std::move(opened).take();

  if (!reader.has_section(kSecMeta)) {
    return make_error("snapshot: missing meta section");
  }
  binio::Decoder meta(reader.section(kSecMeta));
  const std::uint32_t payload_version = meta.u32();
  if (meta.ok() && payload_version != kSnapshotPayloadVersion) {
    return make_error("snapshot: payload version " +
                      std::to_string(payload_version) +
                      " unsupported (this build reads " +
                      std::to_string(kSnapshotPayloadVersion) + ")");
  }
  if (!meta.at_end()) return make_error("snapshot: " + meta.error());

  // Any failure past this point rolls the session back to fully cold: a
  // prefix of a snapshot must be indistinguishable from no snapshot.
  const auto rollback = [&] {
    if (cache_) cache_->clear();
    restored_.clear();
  };

  SnapshotStats stats;
  if (cache_) {
    binio::Decoder structural(reader.section(kSecStructural));
    binio::Decoder variant(reader.section(kSecVariant));
    auto counts = cache_->load(structural, variant);
    if (!counts.ok()) {
      rollback();
      return counts.diag();
    }
    stats.structural_entries = counts.value().structural;
    stats.variant_entries = counts.value().variant;
  }

  if (reader.has_section(kSecCalibration)) {
    binio::Decoder calib(reader.section(kSecCalibration));
    const std::uint64_t count = calib.u64();
    if (!calib.fits(count, 8)) {
      rollback();
      return make_error("snapshot: " + calib.error());
    }
    for (std::uint64_t i = 0; i < count; ++i) {
      std::string name = calib.str();
      const std::uint64_t fingerprint = calib.u64();
      auto db = cost::DeviceCostDb::load(calib);
      if (!db.ok()) {
        rollback();
        return db.diag();
      }
      if (!calib.ok()) {
        rollback();
        return make_error("snapshot: " + calib.error());
      }
      restored_.insert_or_assign(
          std::move(name),
          RestoredCalibration{fingerprint, std::move(db).take()});
      ++stats.calibrations;
    }
    if (!calib.at_end()) {
      rollback();
      return make_error("snapshot: " + calib.error());
    }
  }
  // A cache-less session drops the file's entries, so a save would not
  // reproduce a file that has any.
  const bool holds_file = cache_ || (reader.section(kSecStructural).empty() &&
                                     reader.section(kSecVariant).empty());
  if (empty_before && holds_file) {
    clean_ = CleanSnapshot{path, stamp, cache_ ? cache_->generation() : 0};
  }
  return stats;
}

Result<std::uint64_t> Session::save_snapshot(const std::string& path,
                                             bool* wrote) {
  const std::string& target = path.empty() ? options_.snapshot_path : path;
  if (wrote) *wrote = false;
  if (target.empty()) {
    return make_error(
        "snapshot: no path given (set SessionOptions::snapshot_path or pass "
        "one explicitly)");
  }
  if (clean_ && clean_->path == target &&
      (!cache_ || cache_->generation() == clean_->cache_generation)) {
    // The file on disk is still the one loaded: nothing to write.
    const auto now = binio::stat_file(target);
    if (now && *now == clean_->stamp) return now->size;
  }
  if (failpoint::fire("snapshot.save")) {
    return make_error("snapshot: injected fault at failpoint 'snapshot.save'");
  }

  binio::Writer writer;
  binio::Encoder meta;
  meta.u32(kSnapshotPayloadVersion);
  writer.add_section(kSecMeta, meta.take());

  binio::Encoder structural;
  binio::Encoder variant;
  if (cache_) cache_->dump(structural, variant);
  writer.add_section(kSecStructural, structural.take());
  writer.add_section(kSecVariant, variant.take());

  // Claimed calibrations first, then restored-but-unclaimed ones (a job
  // that only exercised one device must not drop the others' calibration
  // work); a name in both tables keeps the live database.
  std::size_t unclaimed = 0;
  for (const auto& [name, rc] : restored_) {
    if (devices_.find(name) == devices_.end()) ++unclaimed;
  }
  binio::Encoder calib;
  calib.u64(devices_.size() + unclaimed);
  for (const auto& [name, db] : devices_) {
    calib.str(name);
    calib.u64(device_fingerprint(db.device()));
    db.save(calib);
  }
  for (const auto& [name, rc] : restored_) {
    if (devices_.find(name) != devices_.end()) continue;
    calib.str(name);
    calib.u64(rc.fingerprint);
    rc.db.save(calib);
  }
  writer.add_section(kSecCalibration, calib.take());

  auto written = writer.write(target);
  if (wrote) *wrote = written.ok();
  return written;
}

Result<SnapshotSummary> verify_snapshot(const std::string& path) {
  auto opened = binio::Reader::open(path);
  if (!opened.ok()) return opened.diag();
  const binio::Reader reader = std::move(opened).take();

  SnapshotSummary out;
  out.format_version = reader.format_version();
  out.file_bytes = reader.file_size();

  if (!reader.has_section(kSecMeta)) {
    return make_error("snapshot: missing meta section");
  }
  binio::Decoder meta(reader.section(kSecMeta));
  out.payload_version = meta.u32();
  if (meta.ok() && out.payload_version != kSnapshotPayloadVersion) {
    return make_error("snapshot: payload version " +
                      std::to_string(out.payload_version) +
                      " unsupported (this build reads " +
                      std::to_string(kSnapshotPayloadVersion) + ")");
  }
  if (!meta.at_end()) return make_error("snapshot: " + meta.error());

  // Decode every cache entry through a scratch cache — the exact walk a
  // warm start performs, so "verify passed" means "a load would succeed".
  CostCache scratch(1);
  binio::Decoder structural(reader.section(kSecStructural));
  binio::Decoder variant(reader.section(kSecVariant));
  auto counts = scratch.load(structural, variant);
  if (!counts.ok()) return counts.diag();
  out.structural_entries = counts.value().structural;
  out.variant_entries = counts.value().variant;

  if (reader.has_section(kSecCalibration)) {
    binio::Decoder calib(reader.section(kSecCalibration));
    const std::uint64_t count = calib.u64();
    if (!calib.fits(count, 8)) return make_error("snapshot: " + calib.error());
    for (std::uint64_t i = 0; i < count; ++i) {
      std::string name = calib.str();
      const std::uint64_t fingerprint = calib.u64();
      auto db = cost::DeviceCostDb::load(calib);
      if (!db.ok()) return db.diag();
      if (!calib.ok()) return make_error("snapshot: " + calib.error());
      out.calibrations.emplace_back(std::move(name), fingerprint);
    }
    if (!calib.at_end()) return make_error("snapshot: " + calib.error());
  }
  return out;
}

Session::ResolvedJob Session::resolve(const Job& job) const {
  if (!job.lower) {
    throw std::invalid_argument("dse::Session: Job::lower is null — nothing "
                                "can materialize the variants");
  }
  if (job.n == 0) {
    throw std::invalid_argument(
        "dse::Session: Job::n (NDRange size) must be >= 1");
  }
  const std::uint32_t max_lanes =
      job.max_lanes != 0 ? job.max_lanes : options_.max_lanes;
  if (max_lanes == 0) {
    throw std::invalid_argument("dse::Session: effective max_lanes is 0");
  }
  const cost::DeviceCostDb* db = job.db;
  if (!db) {
    if (devices_.empty()) {
      throw std::invalid_argument(
          "dse::Session: the job names no database and the device table is "
          "empty — add_device() first");
    }
    if (job.device.empty()) {
      db = &devices_.find(device_order_.front())->second;
    } else {
      db = find_device(job.device);
      if (!db) {
        std::string known;
        for (const auto& name : device_order_) {
          if (!known.empty()) known += ", ";
          known += name;
        }
        throw std::invalid_argument("dse::Session: unknown device '" +
                                    job.device + "' (device table: " + known +
                                    ")");
      }
    }
  }
  return ResolvedJob{db, job.lower.get(), job.n, max_lanes};
}

std::vector<ir::BuildArena>& Session::arenas(std::size_t n) {
  while (arenas_.size() < n) arenas_.emplace_back();
  return arenas_;
}

std::uint32_t Session::max_participants() const {
  return resolve_threads(options_.num_threads,
                         std::numeric_limits<std::size_t>::max());
}

ThreadPool* Session::pool_for(std::uint32_t participants) {
  if (participants <= 1) return nullptr;
  if (!pool_) {
    // Lazily spawn the persistent workers at the session's full clamp
    // (the caller is participant 0, so capacity is one less); batches
    // narrower than the capacity simply draft fewer workers.
    pool_ = std::make_unique<ThreadPool>(max_participants() - 1);
  }
  return pool_.get();
}

DseResult Session::explore(const Job& job, CostCache* cache_override) {
  const ResolvedJob r = resolve(job);
  const auto t0 = std::chrono::steady_clock::now();
  DseResult result;
  std::vector<frontend::Variant> variants =
      frontend::enumerate_variants(r.n, r.max_lanes, job.include_seq);

  std::vector<std::optional<cost::CostReport>> slots(variants.size());
  std::vector<CostCache::HitLevel> levels(variants.size(),
                                          CostCache::HitLevel::Miss);
  std::vector<EvalTarget> targets;
  targets.reserve(variants.size());
  std::vector<EvalTask> tasks;
  tasks.reserve(variants.size());
  for (std::size_t i = 0; i < variants.size(); ++i) {
    targets.push_back(EvalTarget{r.db, i, 0});
    tasks.push_back(EvalTask{&variants[i], r.lower, i, 1});
  }
  CostCache* cache = effective_cache(cache_override);
  const std::uint32_t participants =
      resolve_threads(options_.num_threads, variants.size());
  EvalContext ctx(1, options_.cancel, t0);
  ctx.deadline[0] = job.deadline_seconds > 0 ? job.deadline_seconds
                                             : options_.deadline_seconds;
  ctx.any_deadline = ctx.deadline[0] > 0;
  ctx.job_cancel[0] = job.cancel;
  ctx.any_job_cancel = job.cancel != nullptr;
  evaluate_tasks(tasks, targets, cache, pool_for(participants), participants,
                 arenas(participants), slots, levels, ctx);
  // Single-job semantics: a contained failure surfaces as the original
  // exception (so callers and the legacy shims see exactly what the
  // evaluation threw), an expiry/cancel as its typed error.
  const JobStatus status = finalize_status(ctx, 0, slots, 0, slots.size());
  if (status.state == JobState::Failed) {
    std::rethrow_exception(ctx.record(0).error);
  }
  if (status.state == JobState::TimedOut) {
    throw DeadlineExceeded(ctx.deadline[0]);
  }
  if (status.state == JobState::Cancelled) throw CancelledError();
  if (cache) {
    accumulate_stats(result.cache_stats, levels, slots, 0, levels.size());
  }
  merge_sweep(result, variants, slots, 0);
  result.explore_seconds = seconds_since(t0);
  return result;
}

TuneResult Session::tune(const Job& job, CostCache* cache_override) {
  const ResolvedJob r = resolve(job);
  const double deadline = job.deadline_seconds > 0 ? job.deadline_seconds
                                                   : options_.deadline_seconds;
  return run_tune(r.n, *r.lower, *r.db, job.max_steps, r.max_lanes,
                  effective_cache(cache_override), arenas(1)[0],
                  options_.cancel, job.cancel, deadline,
                  std::chrono::steady_clock::now());
}

cost::CostReport Session::baseline(const Job& job, CostCache* cache_override) {
  const ResolvedJob r = resolve(job);
  if (options_.cancel != nullptr && options_.cancel->cancelled()) {
    throw CancelledError();
  }
  if (job.cancel != nullptr && job.cancel->cancelled()) throw CancelledError();
  const frontend::Variant variant = frontend::baseline_variant(r.n);
  CostCache* cache = effective_cache(cache_override);
  ir::BuildArena& arena = arenas(1)[0];
  if (cache) return cache->cost(variant, *r.lower, *r.db, nullptr, &arena);
  ir::Module module = r.lower->lower(variant, &arena);
  cost::CostReport report = cost::cost_design(module, *r.db);
  arena.recycle(std::move(module));
  return report;
}

CampaignResult Session::run(const Campaign& campaign,
                            CostCache* cache_override) {
  const auto t0 = std::chrono::steady_clock::now();
  CampaignResult out;
  CostCache* cache = effective_cache(cache_override);

  // Validate and enumerate every job before evaluating anything: a bad
  // job fails the campaign up front instead of after most of the work.
  std::vector<ResolvedJob> resolved;
  resolved.reserve(campaign.jobs.size());
  std::vector<std::vector<frontend::Variant>> variants;
  variants.reserve(campaign.jobs.size());
  std::vector<std::size_t> offset(campaign.jobs.size() + 1, 0);
  for (std::size_t j = 0; j < campaign.jobs.size(); ++j) {
    resolved.push_back(resolve(campaign.jobs[j]));
    variants.push_back(frontend::enumerate_variants(
        resolved[j].n, resolved[j].max_lanes, campaign.jobs[j].include_seq));
    offset[j + 1] = offset[j] + variants[j].size();
  }
  const std::size_t total = offset.back();

  // Campaign-wide scheduling: one flattened work list over every job's
  // designs, drained by the shared pool, so a campaign of many small
  // jobs keeps every worker busy instead of parallelizing each job
  // alone. Evaluation runs in two waves. Wave 1 holds one task per
  // *distinct* design — found by its device-free variant key — whose
  // targets are every database that enumerates it, so the design is
  // lowered, digested and summarized once and only the cost model runs
  // per database. A (design, database) pair repeated across jobs is
  // evaluated once, by the first job that enumerates it. Wave 2 runs
  // the repeats after the wave-1 barrier, one target each, so each
  // resolves at the variant-key level against the now-warm cache —
  // exactly the hits the old job-after-job loop produced, which keeps
  // per-job cache stats (and therefore campaign text output)
  // byte-identical across thread counts. Key-less lowerers cannot be
  // grouped before lowering: each of their variants is its own design.
  std::vector<std::optional<cost::CostReport>> slots(total);
  std::vector<CostCache::HitLevel> levels(total, CostCache::HitLevel::Miss);
  struct Design {
    std::optional<VariantKey> key;
    std::size_t head;  ///< first target's slot; next[] chains the rest
    std::size_t tail;
  };
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<Design> designs;
  designs.reserve(total);
  std::vector<EvalTarget> flat;  // by slot
  flat.reserve(total);
  std::vector<std::size_t> next(total, kNone);
  std::vector<std::size_t> repeats;
  // Open-addressed index from variant key to design (linear probing, at
  // most half full): grouping allocates per campaign, not per task.
  const std::size_t mask = std::bit_ceil(2 * total + 1) - 1;
  std::vector<std::size_t> index(mask + 1, kNone);
  for (std::size_t j = 0; j < variants.size(); ++j) {
    for (std::size_t i = 0; i < variants[j].size(); ++i) {
      const std::size_t slot = offset[j] + i;
      flat.push_back(EvalTarget{resolved[j].db, slot, j});
      const std::optional<VariantKey> vk =
          resolved[j].lower->key(variants[j][i]);
      std::size_t* filed = nullptr;
      if (vk) {
        std::size_t h = vk->key & mask;
        while (index[h] != kNone && designs[index[h]].key != vk) {
          h = (h + 1) & mask;
        }
        filed = &index[h];
      }
      if (filed == nullptr || *filed == kNone) {
        if (filed != nullptr) *filed = designs.size();
        designs.push_back(Design{vk, slot, slot});
        continue;
      }
      // Jobs naming the same device-table entry share a DeviceCostDb
      // address, so a database already among the design's targets makes
      // this a repeat; a caller-supplied Job::db that merely equals
      // another database is conservatively treated as distinct.
      Design& d = designs[*filed];
      bool repeat = false;
      for (std::size_t s = d.head; s != kNone && !repeat; s = next[s]) {
        repeat = flat[s].db == resolved[j].db;
      }
      if (repeat) {
        repeats.push_back(slot);
      } else {
        next[d.tail] = slot;
        d.tail = slot;
      }
    }
  }
  std::vector<EvalTarget> targets;
  targets.reserve(total);
  std::vector<EvalTask> wave1;
  wave1.reserve(designs.size());
  for (const Design& d : designs) {
    const std::size_t j = flat[d.head].job;
    const std::size_t first = targets.size();
    for (std::size_t s = d.head; s != kNone; s = next[s]) {
      targets.push_back(flat[s]);
    }
    wave1.push_back(EvalTask{&variants[j][d.head - offset[j]],
                             resolved[j].lower, first, targets.size() - first});
  }
  std::vector<EvalTask> wave2;
  wave2.reserve(repeats.size());
  for (const std::size_t slot : repeats) {
    const std::size_t j = flat[slot].job;
    wave2.push_back(EvalTask{&variants[j][slot - offset[j]],
                             resolved[j].lower, targets.size(), 1});
    targets.push_back(flat[slot]);
  }
  EvalContext ctx(campaign.jobs.size(), options_.cancel, t0);
  for (std::size_t j = 0; j < campaign.jobs.size(); ++j) {
    ctx.deadline[j] = campaign.jobs[j].deadline_seconds > 0
                          ? campaign.jobs[j].deadline_seconds
                          : options_.deadline_seconds;
    if (ctx.deadline[j] > 0) ctx.any_deadline = true;
    ctx.job_cancel[j] = campaign.jobs[j].cancel;
    if (ctx.job_cancel[j] != nullptr) ctx.any_job_cancel = true;
  }
  for (const std::vector<EvalTask>* wave : {&wave1, &wave2}) {
    if (wave->empty()) continue;
    if (options_.cancel != nullptr && options_.cancel->cancelled()) break;
    const std::uint32_t participants =
        resolve_threads(options_.num_threads, wave->size());
    evaluate_tasks(*wave, targets, cache, pool_for(participants),
                   participants, arenas(participants), slots, levels, ctx);
  }
  const double eval_seconds = seconds_since(t0);

  // Per-job merge, stats, best and frontier in enumeration order —
  // byte-identical to running the jobs one at a time. A non-ok job
  // keeps its status (and cache stats for whatever it did evaluate) but
  // presents no entries: a partial sweep is not a result.
  out.jobs.reserve(campaign.jobs.size());
  for (std::size_t j = 0; j < campaign.jobs.size(); ++j) {
    CampaignJobResult jr;
    jr.job = campaign.jobs[j];
    jr.status = finalize_status(ctx, j, slots, offset[j], offset[j + 1]);
    DseResult r;
    if (cache) {
      accumulate_stats(r.cache_stats, levels, slots, offset[j],
                       offset[j + 1]);
      out.cache_stats.hits += r.cache_stats.hits;
      out.cache_stats.misses += r.cache_stats.misses;
      out.cache_stats.variant_hits += r.cache_stats.variant_hits;
    }
    if (jr.status.ok()) merge_sweep(r, variants[j], slots, offset[j]);
    // Jobs were evaluated as one flattened batch; each reports the
    // campaign's shared evaluation wall clock (see CampaignResult docs).
    r.explore_seconds = eval_seconds;
    jr.result = std::move(r);
    out.jobs.push_back(std::move(jr));
  }

  out.pareto = merged_frontier(out.jobs);
  out.campaign_seconds = seconds_since(t0);
  return out;
}

std::vector<CampaignParetoPoint> merged_frontier(
    const std::vector<CampaignJobResult>& jobs) {
  // Restricting the candidates to per-job frontiers is lossless: a point
  // dominated within its own sweep is dominated by one of that sweep's
  // frontier points (dominance is a finite strict partial order), which
  // competes here.
  std::vector<ParetoPoint> candidates;
  std::vector<CampaignParetoPoint> mapping;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    for (const ParetoPoint& p : jobs[j].result.pareto) {
      candidates.push_back(p);
      mapping.push_back(CampaignParetoPoint{j, p});
    }
  }
  const std::vector<bool> keep = detail::skyline_keep(candidates);
  std::vector<CampaignParetoPoint> frontier;
  for (std::size_t i = 0; i < mapping.size(); ++i) {
    if (keep[i]) frontier.push_back(mapping[i]);
  }
  return frontier;
}

// ---------------------------------------------------------------------------
// Internal engine entry points for the legacy shims (explorer.cpp /
// tuner.cpp). Declared in those files, not in any public header.
// ---------------------------------------------------------------------------

namespace detail {

Job borrow_job(std::uint64_t n, const Lowerer& lower,
               const cost::DeviceCostDb& db) {
  Job job;
  job.n = n;
  // Aliasing constructor: the shim borrows the caller's lowerer for the
  // duration of the call without taking ownership.
  job.lower = std::shared_ptr<const Lowerer>(std::shared_ptr<void>{}, &lower);
  job.db = &db;
  return job;
}

Session shim_session(std::uint32_t num_threads) {
  SessionOptions so;
  so.num_threads = num_threads;
  // Legacy semantics: the caller controls caching entirely through
  // DseOptions::cache / the tune cache parameter; the temporary session
  // owns none.
  so.enable_cache = false;
  // Legacy tune never took a lane cap — its walk was bounded only by the
  // historical `next > 1024` guard. The shim pins that cap so the free
  // functions stop at the same step; Session callers get the real
  // resolved cap. (explore is unaffected: its shim sets Job::max_lanes
  // from DseOptions explicitly.) One deliberate wording change: a walk
  // that actually reaches 1024 lanes now stops with the accurate "lane
  // cap reached" verdict instead of the old, false "no further lane
  // count divides the NDRange" — same step count, better diagnosis.
  so.max_lanes = 1024;
  return Session(so);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Campaign rendering
// ---------------------------------------------------------------------------

namespace {

std::string job_label(const Job& job) {
  return job.workload.empty() ? std::string("<custom>") : job.workload;
}

std::string device_label(const Job& job) {
  if (!job.device.empty()) return job.device;
  if (job.db) return job.db->device().name;
  return "<default>";
}

/// JSON number: round-trip precision; non-finite values (which JSON
/// cannot carry) become null. Restores the caller's actual precision —
/// not a hard-coded default — so a caller that configured its stream
/// keeps its formatting after the call.
void json_num(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  const std::streamsize saved = os.precision(17);
  os << v;
  os.precision(saved);
}

void json_cache_stats(std::ostream& os, const CacheStats& s) {
  os << "{\"hits\": " << s.hits << ", \"misses\": " << s.misses
     << ", \"variant_hits\": " << s.variant_hits << "}";
}

void json_entry(std::ostream& os, const DseEntry& e) {
  const auto& u = e.report.resources.util;
  os << "{\"lanes\": " << e.report.params.knl << ", \"valid\": "
     << (e.report.valid ? "true" : "false") << ", \"ekit\": ";
  json_num(os, e.report.throughput.ekit);
  os << ", \"limiting\": \""
     << json::escape(cost::wall_name(e.report.throughput.limiting))
     << "\", \"util\": {\"regs\": ";
  json_num(os, u.regs);
  os << ", \"aluts\": ";
  json_num(os, u.aluts);
  os << ", \"bram\": ";
  json_num(os, u.bram);
  os << ", \"dsps\": ";
  json_num(os, u.dsps);
  os << "}, \"bw_share\": ";
  json_num(os, bandwidth_share(e.report));
  os << "}";
}

void json_pareto_point(std::ostream& os, const ParetoPoint& p,
                       const DseEntry& e) {
  os << "{\"index\": " << p.index << ", \"lanes\": " << e.report.params.knl
     << ", \"ekit\": ";
  json_num(os, p.ekit);
  os << ", \"util_max\": ";
  json_num(os, p.util_max);
  os << ", \"bw_share\": ";
  json_num(os, p.bw_share);
  os << "}";
}

void json_sweep(std::ostream& os, const DseResult& r,
                std::string_view indent) {
  os << "{\n" << indent << "  \"variants\": " << r.entries.size() << ",\n"
     << indent << "  \"explore_seconds\": ";
  json_num(os, r.explore_seconds);
  os << ",\n" << indent << "  \"cache\": ";
  json_cache_stats(os, r.cache_stats);
  os << ",\n" << indent << "  \"best\": ";
  if (r.best) {
    os << *r.best;
  } else {
    os << "null";
  }
  os << ",\n" << indent << "  \"entries\": [";
  for (std::size_t i = 0; i < r.entries.size(); ++i) {
    os << (i ? ",\n" : "\n") << indent << "    ";
    json_entry(os, r.entries[i]);
  }
  os << "\n" << indent << "  ],\n" << indent << "  \"pareto\": [";
  for (std::size_t i = 0; i < r.pareto.size(); ++i) {
    os << (i ? ",\n" : "\n") << indent << "    ";
    json_pareto_point(os, r.pareto[i], r.entries[r.pareto[i].index]);
  }
  os << "\n" << indent << "  ]\n" << indent << "}";
}

}  // namespace

std::string format_campaign(const CampaignResult& result) {
  std::ostringstream os;
  os << tytra::pad_right("workload", 12) << tytra::pad_right("nd", 8)
     << tytra::pad_right("device", 18) << tytra::pad_left("variants", 9)
     << tytra::pad_left("best", 6) << tytra::pad_left("EKIT/s", 12)
     << "  limiting\n";
  for (const auto& jr : result.jobs) {
    os << tytra::pad_right(job_label(jr.job), 12)
       << tytra::pad_right(jr.job.nd ? std::to_string(jr.job.nd) : "-", 8)
       << tytra::pad_right(device_label(jr.job), 18)
       << tytra::pad_left(std::to_string(jr.result.entries.size()), 9);
    if (!jr.status.ok()) {
      // The failure domain's row: status (and its reason) in place of
      // the best-design columns.
      os << tytra::pad_left("-", 6) << tytra::pad_left("-", 12) << "  "
         << job_state_name(jr.status.state);
      if (!jr.status.error.empty()) os << ": " << jr.status.error;
    } else if (const DseEntry* best = jr.result.best_entry()) {
      os << tytra::pad_left(std::to_string(best->report.params.knl), 6)
         << tytra::pad_left(
                tytra::format_fixed(best->report.throughput.ekit, 1), 12)
         << "  " << cost::wall_name(best->report.throughput.limiting);
    } else {
      os << tytra::pad_left("-", 6) << tytra::pad_left("-", 12)
         << "  no valid design";
    }
    os << "\n";
  }
  std::uint64_t variants = 0;
  for (const auto& jr : result.jobs) variants += jr.result.entries.size();
  os << "campaign: " << result.jobs.size() << " jobs, " << variants
     << " evaluations; cache: " << result.cache_stats.hits << " hits ("
     << result.cache_stats.variant_hits << " pre-lowering) / "
     << result.cache_stats.misses << " misses\n";
  // Degradation summary only when something degraded — a fault-free
  // campaign's table is byte-identical to the pre-failure-model output.
  if (const std::size_t degraded = result.degraded(); degraded > 0) {
    std::size_t failed = 0;
    std::size_t timed_out = 0;
    std::size_t cancelled = 0;
    for (const auto& jr : result.jobs) {
      if (jr.status.state == JobState::Failed) ++failed;
      if (jr.status.state == JobState::TimedOut) ++timed_out;
      if (jr.status.state == JobState::Cancelled) ++cancelled;
    }
    os << "degraded: " << degraded << " of " << result.jobs.size()
       << " jobs (failed=" << failed << " timed_out=" << timed_out
       << " cancelled=" << cancelled << ")\n";
  }
  return os.str();
}

std::string format_campaign_pareto(const CampaignResult& result) {
  std::ostringstream os;
  os << tytra::pad_right("workload", 12) << tytra::pad_right("device", 18)
     << tytra::pad_left("lanes", 6) << tytra::pad_left("EKIT/s", 12)
     << tytra::pad_left("util%", 8) << tytra::pad_left("bw-share", 10)
     << "  limiting\n";
  for (const auto& p : result.pareto) {
    const auto& jr = result.jobs[p.job];
    const auto& e = result.entry(p);
    os << tytra::pad_right(job_label(jr.job), 12)
       << tytra::pad_right(device_label(jr.job), 18)
       << tytra::pad_left(std::to_string(e.report.params.knl), 6)
       << tytra::pad_left(tytra::format_fixed(p.point.ekit, 1), 12)
       << tytra::pad_left(tytra::format_fixed(p.point.util_max, 1), 8)
       << tytra::pad_left(tytra::format_fixed(p.point.bw_share, 3), 10)
       << "  " << cost::wall_name(e.report.throughput.limiting) << "\n";
  }
  std::size_t frontier_in = 0;
  for (const auto& jr : result.jobs) frontier_in += jr.result.pareto.size();
  os << "merged frontier: " << result.pareto.size() << " of " << frontier_in
     << " per-job frontier points\n";
  return os.str();
}

std::string format_sweep_json(const DseResult& result) {
  std::ostringstream os;
  json_sweep(os, result, "");
  os << "\n";
  return os.str();
}

std::string format_tune_json(const TuneResult& result) {
  std::ostringstream os;
  os << "{\n  \"steps\": [";
  for (std::size_t i = 0; i < result.trajectory.size(); ++i) {
    const auto& s = result.trajectory[i];
    os << (i ? ",\n" : "\n") << "    {\"step\": " << i << ", \"lanes\": "
       << s.report.params.knl << ", \"valid\": "
       << (s.report.valid ? "true" : "false") << ", \"ekit\": ";
    json_num(os, s.report.throughput.ekit);
    os << ", \"limiting\": \""
       << json::escape(cost::wall_name(s.report.throughput.limiting))
       << "\", \"action\": \"" << json::escape(s.action) << "\"}";
  }
  os << "\n  ],\n  \"best\": ";
  if (result.best) {
    os << *result.best;
  } else {
    // No valid step (empty trajectory, or nothing fit the device): the
    // old encoding leaked the default index 0 here, presenting an
    // invalid design as best.
    os << "null";
  }
  os << ",\n  \"verdict\": \"" << json::escape(result.verdict) << "\"\n}\n";
  return os.str();
}

std::string format_campaign_json(const CampaignResult& result) {
  std::ostringstream os;
  os << "{\n  \"campaign\": {\n    \"jobs\": [";
  for (std::size_t j = 0; j < result.jobs.size(); ++j) {
    const auto& jr = result.jobs[j];
    os << (j ? ",\n" : "\n") << "      {\"workload\": \""
       << json::escape(job_label(jr.job)) << "\", \"nd\": " << jr.job.nd
       << ", \"n\": " << jr.job.n << ", \"device\": \""
       << json::escape(device_label(jr.job)) << "\", \"status\": \""
       << job_state_name(jr.status.state) << "\"";
    if (!jr.status.ok()) {
      os << ", \"error\": \"" << json::escape(jr.status.error)
         << "\", \"evaluated\": " << jr.status.evaluated
         << ", \"faults\": " << jr.status.faults
         << ", \"skipped\": " << jr.status.skipped;
    }
    os << ", \"sweep\": ";
    json_sweep(os, jr.result, "      ");
    os << "}";
  }
  os << "\n    ],\n    \"pareto\": [";
  for (std::size_t i = 0; i < result.pareto.size(); ++i) {
    const auto& p = result.pareto[i];
    const auto& jr = result.jobs[p.job];
    os << (i ? ",\n" : "\n") << "      {\"job\": " << p.job
       << ", \"workload\": \"" << json::escape(job_label(jr.job))
       << "\", \"device\": \"" << json::escape(device_label(jr.job))
       << "\", ";
    // Reuse the per-sweep point shape for the point fields.
    std::ostringstream point;
    json_pareto_point(point, p.point, result.entry(p));
    const std::string text = point.str();
    os << text.substr(1);  // drop the '{' — fields merge into this object
  }
  os << "\n    ],\n    \"cache\": ";
  json_cache_stats(os, result.cache_stats);
  os << ",\n    \"degraded\": " << result.degraded();
  os << ",\n    \"seconds\": ";
  json_num(os, result.campaign_seconds);
  os << "\n  }\n}\n";
  return os.str();
}

}  // namespace tytra::dse
