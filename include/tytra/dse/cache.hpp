#pragma once

// Memoizing cost-model cache for repeated sweeps. The explorer, the
// tuner and the benches all evaluate overlapping variant sets (tuner
// trajectories revisit sweep points; bench reruns and multi-device
// surveys re-cost whole families); one shared CostCache makes every
// repeat evaluation a lookup instead of a cost-model run.
//
// Identity is two-level:
//
//  1. Variant key (fast path, optional): when the caller lowers through a
//     Lowerer that can name its designs (dse::KeyedLowerer), the cache is
//     consulted with kernel-identity + variant-shape + device fingerprint
//     BEFORE any IR exists. A hit returns the memoized report without
//     lowering at all — the warm-sweep path drops from "materialize a
//     module, walk it, hash it" to "hash a dozen integers, probe a table".
//  2. Structural digest (ground truth): on a variant-key miss (or for
//     key-less lowerers) the variant is lowered and the lookup keys on
//     the device fingerprint plus the streamed 128-bit structural digest
//     of the module (`ir::structural_digest`) — the authoritative design
//     identity, independent of which lowerer produced the module. That
//     (device, digest) pair is the whole identity: entries hold only
//     their report, and no IR is printed or stored. Debug builds
//     cross-check both levels: every variant-key hit re-lowers and
//     verifies the structural digest the key was first inserted under,
//     and every structural hit on an entry this process computed
//     byte-compares the probe's printed IR with the text kept at insert
//     (snapshot-restored entries carry none).
//
// Only the cost-model run depends on the database. A multi-target lookup
// costs one design against several databases (a campaign's devices): it
// lowers, digests and summarizes the design at most once and runs only
// `cost_design` per database whose entry is missing; the single-database
// lookup is its one-target case.
//
// Reads are lock-free: each level is a sharded open-addressed table whose
// slots hold atomically published pointers to immutable entries, so N
// workers hammering a warm cache scale linearly instead of serializing on
// shard mutexes. A mutex is taken only to insert (and the cost-model run
// itself always happens outside it). clear() is the one exception: it
// frees entries and must not race with concurrent cost() calls.

#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <span>

#include "tytra/cost/report.hpp"
#include "tytra/dse/lowerer.hpp"
#include "tytra/support/binio.hpp"
#include "tytra/target/device.hpp"

namespace tytra::dse {

struct CacheStats {
  /// Lookups served from the cache at either level. `variant_hits` is the
  /// subset answered by the pre-lowering variant-key table (the only hits
  /// that skip IR materialization); `hits - variant_hits` were answered
  /// by the structural-digest level after lowering.
  std::uint64_t hits{0};
  std::uint64_t misses{0};
  std::uint64_t variant_hits{0};

  [[nodiscard]] std::uint64_t lookups() const { return hits + misses; }
};

/// Canonical key for costing `module` against `db`: the primary half of
/// the streamed (device, structure) digest. Cheap relative to a cost-model
/// run — one allocation-free module walk, no IR printing, no parameter
/// extraction.
std::uint64_t design_key(const ir::Module& module, const cost::DeviceCostDb& db);

/// Fingerprint of every DeviceDesc field a cost report can depend on.
/// Calibration is deterministic in the device description, so this value
/// pins every law and table the cost model reads. It is folded into both
/// cache levels' keys (making stale snapshot entries unreachable rather
/// than filtered) and stored beside persisted calibrations as their
/// invalidation key.
std::uint64_t device_fingerprint(const target::DeviceDesc& device);

/// Thread-safe memoization of cost::cost_design.
class CostCache {
 public:
  static constexpr std::size_t kMinDefaultShards = 16;

  /// Which level answered a two-level lookup.
  enum class HitLevel : std::uint8_t {
    Miss,        ///< cost model ran
    Structural,  ///< lowered, then hit on the structural digest
    Variant,     ///< hit on the variant key — no lowering happened
  };

  /// One database a multi-target lookup costs the design against, and
  /// what the lookup found for it. `db` is the input; the other fields
  /// are outputs and must start empty.
  struct Target {
    const cost::DeviceCostDb* db{nullptr};
    /// The design's report on `db`; unset when `error` is set, or when
    /// the lookup threw before reaching this target.
    std::optional<cost::CostReport> report{};
    /// Which level answered; meaningful only when `report` is set.
    HitLevel level{HitLevel::Miss};
    /// What this target's own cost-model run threw, if it did.
    std::exception_ptr error{};
  };

  /// `shards` sets the insert-lock granularity of each level (clamped to
  /// >= 1). Reads never lock, so the shard count no longer bounds how
  /// many workers a warm cache can serve; it only spreads insert
  /// contention on cold sweeps. The default (0) auto-sizes to
  /// max(kMinDefaultShards, hardware threads).
  explicit CostCache(std::size_t shards = 0);
  ~CostCache();

  CostCache(const CostCache&) = delete;
  CostCache& operator=(const CostCache&) = delete;

  /// Structural-level lookup: returns the cached report for `module` on
  /// `db`, or runs the cost model and remembers the result. Safe to call
  /// concurrently; the read path takes no lock. Lookups verify the full
  /// 128-bit digest, so a 64-bit key collision degrades to a
  /// recomputation instead of returning another design's report. When
  /// `was_hit` is non-null it receives this lookup's outcome (for
  /// per-sweep accounting independent of the global counters).
  cost::CostReport cost(const ir::Module& module, const cost::DeviceCostDb& db,
                        bool* was_hit = nullptr);

  /// Two-level lookup: consults the variant-key table first (when
  /// `lowerer` provides keys) and only lowers + runs the structural level
  /// on a miss, memoizing the variant key so the next warm lookup skips
  /// lowering entirely. `arena` is optional per-worker builder scratch
  /// handed to `lowerer.lower`; modules lowered internally are recycled
  /// into it. When `level` is non-null it receives which level answered.
  /// The one-target case of the multi-target lookup below; rethrows the
  /// cost model's exception.
  cost::CostReport cost(const frontend::Variant& variant, const Lowerer& lowerer,
                        const cost::DeviceCostDb& db, HitLevel* level = nullptr,
                        ir::BuildArena* arena = nullptr);

  /// Multi-target two-level lookup: costs one design against every
  /// target's database. Each target first probes the variant-key table;
  /// only if some target misses there is the variant lowered, digested
  /// and (on a structural miss) summarized — once for all targets — and
  /// `cost_design` run per structural miss. Both levels are memoized per
  /// target, and each target's HitLevel is what a one-target lookup in
  /// the same order would report. A throw from the shared work (lowering,
  /// digest, summarize) propagates, leaving unset the report of every
  /// target that needed it; a throw from one target's cost-model run is
  /// caught into that target's `error` and the other targets proceed.
  void cost(const frontend::Variant& variant, const Lowerer& lowerer,
            std::span<Target> targets, ir::BuildArena* arena = nullptr);

  [[nodiscard]] CacheStats stats() const;
  /// Number of memoized designs (structural-level entries).
  [[nodiscard]] std::size_t size() const;
  /// Number of memoized variant keys (fast-path entries).
  [[nodiscard]] std::size_t variant_size() const;
  [[nodiscard]] std::size_t shard_count() const;

  /// Monotonic mutation count: bumped by every insert that publishes a
  /// new entry at either level (load() included) and by every clear(). An
  /// insert that finds the entry already resident does not count, so an
  /// unchanged generation means the cache holds exactly what it held —
  /// what lets a session skip re-saving a snapshot it loaded.
  [[nodiscard]] std::uint64_t generation() const;

  /// Drops every entry and resets the counters. NOT safe to run
  /// concurrently with cost() — entries are freed, and a lock-free reader
  /// could still be probing them. Debug builds enforce this: clear() with
  /// a cost() call in flight aborts with a diagnostic instead of racing.
  void clear();

  /// Serializes every entry of each level into a snapshot payload stream
  /// (entries back to back until the end of the payload; no count prefix,
  /// so a dump concurrent with inserts is merely a consistent-at-lock
  /// sample). A structural entry is (key, check, report); a variant entry
  /// is (key, check, design digest, report). Keys are stored as-is — the
  /// device fingerprint is already folded in, which is what makes
  /// persisted entries self-invalidating: after a device or digest-scheme
  /// change the old keys are simply never probed.
  void dump(binio::Encoder& structural_out, binio::Encoder& variant_out) const;

  /// Entry counts restored by load().
  struct LoadCounts {
    std::size_t structural{0};
    std::size_t variant{0};
  };

  /// Restores entries produced by dump(). Requires the same quiescence as
  /// clear() (enforced in debug builds): the table is being repopulated
  /// wholesale at construction/attach time, not shared yet. On a decode
  /// error the cache may hold a prefix of the snapshot's entries — every
  /// one individually valid — and the caller decides whether to keep or
  /// clear() them. Never throws; never trusts lengths or enum values.
  Result<LoadCounts> load(binio::Decoder& structural_in,
                          binio::Decoder& variant_in);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tytra::dse
