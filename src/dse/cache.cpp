#include "tytra/dse/cache.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "tytra/ir/analysis.hpp"
#include "tytra/ir/structural_hash.hpp"
#include "tytra/support/failpoint.hpp"
#include "tytra/support/hash.hpp"
#include "tytra/support/thread_annotations.hpp"

#ifndef NDEBUG
#include "tytra/ir/printer.hpp"
#endif

namespace tytra::dse {

namespace {

/// Every DeviceDesc field a cost report can depend on — two databases
/// calibrated from devices with equal fingerprints produce equal reports,
/// even when a .tgt file is edited under an unchanged device name.
/// Calibration is deterministic in the device description, so this
/// fingerprint pins every law and table the cost model reads; nothing
/// else about the database needs to enter the cache identity.
void hash_device(HashBuilder& h, const target::DeviceDesc& dev) {
  h.str(dev.name)
      .str(dev.family)
      .u64(dev.resources.aluts)
      .u64(dev.resources.regs)
      .u64(dev.resources.bram_bits)
      .u64(dev.resources.dsps)
      .f64(dev.fmax_hz)
      .f64(dev.default_freq_hz)
      .f64(dev.dram.io_clock_hz)
      .f64(dev.dram.bus_bytes)
      .f64(dev.dram.burst_bytes)
      .f64(dev.dram.row_bytes)
      .f64(dev.dram.row_miss_cycles)
      .f64(dev.dram.setup_seconds)
      .f64(dev.dram_peak_bw)
      .f64(dev.host.peak_bw)
      .f64(dev.host.efficiency)
      .f64(dev.host.latency_seconds)
      .u64(dev.word_bytes)
      .f64(dev.shell_overhead);
}

/// Folds the device fingerprint `dev` into both halves of a device-free
/// 128-bit identity (a variant key or a structural digest): the same
/// design costed against different calibrations must not cross-hit.
template <typename Digest>
Digest fold_device(const Digest& d, std::uint64_t dev) {
  return {HashBuilder{}.u64(dev).u64(d.key).value(),
          HashBuilder{}.u64(dev).u64(d.check).value()};
}

/// One lowered design and the device-independent work on it: the
/// structural walk, the analysis summary and (debug builds) the printed
/// IR, each done at most once however many databases the design is
/// costed against.
class LoweredDesign {
 public:
  explicit LoweredDesign(const ir::Module& module)
      : module_(module), structure_(ir::structural_digest(module)) {}

  [[nodiscard]] const ir::Module& module() const { return module_; }

  /// The 128-bit identity of this design on the device `dev` (a device
  /// fingerprint): the structural-level key.
  [[nodiscard]] ir::StructuralDigest digest(std::uint64_t dev) const {
    return fold_device(structure_, dev);
  }

  const ir::AnalysisSummary& summary() {
    if (!summary_) summary_.emplace(ir::summarize(module_));
    return *summary_;
  }

#ifndef NDEBUG
  const std::string& printed() {
    if (!printed_) printed_ = ir::print_module(module_);
    return *printed_;
  }
#endif

 private:
  const ir::Module& module_;
  ir::StructuralDigest structure_;
  std::optional<ir::AnalysisSummary> summary_;
#ifndef NDEBUG
  std::optional<std::string> printed_;
#endif
};

}  // namespace

std::uint64_t device_fingerprint(const target::DeviceDesc& dev) {
  HashBuilder h;
  hash_device(h, dev);
  return h.value();
}

std::uint64_t design_key(const ir::Module& module, const cost::DeviceCostDb& db) {
  return fold_device(ir::structural_digest(module),
                     device_fingerprint(db.device()))
      .key;
}

namespace {

std::size_t resolve_shards(std::size_t requested) {
  if (requested > 0) return requested;
  return std::max<std::size_t>(CostCache::kMinDefaultShards,
                               std::thread::hardware_concurrency());
}

/// Open-addressed hash table with lock-free reads. Slots hold atomic
/// pointers to heap-allocated immutable nodes; a node, once published
/// with a release store, is never mutated, moved or freed until clear()
/// (so a reader can dereference whatever it loads). Inserts serialize on
/// a per-shard mutex. Growth publishes a bigger slot array and RETAINS
/// the old one: a reader still probing a retired array sees a consistent
/// (if stale) view, at worst misses an entry that only the newer array
/// holds, and the resulting recompute-and-insert finds the resident node
/// under the mutex. The identity is the full (key, check) 128-bit pair —
/// probing continues past a slot whose check half disagrees, so two
/// designs colliding on the 64-bit key coexist instead of thrashing.
template <typename V>
class AtomicTable {
 public:
  struct Node {
    std::uint64_t key;
    std::uint64_t check;
    V value;
  };

  explicit AtomicTable(std::size_t shards) : shards_(shards) {}

  /// Lock-free: one acquire load of the live slot array, then a linear
  /// probe of acquire-loaded slots. Returns null on a miss.
  const Node* find(std::uint64_t key, std::uint64_t check) const {
    const Shard& shard = shards_[key % shards_.size()];
    const Slots* t = shard.live.load(std::memory_order_acquire);
    return probe(*t, key, check);
  }

  /// Publishes (key, check, value) unless an equal identity is already
  /// resident — another writer won the race, or the caller probed a
  /// retired slot array. Returns whether a new node was published.
  bool insert(std::uint64_t key, std::uint64_t check, V&& value) {
    Shard& shard = shards_[key % shards_.size()];
    MutexLock lock(shard.mu);
    Slots* t = shard.live.load(std::memory_order_relaxed);
    if (probe(*t, key, check) != nullptr) return false;
    // Keep load factor under 70% so probe chains always end on a null.
    if ((shard.size + 1) * 10 > t->slot.size() * 7) t = grow(shard, t);
    shard.nodes.push_back(
        std::make_unique<Node>(Node{key, check, std::move(value)}));
    publish(*t, shard.nodes.back().get());
    ++shard.size;
    return true;
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const Shard& s : shards_) {
      MutexLock lock(s.mu);
      n += s.size;
    }
    return n;
  }

  /// Visits every resident node, one shard at a time under that shard's
  /// insert lock. Safe concurrent with cost(): readers never take the
  /// lock, and inserts landing in already-visited shards are simply not
  /// part of this sample.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Shard& s : shards_) {
      MutexLock lock(s.mu);
      for (const auto& node : s.nodes) fn(*node);
    }
  }

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// Frees every node and slot array. Requires external quiescence: a
  /// concurrent lock-free reader could still be probing the freed memory.
  void clear() {
    for (Shard& s : shards_) {
      MutexLock lock(s.mu);
      auto fresh = std::make_unique<Slots>(kInitialSlots);
      s.live.store(fresh.get(), std::memory_order_release);
      s.tables.clear();
      s.tables.push_back(std::move(fresh));
      s.nodes.clear();
      s.size = 0;
    }
  }

 private:
  static constexpr std::size_t kInitialSlots = 64;  // power of two

  struct Slots {
    explicit Slots(std::size_t n) : slot(n) {}  // atomics value-init to null
    std::vector<std::atomic<Node*>> slot;
  };

  struct Shard {
    Shard() {
      tables.push_back(std::make_unique<Slots>(kInitialSlots));
      live.store(tables.back().get(), std::memory_order_relaxed);
    }
    std::atomic<Slots*> live{nullptr};
    mutable tytra::Mutex mu;            ///< guards everything below
    std::size_t size TYTRA_GUARDED_BY(mu){0};
    /// Every slot-array generation ever published. Retired arrays are
    /// kept until clear()/destruction so readers holding them stay safe;
    /// geometric growth bounds the total at ~2x the live array.
    std::vector<std::unique_ptr<Slots>> tables TYTRA_GUARDED_BY(mu);
    std::vector<std::unique_ptr<Node>> nodes TYTRA_GUARDED_BY(mu);  ///< owns the entries
  };

  static const Node* probe(const Slots& t, std::uint64_t key,
                           std::uint64_t check) {
    const std::size_t mask = t.slot.size() - 1;
    for (std::size_t i = key & mask;; i = (i + 1) & mask) {
      const Node* n = t.slot[i].load(std::memory_order_acquire);
      if (n == nullptr) return nullptr;
      if (n->key == key && n->check == check) return n;
    }
  }

  static void publish(Slots& t, Node* node) {
    const std::size_t mask = t.slot.size() - 1;
    for (std::size_t i = node->key & mask;; i = (i + 1) & mask) {
      if (t.slot[i].load(std::memory_order_relaxed) == nullptr) {
        t.slot[i].store(node, std::memory_order_release);
        return;
      }
    }
  }

  Slots* grow(Shard& shard, Slots* old) TYTRA_REQUIRES(shard.mu) {
    auto bigger = std::make_unique<Slots>(old->slot.size() * 2);
    for (const auto& s : old->slot) {
      Node* n = s.load(std::memory_order_relaxed);
      if (n != nullptr) publish(*bigger, n);
    }
    Slots* fresh = bigger.get();
    shard.tables.push_back(std::move(bigger));
    // Publish the bigger array only after its slots are fully written;
    // readers acquire-load `live` and synchronize with this store.
    shard.live.store(fresh, std::memory_order_release);
    return fresh;
  }

  std::vector<Shard> shards_;
};

}  // namespace

struct CostCache::Impl {
  /// Structural-level entry: the memoized report. Its identity is the
  /// (device ⊕ structural digest) pair the table keys on; nothing else is
  /// stored or persisted.
  struct StructuralValue {
    cost::CostReport report;
#ifndef NDEBUG
    /// Debug builds only: the printed IR of a design this process
    /// computed, byte-compared against the probe on every hit. Entries
    /// restored from a snapshot carry none (empty).
    std::string identity{};
#endif
  };

  /// Variant-level entry: the design digest it was inserted under (the
  /// cross-check target for debug builds) plus the memoized report.
  struct VariantValue {
    ir::StructuralDigest design;
    cost::CostReport report;
  };

  /// Padded per-shard counters so hit accounting does not ping-pong one
  /// cache line between warm workers.
  struct alignas(64) Counter {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> variant_hits{0};
  };

  explicit Impl(std::size_t shards)
      : structural(shards), variant(shards), counters(shards) {}

  Counter& counter(std::uint64_t key) { return counters[key % counters.size()]; }

  /// Counts an insert toward generation() when it published a new entry.
  void count_insert(bool published) {
    if (published) ++generation;
  }

  /// Resolves `t` at the structural level under `digest` (the design's
  /// identity on t.db): a hit, or the cost model run and memoized. A
  /// throw from the design's shared summary propagates; one from
  /// t.db's cost-model run lands in t.error.
  void cost_structural(LoweredDesign& design,
                       const ir::StructuralDigest& digest, Target& t);

  AtomicTable<StructuralValue> structural;
  AtomicTable<VariantValue> variant;
  std::vector<Counter> counters;
  /// See CostCache::generation(). Bumped only by publishing inserts and
  /// clear(), never on the lock-free hit path.
  std::atomic<std::uint64_t> generation{0};

#ifndef NDEBUG
  /// Debug-build enforcement of the clear()/load() quiescence contract:
  /// cost() calls register here, and the destructive operations abort
  /// with a diagnostic when any are in flight instead of silently racing
  /// a lock-free reader against freed entries.
  std::atomic<int> active_readers{0};

  struct ReaderGuard {
    explicit ReaderGuard(std::atomic<int>& count) : count_(count) {
      count_.fetch_add(1, std::memory_order_acq_rel);
    }
    ~ReaderGuard() { count_.fetch_sub(1, std::memory_order_acq_rel); }
    std::atomic<int>& count_;
  };
#endif

  void require_quiescent(const char* operation) const {
#ifndef NDEBUG
    const int readers = active_readers.load(std::memory_order_acquire);
    if (readers != 0) {
      std::fprintf(stderr,
                   "tytra: fatal: CostCache::%s() called with %d cost() "
                   "call(s) in flight; %s() frees entries lock-free readers "
                   "may still be probing and requires quiescence (see "
                   "include/tytra/dse/cache.hpp)\n",
                   operation, readers, operation);
      std::abort();
    }
#else
    (void)operation;
#endif
  }
};

CostCache::CostCache(std::size_t shards)
    : impl_(std::make_unique<Impl>(resolve_shards(shards))) {}

CostCache::~CostCache() = default;

void CostCache::Impl::cost_structural(LoweredDesign& design,
                                      const ir::StructuralDigest& digest,
                                      Target& t) {
  if (const auto* node = structural.find(digest.key, digest.check)) {
#ifndef NDEBUG
    // Debug builds audit the digest against the IR it condenses: a digest
    // match on an entry this process computed must mean byte-identical
    // printed IR. Restored entries carry no text to compare.
    assert(node->value.identity.empty() ||
           node->value.identity == design.printed());
#endif
    counter(digest.key).hits.fetch_add(1, std::memory_order_relaxed);
    t.report = node->value.report;
    t.level = HitLevel::Structural;
    return;
  }
  counter(digest.key).misses.fetch_add(1, std::memory_order_relaxed);
  t.level = HitLevel::Miss;
  // Cost outside the lock: the model run dominates, and concurrent misses
  // on the same key merely compute the same report twice. The summary is
  // built once per design and shared across every model stage and every
  // database.
  const ir::AnalysisSummary& summary = design.summary();
  try {
    t.report = cost::cost_design(design.module(), *t.db, summary);
  } catch (...) {
    t.error = std::current_exception();
    return;
  }
  // A failed insert (the `cache.insert` failpoint stands in for
  // allocation/grow failure) degrades to a lost memoization, never a lost
  // or torn result: the report was already computed, and an entry is
  // only ever published whole.
  if (!failpoint::fire("cache.insert")) {
    Impl::StructuralValue value{*t.report};
#ifndef NDEBUG
    value.identity = design.printed();
#endif
    count_insert(structural.insert(digest.key, digest.check, std::move(value)));
  }
}

cost::CostReport CostCache::cost(const ir::Module& module,
                                 const cost::DeviceCostDb& db, bool* was_hit) {
#ifndef NDEBUG
  Impl::ReaderGuard guard(impl_->active_readers);
#endif
  LoweredDesign design(module);
  Target t{&db};
  impl_->cost_structural(design, design.digest(device_fingerprint(db.device())),
                         t);
  if (t.error) std::rethrow_exception(t.error);
  if (was_hit) *was_hit = t.level == HitLevel::Structural;
  return std::move(*t.report);
}

cost::CostReport CostCache::cost(const frontend::Variant& variant,
                                 const Lowerer& lowerer,
                                 const cost::DeviceCostDb& db, HitLevel* level,
                                 ir::BuildArena* arena) {
  Target t{&db};
  cost(variant, lowerer, std::span<Target>(&t, 1), arena);
  if (t.error) std::rethrow_exception(t.error);
  if (level) *level = t.level;
  return std::move(*t.report);
}

void CostCache::cost(const frontend::Variant& variant, const Lowerer& lowerer,
                     std::span<Target> targets, ir::BuildArena* arena) {
#ifndef NDEBUG
  Impl::ReaderGuard guard(impl_->active_readers);
#endif
  if (targets.empty()) return;
  // The variant level first, per target: a target it answers needs no IR.
  const std::optional<VariantKey> vk = lowerer.key(variant);
  bool any_miss = !vk;
  if (vk) {
    for (Target& t : targets) {
      const VariantKey full =
          fold_device(*vk, device_fingerprint(t.db->device()));
      const auto* node = impl_->variant.find(full.key, full.check);
      if (node == nullptr) {
        any_miss = true;
        continue;
      }
      Impl::Counter& c = impl_->counter(full.key);
      c.hits.fetch_add(1, std::memory_order_relaxed);
      c.variant_hits.fetch_add(1, std::memory_order_relaxed);
      t.report = node->value.report;
      t.level = HitLevel::Variant;
    }
  }
#ifdef NDEBUG
  if (!any_miss) return;
#else
  (void)any_miss;  // debug builds lower anyway, for the cross-check below
#endif
  // Some target missed (or the lowerer is key-less): lower and walk the
  // structure once, resolve each such target at the structural level,
  // then memoize its variant key so the next warm lookup skips lowering
  // entirely.
  ir::Module module = lowerer.lower(variant, arena);
  LoweredDesign design(module);
  for (Target& t : targets) {
    if (t.level == HitLevel::Variant) continue;
    const std::uint64_t dev = device_fingerprint(t.db->device());
    const ir::StructuralDigest digest = design.digest(dev);
    impl_->cost_structural(design, digest, t);
    if (vk && t.report && !failpoint::fire("cache.insert")) {
      const VariantKey full = fold_device(*vk, dev);
      impl_->count_insert(impl_->variant.insert(
          full.key, full.check, Impl::VariantValue{digest, *t.report}));
    }
  }
#ifndef NDEBUG
  // Two-level cross-check, once per design: the lowerer's identity
  // promise must agree with the authoritative structural digest each
  // variant-level hit was inserted under.
  for (const Target& t : targets) {
    if (t.level != HitLevel::Variant) continue;
    const std::uint64_t dev = device_fingerprint(t.db->device());
    const VariantKey full = fold_device(*vk, dev);
    const auto* node = impl_->variant.find(full.key, full.check);
    assert(node != nullptr && node->value.design == design.digest(dev));
  }
#endif
  if (arena) arena->recycle(std::move(module));
}

CacheStats CostCache::stats() const {
  CacheStats out;
  for (const Impl::Counter& c : impl_->counters) {
    out.hits += c.hits.load(std::memory_order_relaxed);
    out.misses += c.misses.load(std::memory_order_relaxed);
    out.variant_hits += c.variant_hits.load(std::memory_order_relaxed);
  }
  return out;
}

std::size_t CostCache::size() const { return impl_->structural.size(); }

std::size_t CostCache::variant_size() const { return impl_->variant.size(); }

std::size_t CostCache::shard_count() const {
  return impl_->structural.shard_count();
}

std::uint64_t CostCache::generation() const {
  return impl_->generation.load();
}

void CostCache::clear() {
  impl_->require_quiescent("clear");
  impl_->structural.clear();
  impl_->variant.clear();
  ++impl_->generation;
  for (Impl::Counter& c : impl_->counters) {
    c.hits.store(0, std::memory_order_relaxed);
    c.misses.store(0, std::memory_order_relaxed);
    c.variant_hits.store(0, std::memory_order_relaxed);
  }
}

void CostCache::dump(binio::Encoder& structural_out,
                     binio::Encoder& variant_out) const {
  // Pre-size both streams so a dump is written once instead of regrown by
  // appends: every report is sized like the first (they differ only in
  // their name and per-function strings), plus an eighth for that
  // variation.
  std::size_t report_bytes = 0;
  impl_->structural.for_each([&](const auto& node) {
    if (report_bytes != 0) return;
    binio::Encoder probe;
    cost::save_report(probe, node.value.report);
    report_bytes = probe.bytes().size() * 9 / 8;
  });
  structural_out.reserve(size() * (2 * 8 + report_bytes));
  variant_out.reserve(variant_size() * (4 * 8 + report_bytes));

  impl_->structural.for_each([&](const auto& node) {
    structural_out.u64(node.key);
    structural_out.u64(node.check);
    cost::save_report(structural_out, node.value.report);
  });
  impl_->variant.for_each([&](const auto& node) {
    variant_out.u64(node.key);
    variant_out.u64(node.check);
    variant_out.u64(node.value.design.key);
    variant_out.u64(node.value.design.check);
    cost::save_report(variant_out, node.value.report);
  });
}

Result<CostCache::LoadCounts> CostCache::load(binio::Decoder& structural_in,
                                              binio::Decoder& variant_in) {
  impl_->require_quiescent("load");
  LoadCounts counts;
  while (structural_in.ok() && structural_in.remaining() > 0) {
    const std::uint64_t key = structural_in.u64();
    const std::uint64_t check = structural_in.u64();
    cost::CostReport report = cost::load_report(structural_in);
    if (!structural_in.ok()) break;
    impl_->count_insert(impl_->structural.insert(
        key, check, Impl::StructuralValue{std::move(report)}));
    ++counts.structural;
  }
  if (!structural_in.ok()) {
    return make_error("cost-cache snapshot (structural level): " +
                      structural_in.error());
  }
  while (variant_in.ok() && variant_in.remaining() > 0) {
    const std::uint64_t key = variant_in.u64();
    const std::uint64_t check = variant_in.u64();
    ir::StructuralDigest design;
    design.key = variant_in.u64();
    design.check = variant_in.u64();
    cost::CostReport report = cost::load_report(variant_in);
    if (!variant_in.ok()) break;
    impl_->count_insert(impl_->variant.insert(
        key, check, Impl::VariantValue{design, std::move(report)}));
    ++counts.variant;
  }
  if (!variant_in.ok()) {
    return make_error("cost-cache snapshot (variant level): " +
                      variant_in.error());
  }
  return counts;
}

}  // namespace tytra::dse
