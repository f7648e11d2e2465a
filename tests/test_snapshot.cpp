// Persistence-layer tests: the binio container's corruption-detection
// contract (every truncation and every single-bit flip is detected; writes
// are atomic), exact round-trips of cost reports, calibrated databases and
// the two-level cost cache, and the Session snapshot path — warm starts
// byte-identical to cold runs, every failure mode degrading to a cold
// start (an older payload version included), clean saves that leave an
// unchanged file alone (and every change that forces a full write), and
// the debug-build quiescence guard on CostCache::clear().

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "tytra/dse/session.hpp"
#include "tytra/frontend/transform.hpp"
#include "tytra/kernels/registry.hpp"
#include "tytra/support/binio.hpp"

namespace {

using namespace tytra;
using kernels::Registry;

std::string read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A unique scratch path in the ctest working directory, removed on
/// construction (a crashed earlier run may have left it) and destruction.
struct TempPath {
  explicit TempPath(const std::string& tag)
      : path(tag + "_" + std::to_string(counter()++) + ".snap") {
    std::remove(path.c_str());
  }
  ~TempPath() {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }
  static int& counter() {
    static int n = 0;
    return n;
  }
  std::string path;
};

const cost::DeviceCostDb& preset_db(const std::string& name) {
  static std::map<std::string, cost::DeviceCostDb> dbs;
  const auto it = dbs.find(name);
  if (it != dbs.end()) return it->second;
  return dbs.emplace(name, cost::DeviceCostDb::calibrate(*target::preset(name)))
      .first->second;
}

dse::Job registry_job(const char* workload, std::uint32_t nd) {
  auto job = Registry::instance().make_job(workload, nd);
  EXPECT_TRUE(job.ok()) << job.error_message();
  return std::move(job).take();
}

// ---------------------------------------------------------------------------
// binio container
// ---------------------------------------------------------------------------

binio::Writer small_container() {
  binio::Writer w;
  binio::Encoder a;
  a.u32(42);
  a.str("alpha");
  a.f64(3.25);
  w.add_section(1, a.take());
  binio::Encoder b;
  b.u64(7);
  b.i64(-9);
  w.add_section(2, b.take());
  return w;
}

TEST(Binio, RoundTripSectionsAndTypedFields) {
  const std::string bytes = small_container().render();
  auto r = binio::Reader::from_bytes(bytes);
  ASSERT_TRUE(r.ok()) << r.error_message();
  ASSERT_TRUE(r.value().has_section(1));
  ASSERT_TRUE(r.value().has_section(2));
  EXPECT_FALSE(r.value().has_section(3));
  EXPECT_EQ(r.value().format_version(), binio::kFormatVersion);
  EXPECT_EQ(r.value().file_size(), bytes.size());

  binio::Decoder a(r.value().section(1));
  EXPECT_EQ(a.u32(), 42u);
  EXPECT_EQ(a.str(), "alpha");
  EXPECT_EQ(a.f64(), 3.25);
  EXPECT_TRUE(a.at_end());
  ASSERT_TRUE(a.ok()) << a.error();

  binio::Decoder b(r.value().section(2));
  EXPECT_EQ(b.u64(), 7u);
  EXPECT_EQ(b.i64(), -9);
  EXPECT_TRUE(b.at_end());
  ASSERT_TRUE(b.ok()) << b.error();
}

TEST(Binio, EveryTruncationIsDetected) {
  const std::string bytes = small_container().render();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    auto r = binio::Reader::from_bytes(bytes.substr(0, len));
    EXPECT_FALSE(r.ok()) << "truncation to " << len << " bytes accepted";
  }
}

TEST(Binio, EverySingleBitFlipIsDetected) {
  // The robustness headline: there is no bit in the file whose flip goes
  // unnoticed — magic/endianness have dedicated checks, the header prefix
  // and table share a checksum, and every payload has its own.
  const std::string bytes = small_container().render();
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = bytes;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      auto r = binio::Reader::from_bytes(std::move(mutated));
      EXPECT_FALSE(r.ok())
          << "flip of bit " << bit << " in byte " << byte << " accepted";
    }
  }
}

TEST(Binio, TrailingBytesRejected) {
  std::string bytes = small_container().render();
  bytes += '\0';
  auto r = binio::Reader::from_bytes(std::move(bytes));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.diag().message.find("trailing"), std::string::npos)
      << r.error_message();
}

TEST(Binio, NewerFormatVersionRejectedByName) {
  std::string bytes = small_container().render();
  bytes[8] = static_cast<char>(binio::kFormatVersion + 1);
  auto r = binio::Reader::from_bytes(std::move(bytes));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.diag().message.find("unsupported format version"),
            std::string::npos)
      << r.error_message();
}

TEST(Binio, ForeignEndiannessRejectedByName) {
  std::string bytes = small_container().render();
  // Byte-swap the endian tag: exactly what the same file written on a
  // big-endian machine would look like to this reader.
  std::swap(bytes[12], bytes[15]);
  std::swap(bytes[13], bytes[14]);
  auto r = binio::Reader::from_bytes(std::move(bytes));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.diag().message.find("endian"), std::string::npos)
      << r.error_message();
}

TEST(Binio, NonContainerFilesRejected) {
  EXPECT_FALSE(binio::Reader::from_bytes("").ok());
  EXPECT_FALSE(binio::Reader::from_bytes("not a container at all").ok());
  EXPECT_FALSE(binio::Reader::open("/nonexistent/definitely/missing").ok());
}

TEST(Binio, AtomicWriteReplacesAndLeavesNoTemp) {
  TempPath tmp("binio_atomic");
  auto first = small_container().write(tmp.path);
  ASSERT_TRUE(first.ok()) << first.error_message();
  EXPECT_EQ(first.value(), read_file_bytes(tmp.path).size());

  binio::Writer other;
  binio::Encoder e;
  e.str("replacement");
  other.add_section(9, e.take());
  auto second = other.write(tmp.path);
  ASSERT_TRUE(second.ok()) << second.error_message();

  auto r = binio::Reader::open(tmp.path);
  ASSERT_TRUE(r.ok()) << r.error_message();
  EXPECT_TRUE(r.value().has_section(9));
  EXPECT_FALSE(r.value().has_section(1));
  std::ifstream leftover(tmp.path + ".tmp");
  EXPECT_FALSE(leftover.good()) << "atomic write left a .tmp file behind";
}

TEST(Binio, HeaderChecksumSpansHeaderPrefixAndTable) {
  // Pins the container format: the header checksum is checksum64 over the
  // 24 header bytes before it followed by the section table.
  const std::string bytes = small_container().render();
  const std::size_t table_bytes = 2 * (4 + 4 + 8 + 8 + 8);
  std::uint64_t stored = 0;
  std::memcpy(&stored, bytes.data() + 24, 8);
  EXPECT_EQ(stored, binio::checksum64(bytes.substr(0, 24) +
                                     bytes.substr(32, table_bytes)));
}

TEST(Binio, ReadFileStampsWhatItReadAndFlagsOnlyMissingFiles) {
  TempPath tmp("binio_read");
  const std::string bytes = small_container().render();
  write_file_bytes(tmp.path, bytes);

  binio::FileStamp stamp;
  bool missing = true;
  auto read = binio::read_file(tmp.path, &stamp, &missing);
  ASSERT_TRUE(read.ok()) << read.error_message();
  EXPECT_EQ(read.value(), bytes);
  EXPECT_FALSE(missing);
  EXPECT_EQ(stamp.size, bytes.size());
  const auto now = binio::stat_file(tmp.path);
  ASSERT_TRUE(now.has_value());
  EXPECT_EQ(*now, stamp);

  auto gone = binio::read_file(tmp.path + ".absent", nullptr, &missing);
  EXPECT_FALSE(gone.ok());
  EXPECT_TRUE(missing);
  EXPECT_FALSE(binio::stat_file(tmp.path + ".absent").has_value());

  // A directory exists, so it is not "missing": a warm start must warn.
  auto dir = binio::read_file(".", nullptr, &missing);
  EXPECT_FALSE(dir.ok());
  EXPECT_FALSE(missing);
}

TEST(Binio, DecoderStickyFailureAndCountGuard) {
  binio::Encoder e;
  e.u64(0xffffffffffffffffULL);  // an absurd element count
  const std::string payload = e.take();
  binio::Decoder d(payload);
  const std::uint64_t count = d.u64();
  EXPECT_FALSE(d.fits(count, 8));
  EXPECT_FALSE(d.ok());
  // Sticky: every later read yields zero values, first error retained.
  EXPECT_EQ(d.u64(), 0u);
  EXPECT_EQ(d.str(), "");
  EXPECT_FALSE(d.at_end());
  EXPECT_NE(d.error().find("count"), std::string::npos);
}

TEST(Binio, StringLengthBeyondSectionRejected) {
  binio::Encoder e;
  e.u64(1000);  // claims a 1000-byte string with 3 bytes present
  binio::Encoder tail;
  tail.u8('x');
  tail.u8('y');
  tail.u8('z');
  const std::string payload = e.bytes() + tail.bytes();
  binio::Decoder d(payload);
  EXPECT_EQ(d.str(), "");
  EXPECT_FALSE(d.ok());
}

// ---------------------------------------------------------------------------
// Cost-report and calibration round-trips
// ---------------------------------------------------------------------------

TEST(SnapshotPayloads, CostReportRoundTripsExactly) {
  const auto& db = preset_db("stratix-v-gsd8");
  dse::Job job = registry_job("sor", 8);
  const ir::Module module =
      job.lower->lower(frontend::baseline_variant(job.n));
  const cost::CostReport report = cost::cost_design(module, db);

  binio::Encoder enc;
  cost::save_report(enc, report);
  binio::Decoder dec(enc.bytes());
  const cost::CostReport loaded = cost::load_report(dec);
  EXPECT_TRUE(dec.at_end());
  ASSERT_TRUE(dec.ok()) << dec.error();

  // Bit-exact: the rendered report (which prints doubles) must match.
  EXPECT_EQ(cost::format_report(loaded), cost::format_report(report));
  EXPECT_EQ(loaded.design_name, report.design_name);
  EXPECT_EQ(loaded.valid, report.valid);
  EXPECT_EQ(loaded.resources.per_function.size(),
            report.resources.per_function.size());
  EXPECT_EQ(std::memcmp(&loaded.throughput.ekit, &report.throughput.ekit,
                        sizeof(double)),
            0);
}

TEST(SnapshotPayloads, CostReportBadEnumsFailTheDecoder) {
  const auto& db = preset_db("stratix-v-gsd8");
  dse::Job job = registry_job("sor", 8);
  const ir::Module module =
      job.lower->lower(frontend::baseline_variant(job.n));
  const cost::CostReport report = cost::cost_design(module, db);
  binio::Encoder enc;
  cost::save_report(enc, report);
  std::string payload = enc.take();

  // The config class is the byte right after the length-prefixed name.
  const std::size_t config_at = 8 + report.design_name.size();
  ASSERT_LT(config_at, payload.size());
  payload[config_at] = static_cast<char>(200);
  binio::Decoder dec(payload);
  (void)cost::load_report(dec);
  EXPECT_FALSE(dec.ok());
  EXPECT_NE(dec.error().find("configuration class"), std::string::npos);
}

TEST(SnapshotPayloads, CalibrationRoundTripsExactly) {
  const auto& original = preset_db("fig15");
  binio::Encoder enc;
  original.save(enc);
  binio::Decoder dec(enc.bytes());
  auto loaded = cost::DeviceCostDb::load(dec);
  ASSERT_TRUE(loaded.ok()) << loaded.error_message();
  EXPECT_TRUE(dec.at_end());

  const cost::DeviceCostDb& db = loaded.value();
  EXPECT_EQ(db.device().name, original.device().name);
  EXPECT_EQ(db.calibration_seconds(), original.calibration_seconds());
  // Fingerprint equality is the invalidation contract: a restored
  // database must key the cache exactly as the original did.
  EXPECT_EQ(dse::device_fingerprint(db.device()),
            dse::device_fingerprint(original.device()));

  // The laws and tables must evaluate bit-identically.
  const ir::ScalarType u32 = ir::ScalarType::uint(32);
  for (const ir::Opcode op : {ir::Opcode::Add, ir::Opcode::Mul,
                              ir::Opcode::Div, ir::Opcode::Sqrt}) {
    const ResourceVec a = db.op_cost(op, u32);
    const ResourceVec b = original.op_cost(op, u32);
    EXPECT_EQ(a.aluts, b.aluts);
    EXPECT_EQ(a.regs, b.regs);
    EXPECT_EQ(a.bram_bits, b.bram_bits);
    EXPECT_EQ(a.dsps, b.dsps);
  }
  for (const std::uint64_t bytes : {1u << 10, 1u << 16, 1u << 24}) {
    EXPECT_EQ(db.bandwidth().sustained(bytes, ir::AccessPattern::Contiguous),
              original.bandwidth().sustained(bytes,
                                             ir::AccessPattern::Contiguous));
    EXPECT_EQ(db.host_sustained(bytes), original.host_sustained(bytes));
  }

  // And the whole cost model must agree byte for byte through it (modulo
  // the wall-clock estimation stamp, which differs per call by nature).
  dse::Job job = registry_job("sor", 8);
  const ir::Module module =
      job.lower->lower(frontend::baseline_variant(job.n));
  cost::CostReport via_loaded = cost::cost_design(module, db);
  cost::CostReport via_original = cost::cost_design(module, original);
  via_loaded.estimate_seconds = 0;
  via_original.estimate_seconds = 0;
  EXPECT_EQ(cost::format_report(via_loaded), cost::format_report(via_original));
}

TEST(SnapshotPayloads, TruncatedCalibrationIsADiagnosticNotACrash) {
  const auto& original = preset_db("fig15");
  binio::Encoder enc;
  original.save(enc);
  const std::string payload = enc.bytes();
  // A spread of truncation points; every one must fail cleanly.
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{1}, payload.size() / 4,
        payload.size() / 2, payload.size() - 1}) {
    binio::Decoder dec(std::string_view(payload).substr(0, len));
    auto loaded = cost::DeviceCostDb::load(dec);
    EXPECT_FALSE(loaded.ok()) << "truncation to " << len << " accepted";
  }
}

// ---------------------------------------------------------------------------
// CostCache dump/load
// ---------------------------------------------------------------------------

TEST(SnapshotCache, StructuralEntriesRoundTripAndHit) {
  const auto& db = preset_db("stratix-v-gsd8");
  dse::Job job = registry_job("sor", 8);
  const ir::Module module =
      job.lower->lower(frontend::baseline_variant(job.n));

  dse::CostCache first;
  const cost::CostReport fresh = first.cost(module, db);
  binio::Encoder structural;
  binio::Encoder variant;
  first.dump(structural, variant);

  dse::CostCache second;
  binio::Decoder s(structural.bytes());
  binio::Decoder v(variant.bytes());
  auto counts = second.load(s, v);
  ASSERT_TRUE(counts.ok()) << counts.error_message();
  EXPECT_EQ(counts.value().structural, 1u);
  EXPECT_EQ(counts.value().variant, 0u);

  bool was_hit = false;
  const cost::CostReport warm = second.cost(module, db, &was_hit);
  EXPECT_TRUE(was_hit) << "restored structural entry did not hit";
  EXPECT_EQ(cost::format_report(warm), cost::format_report(fresh));

  // A structural entry is its 128-bit identity plus the report — no
  // printed IR rides along.
  binio::Encoder report_only;
  cost::save_report(report_only, fresh);
  EXPECT_EQ(structural.bytes().size(), 2 * 8 + report_only.bytes().size());
}

TEST(SnapshotCache, GenerationCountsPublishedEntriesAndClears) {
  const auto& db = preset_db("stratix-v-gsd8");
  dse::Job job = registry_job("sor", 8);
  const frontend::Variant variant = frontend::baseline_variant(job.n);

  dse::CostCache cache;
  EXPECT_EQ(cache.generation(), 0u);
  (void)cache.cost(variant, *job.lower, db);
  const std::uint64_t after_miss = cache.generation();
  EXPECT_GT(after_miss, 0u);
  // A hit publishes nothing.
  (void)cache.cost(variant, *job.lower, db);
  EXPECT_EQ(cache.generation(), after_miss);

  // Loading publishes; loading the same entries again finds them resident.
  binio::Encoder structural;
  binio::Encoder variants;
  cache.dump(structural, variants);
  dse::CostCache second;
  binio::Decoder s1(structural.bytes());
  binio::Decoder v1(variants.bytes());
  ASSERT_TRUE(second.load(s1, v1).ok());
  const std::uint64_t after_load = second.generation();
  EXPECT_GT(after_load, 0u);
  binio::Decoder s2(structural.bytes());
  binio::Decoder v2(variants.bytes());
  ASSERT_TRUE(second.load(s2, v2).ok());
  EXPECT_EQ(second.generation(), after_load);

  // clear() always counts, even on an empty cache.
  dse::CostCache empty;
  empty.clear();
  EXPECT_GT(empty.generation(), 0u);
}

TEST(SnapshotCache, CorruptDumpFailsLoadWithoutCrashing) {
  const auto& db = preset_db("stratix-v-gsd8");
  dse::Job job = registry_job("sor", 8);
  const ir::Module module =
      job.lower->lower(frontend::baseline_variant(job.n));
  dse::CostCache first;
  (void)first.cost(module, db);
  binio::Encoder structural;
  binio::Encoder variant;
  first.dump(structural, variant);

  // Truncate the structural payload mid-entry.
  const std::string bytes = structural.bytes();
  for (const std::size_t len : {bytes.size() / 2, bytes.size() - 1}) {
    dse::CostCache fresh_cache;
    binio::Decoder s(std::string_view(bytes).substr(0, len));
    binio::Decoder v(std::string_view{});
    auto counts = fresh_cache.load(s, v);
    EXPECT_FALSE(counts.ok()) << "truncated cache payload accepted";
  }
}

// ---------------------------------------------------------------------------
// Session snapshots: warm-start identity and graceful degradation
// ---------------------------------------------------------------------------

dse::SessionOptions warm_options(const std::string& path) {
  dse::SessionOptions so;
  so.num_threads = 1;
  so.snapshot_path = path;
  return so;
}

struct SweepRender {
  std::string sweep;
  std::string pareto;
  dse::CacheStats stats;
};

SweepRender run_with_snapshot(const std::string& snapshot_path,
                              const char* workload, std::uint32_t nd,
                              const std::string& preset_name, bool save) {
  dse::Session session(warm_options(snapshot_path));
  session.add_device(*target::preset(preset_name));
  dse::Job job = registry_job(workload, nd);
  job.device = target::preset(preset_name)->name;
  const dse::DseResult result = session.explore(job);
  if (save) {
    auto written = session.save_snapshot();
    EXPECT_TRUE(written.ok()) << written.error_message();
  }
  return SweepRender{dse::format_sweep(result), dse::format_pareto(result),
                     result.cache_stats};
}

TEST(SessionSnapshot, WarmStartIsByteIdenticalAndHitsVariantLevel) {
  struct Case {
    const char* workload;
    std::uint32_t nd;
  };
  const Case cases[] = {{"sor", 8}, {"hotspot", 12}, {"lavamd", 64}};
  for (const auto& c : cases) {
    for (const auto& preset_name : target::preset_names()) {
      TempPath tmp(std::string("session_warm_") + c.workload);
      const SweepRender cold =
          run_with_snapshot(tmp.path, c.workload, c.nd, preset_name, true);
      EXPECT_EQ(cold.stats.variant_hits, 0u);
      // A brand-new session (a "new process" as far as the library state
      // is concerned) loading the snapshot must render the same bytes
      // and answer every variant at the key level without lowering.
      const SweepRender warm =
          run_with_snapshot(tmp.path, c.workload, c.nd, preset_name, false);
      EXPECT_EQ(warm.sweep, cold.sweep) << c.workload << " on " << preset_name;
      EXPECT_EQ(warm.pareto, cold.pareto)
          << c.workload << " on " << preset_name;
      EXPECT_EQ(warm.stats.misses, 0u) << c.workload << " on " << preset_name;
      EXPECT_GT(warm.stats.variant_hits, 0u)
          << c.workload << " on " << preset_name;
    }
  }
}

TEST(SessionSnapshot, RestoredCalibrationIsReusedOnFingerprintMatch) {
  TempPath tmp("session_calib");
  double saved_calib_seconds = 0;
  {
    dse::SessionOptions so;
    so.snapshot_path = tmp.path;
    dse::Session session(so);
    const auto& db = session.add_device(*target::preset("fig15"));
    saved_calib_seconds = db.calibration_seconds();
    auto written = session.save_snapshot();
    ASSERT_TRUE(written.ok()) << written.error_message();
  }
  {
    dse::SessionOptions so;
    so.snapshot_path = tmp.path;
    dse::Session session(so);
    const auto& db = session.add_device(*target::preset("fig15"));
    // The wall-clock of the original calibration is only reproducible by
    // actually restoring it — a recalibration would stamp its own.
    EXPECT_EQ(db.calibration_seconds(), saved_calib_seconds)
        << "matching fingerprint was recalibrated instead of restored";
  }
  {
    // Same name, different device description: the fingerprint mismatch
    // must force a recalibration rather than trust the stale entry.
    dse::SessionOptions so;
    so.snapshot_path = tmp.path;
    dse::Session session(so);
    target::DeviceDesc edited = *target::preset("fig15");
    edited.dram_peak_bw *= 2.0;
    const auto& db = session.add_device(edited);
    EXPECT_EQ(db.device().dram_peak_bw, edited.dram_peak_bw);
    EXPECT_NE(db.calibration_seconds(), saved_calib_seconds)
        << "stale calibration reused despite a changed device";
  }
}

TEST(SessionSnapshot, EveryCorruptionDegradesToColdWithIdenticalOutput) {
  TempPath tmp("session_fuzz");
  const SweepRender cold =
      run_with_snapshot(tmp.path, "sor", 8, "stratix-v-gsd8", true);
  const std::string good = read_file_bytes(tmp.path);
  ASSERT_FALSE(good.empty());

  auto expect_degraded = [&](const std::string& what) {
    const SweepRender degraded =
        run_with_snapshot(tmp.path, "sor", 8, "stratix-v-gsd8", false);
    EXPECT_EQ(degraded.sweep, cold.sweep) << what;
    EXPECT_EQ(degraded.pareto, cold.pareto) << what;
    EXPECT_EQ(degraded.stats.variant_hits, 0u)
        << what << ": corrupt snapshot produced cache hits";
  };

  // Truncations at every section boundary (and inside each section).
  auto reader = binio::Reader::open(tmp.path);
  ASSERT_TRUE(reader.ok()) << reader.error_message();
  std::vector<std::size_t> cut_points{0, 7, 16, 31};
  for (const auto& sec : reader.value().sections()) {
    cut_points.push_back(static_cast<std::size_t>(sec.offset));
    cut_points.push_back(static_cast<std::size_t>(sec.offset + sec.size / 2));
  }
  for (const std::size_t cut : cut_points) {
    if (cut >= good.size()) continue;
    write_file_bytes(tmp.path, good.substr(0, cut));
    expect_degraded("truncation at byte " + std::to_string(cut));
  }

  // Deterministically scattered single-bit flips across the whole file.
  for (std::size_t i = 0; i < 32; ++i) {
    const std::size_t byte = (i * 2654435761u) % good.size();
    std::string mutated = good;
    mutated[byte] = static_cast<char>(mutated[byte] ^ (1u << (i % 8)));
    write_file_bytes(tmp.path, mutated);
    expect_degraded("bit flip in byte " + std::to_string(byte));
  }

  // A future format version.
  {
    std::string mutated = good;
    mutated[8] = static_cast<char>(binio::kFormatVersion + 1);
    write_file_bytes(tmp.path, mutated);
    expect_degraded("newer container version");
  }

  // Garbage that is not a container at all.
  write_file_bytes(tmp.path, "definitely not a snapshot");
  expect_degraded("non-container file");

  // And the valid snapshot still warm-starts after all of that.
  write_file_bytes(tmp.path, good);
  const SweepRender warm =
      run_with_snapshot(tmp.path, "sor", 8, "stratix-v-gsd8", false);
  EXPECT_EQ(warm.sweep, cold.sweep);
  EXPECT_GT(warm.stats.variant_hits, 0u);
}

TEST(SessionSnapshot, StaleDeviceFingerprintEntriesNeverHit) {
  // Snapshot taken against one device; the same workload against a
  // different device must miss every restored entry (fingerprints are
  // folded into the keys) and still produce exactly the cold output.
  TempPath tmp("session_stale");
  (void)run_with_snapshot(tmp.path, "sor", 8, "stratix-v-gsd8", true);
  const SweepRender cold_other =
      run_with_snapshot("", "sor", 8, "fig15", false);
  const SweepRender stale =
      run_with_snapshot(tmp.path, "sor", 8, "fig15", false);
  EXPECT_EQ(stale.sweep, cold_other.sweep);
  EXPECT_EQ(stale.stats.variant_hits, 0u)
      << "entries for another device fingerprint were trusted";
}

TEST(SessionSnapshot, MissingSnapshotIsASilentColdStart) {
  TempPath tmp("session_missing");
  const SweepRender fresh =
      run_with_snapshot(tmp.path, "sor", 8, "stratix-v-gsd8", false);
  const SweepRender plain = run_with_snapshot("", "sor", 8, "stratix-v-gsd8",
                                              false);
  EXPECT_EQ(fresh.sweep, plain.sweep);
}

TEST(SessionSnapshot, OnlyAMissingFileIsSilent) {
  TempPath missing("session_silent");
  ::testing::internal::CaptureStderr();
  { dse::Session session(warm_options(missing.path)); }
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");

  // A path that exists but cannot be read as a file warns exactly once.
  TempPath dir("session_dir");
  ASSERT_EQ(::mkdir(dir.path.c_str(), 0755), 0);
  ::testing::internal::CaptureStderr();
  { dse::Session session(warm_options(dir.path)); }
  const std::string err = ::testing::internal::GetCapturedStderr();
  ::rmdir(dir.path.c_str());
  EXPECT_EQ(err.rfind("tytra: warning: snapshot-load path='" + dir.path +
                          "' error='",
                      0),
            0u)
      << err;
  EXPECT_NE(err.find("' action=cold-start\n"), std::string::npos) << err;
  EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
}

TEST(SessionSnapshot, VerifySnapshotAcceptsGoodRejectsCorrupt) {
  TempPath tmp("session_verify");
  (void)run_with_snapshot(tmp.path, "sor", 8, "stratix-v-gsd8", true);
  auto good = dse::verify_snapshot(tmp.path);
  ASSERT_TRUE(good.ok()) << good.error_message();
  EXPECT_GT(good.value().structural_entries, 0u);
  EXPECT_GT(good.value().variant_entries, 0u);
  ASSERT_EQ(good.value().calibrations.size(), 1u);
  EXPECT_EQ(good.value().calibrations[0].first, "stratix-v-gsd8");

  std::string bytes = read_file_bytes(tmp.path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  write_file_bytes(tmp.path, bytes);
  EXPECT_FALSE(dse::verify_snapshot(tmp.path).ok());
}

/// Rewrites a current snapshot as payload v1: the layout before v2, where
/// every structural entry carried its printed-IR identity text between
/// the check half and the report. Variant and calibration sections are
/// copied unchanged.
std::string as_payload_v1(const std::string& path) {
  auto opened = binio::Reader::open(path);
  EXPECT_TRUE(opened.ok()) << opened.error_message();
  if (!opened.ok()) return {};
  const binio::Reader& reader = opened.value();
  binio::Writer writer;
  binio::Encoder meta;
  meta.u32(1);
  writer.add_section(1, meta.take());
  binio::Decoder in(reader.section(2));
  binio::Encoder structural;
  for (int entry = 0; in.ok() && in.remaining() > 0; ++entry) {
    structural.u64(in.u64());
    structural.u64(in.u64());
    structural.str("; printed IR of entry " + std::to_string(entry) + "\n");
    cost::save_report(structural, cost::load_report(in));
  }
  EXPECT_TRUE(in.ok()) << in.error();
  writer.add_section(2, structural.take());
  writer.add_section(3, std::string(reader.section(3)));
  writer.add_section(4, std::string(reader.section(4)));
  return writer.render();
}

TEST(SessionSnapshot, PayloadV1FileColdStartsOnceAndIsRewrittenAsV2) {
  TempPath tmp("session_v1");
  (void)run_with_snapshot(tmp.path, "sor", 8, "stratix-v-gsd8", true);
  const std::string v1 = as_payload_v1(tmp.path);
  ASSERT_FALSE(v1.empty());
  write_file_bytes(tmp.path, v1);

  // Offline verification rejects the old payload by its version.
  const auto verified = dse::verify_snapshot(tmp.path);
  ASSERT_FALSE(verified.ok());
  EXPECT_NE(verified.error_message().find("payload version 1"),
            std::string::npos)
      << verified.error_message();

  // A session given the v1 file warns once, runs cold with output equal
  // to a snapshot-less run, and saves a v2 file over it.
  const SweepRender plain =
      run_with_snapshot("", "sor", 8, "stratix-v-gsd8", false);
  ::testing::internal::CaptureStderr();
  const SweepRender upgraded =
      run_with_snapshot(tmp.path, "sor", 8, "stratix-v-gsd8", true);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(err.rfind("tytra: warning: snapshot-load path='" + tmp.path +
                          "' error='",
                      0),
            0u)
      << err;
  EXPECT_NE(err.find("payload version 1"), std::string::npos) << err;
  EXPECT_NE(err.find("' action=cold-start\n"), std::string::npos) << err;
  EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
  EXPECT_EQ(upgraded.sweep, plain.sweep);
  EXPECT_EQ(upgraded.pareto, plain.pareto);
  EXPECT_EQ(upgraded.stats.hits, 0u) << "v1 entries answered a lookup";

  const auto rewritten = dse::verify_snapshot(tmp.path);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error_message();
  EXPECT_EQ(rewritten.value().payload_version, 2u);
  const SweepRender warm =
      run_with_snapshot(tmp.path, "sor", 8, "stratix-v-gsd8", false);
  EXPECT_EQ(warm.sweep, plain.sweep);
  EXPECT_EQ(warm.stats.misses, 0u);
  EXPECT_GT(warm.stats.variant_hits, 0u);
}

// ---------------------------------------------------------------------------
// Clean saves: a session that learned nothing since it loaded a file
// leaves that file alone; every kind of change forces a full write.
// ---------------------------------------------------------------------------

/// A file's bytes plus the identity an atomic rewrite changes (a new
/// inode) and an in-place write changes (the mtime).
struct FileState {
  std::string bytes;
  ino_t ino{0};
  timespec mtime{};
};

FileState file_state(const std::string& path) {
  struct stat st {};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return FileState{read_file_bytes(path), st.st_ino, st.st_mtim};
}

void expect_untouched(const FileState& before, const std::string& path) {
  const FileState now = file_state(path);
  EXPECT_EQ(now.bytes, before.bytes) << path << " content changed";
  EXPECT_EQ(now.ino, before.ino) << path << " was replaced";
  EXPECT_EQ(now.mtime.tv_sec, before.mtime.tv_sec) << path << " was written";
  EXPECT_EQ(now.mtime.tv_nsec, before.mtime.tv_nsec) << path << " was written";
}

dse::Job preset_job(const char* workload, std::uint32_t nd,
                    const char* preset_name) {
  dse::Job job = registry_job(workload, nd);
  job.device = target::preset(preset_name)->name;
  return job;
}

/// The restored calibration fingerprint stored under `name`, or 0.
std::uint64_t stored_fingerprint(const std::string& path,
                                 const std::string& name) {
  auto summary = dse::verify_snapshot(path);
  EXPECT_TRUE(summary.ok()) << summary.error_message();
  if (!summary.ok()) return 0;
  for (const auto& [device, fingerprint] : summary.value().calibrations) {
    if (device == name) return fingerprint;
  }
  return 0;
}

TEST(SessionSnapshotClean, WarmRerunSaveLeavesTheFileUntouched) {
  TempPath tmp("clean_rerun");
  (void)run_with_snapshot(tmp.path, "sor", 8, "stratix-v-gsd8", true);
  const FileState before = file_state(tmp.path);

  dse::Session session(warm_options(tmp.path));
  session.add_device(*target::preset("stratix-v-gsd8"));
  const dse::DseResult result =
      session.explore(preset_job("sor", 8, "stratix-v-gsd8"));
  EXPECT_EQ(result.cache_stats.misses, 0u);
  for (int rep = 0; rep < 2; ++rep) {
    bool wrote = true;
    const auto saved = session.save_snapshot({}, &wrote);
    ASSERT_TRUE(saved.ok()) << saved.error_message();
    EXPECT_FALSE(wrote) << "rep " << rep;
    EXPECT_EQ(saved.value(), before.bytes.size());
  }
  expect_untouched(before, tmp.path);

  // The run helper's warm rerun (explore + save) is clean as well.
  (void)run_with_snapshot(tmp.path, "sor", 8, "stratix-v-gsd8", true);
  expect_untouched(before, tmp.path);
}

TEST(SessionSnapshotClean, EveryChangeForcesAFullWriteTheNextLoadSees) {
  TempPath base("clean_base");
  (void)run_with_snapshot(base.path, "sor", 8, "stratix-v-gsd8", true);
  const std::string good = read_file_bytes(base.path);
  const auto good_summary = dse::verify_snapshot(base.path);
  ASSERT_TRUE(good_summary.ok()) << good_summary.error_message();
  const std::uint64_t stratix =
      dse::device_fingerprint(*target::preset("stratix-v-gsd8"));

  struct Case {
    std::string name;
    /// Acts on a session warm-started from `path`.
    std::function<void(dse::Session&, const std::string& path)> change;
    /// Checks what the next load of `path` sees.
    std::function<void(const std::string& path)> check;
  };
  target::DeviceDesc edited = *target::preset("stratix-v-gsd8");
  edited.dram_peak_bw *= 2.0;
  const std::vector<Case> cases = {
      {"insert",
       [](dse::Session& s, const std::string&) {
         s.add_device(*target::preset("stratix-v-gsd8"));
         (void)s.explore(preset_job("sor", 12, "stratix-v-gsd8"));
       },
       [](const std::string& path) {
         const SweepRender warm =
             run_with_snapshot(path, "sor", 12, "stratix-v-gsd8", false);
         EXPECT_EQ(warm.stats.misses, 0u);
         EXPECT_GT(warm.stats.variant_hits, 0u);
       }},
      {"fresh calibration",
       [](dse::Session& s, const std::string&) {
         s.add_device(*target::preset("fig15"));
       },
       [](const std::string& path) {
         const target::DeviceDesc fig15 = *target::preset("fig15");
         EXPECT_EQ(stored_fingerprint(path, fig15.name),
                   dse::device_fingerprint(fig15));
       }},
      {"stale calibration",
       [&](dse::Session& s, const std::string&) { s.add_device(edited); },
       [&](const std::string& path) {
         EXPECT_EQ(stored_fingerprint(path, "stratix-v-gsd8"),
                   dse::device_fingerprint(edited));
       }},
      {"explicit database",
       [](dse::Session& s, const std::string&) {
         cost::DeviceCostDb db = preset_db("fig15");
         s.add_device("custom", std::move(db));
       },
       [](const std::string& path) {
         EXPECT_NE(stored_fingerprint(path, "custom"), 0u);
       }},
      {"cache cleared",
       [](dse::Session& s, const std::string&) { s.cache()->clear(); },
       [&](const std::string& path) {
         auto summary = dse::verify_snapshot(path);
         ASSERT_TRUE(summary.ok()) << summary.error_message();
         EXPECT_EQ(summary.value().structural_entries, 0u);
         EXPECT_EQ(summary.value().variant_entries, 0u);
         EXPECT_EQ(stored_fingerprint(path, "stratix-v-gsd8"), stratix);
       }},
      {"file deleted since the load",
       [](dse::Session&, const std::string& path) {
         std::remove(path.c_str());
       },
       [&](const std::string& path) {
         EXPECT_EQ(read_file_bytes(path).size(), good.size());
         const SweepRender warm =
             run_with_snapshot(path, "sor", 8, "stratix-v-gsd8", false);
         EXPECT_EQ(warm.stats.misses, 0u);
       }},
      {"file replaced since the load",
       [&](dse::Session&, const std::string& path) {
         // Same bytes, new inode: a concurrent writer's atomic save.
         write_file_bytes(path + ".other", good);
         ASSERT_EQ(std::rename((path + ".other").c_str(), path.c_str()), 0);
       },
       [&](const std::string& path) {
         const SweepRender warm =
             run_with_snapshot(path, "sor", 8, "stratix-v-gsd8", false);
         EXPECT_EQ(warm.stats.misses, 0u);
       }},
      {"file rewritten in place since the load",
       [](dse::Session&, const std::string& path) {
         write_file_bytes(path, "not a snapshot any more");
       },
       [&](const std::string& path) {
         EXPECT_EQ(read_file_bytes(path).size(), good.size());
         const SweepRender warm =
             run_with_snapshot(path, "sor", 8, "stratix-v-gsd8", false);
         EXPECT_EQ(warm.stats.misses, 0u);
       }},
  };

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    write_file_bytes(base.path, good);
    dse::Session session(warm_options(base.path));
    ASSERT_GT(session.cache()->variant_size(), 0u);
    c.change(session, base.path);
    // The inode the file has just before the save (none once deleted):
    // an atomic write always lands on a different one.
    struct stat st {};
    const bool existed = ::stat(base.path.c_str(), &st) == 0;
    bool wrote = false;
    const auto saved = session.save_snapshot({}, &wrote);
    ASSERT_TRUE(saved.ok()) << saved.error_message();
    EXPECT_TRUE(wrote);
    const FileState after = file_state(base.path);
    if (existed) {
      EXPECT_NE(after.ino, st.st_ino) << "not an atomic full write";
    }
    EXPECT_EQ(saved.value(), after.bytes.size());
    c.check(base.path);
  }
}

TEST(SessionSnapshotClean, UncleanLoadsAndOtherTargetsAlwaysWrite) {
  TempPath base("clean_other");
  (void)run_with_snapshot(base.path, "sor", 8, "stratix-v-gsd8", true);
  const std::string good = read_file_bytes(base.path);
  const auto good_summary = dse::verify_snapshot(base.path);
  ASSERT_TRUE(good_summary.ok()) << good_summary.error_message();

  // Another target path: written in full, with the loaded entries.
  {
    const FileState before = file_state(base.path);
    TempPath other("clean_other_target");
    dse::Session session(warm_options(base.path));
    bool wrote = false;
    ASSERT_TRUE(session.save_snapshot(other.path, &wrote).ok());
    EXPECT_TRUE(wrote);
    auto summary = dse::verify_snapshot(other.path);
    ASSERT_TRUE(summary.ok()) << summary.error_message();
    EXPECT_EQ(summary.value().structural_entries,
              good_summary.value().structural_entries);
    EXPECT_EQ(summary.value().variant_entries,
              good_summary.value().variant_entries);
    expect_untouched(before, base.path);
  }

  // A corrupt file degrades to cold; the cold session's save replaces it
  // with a valid (empty) snapshot even though it did no work.
  {
    write_file_bytes(base.path, "definitely not a snapshot");
    dse::Session session(warm_options(base.path));
    bool wrote = false;
    ASSERT_TRUE(session.save_snapshot({}, &wrote).ok());
    EXPECT_TRUE(wrote);
    auto summary = dse::verify_snapshot(base.path);
    ASSERT_TRUE(summary.ok()) << summary.error_message();
    EXPECT_EQ(summary.value().structural_entries, 0u);
  }

  // A cache-less session drops the file's entries on load, so its save
  // is a full write (of no entries), not a skip.
  {
    write_file_bytes(base.path, good);
    dse::SessionOptions so = warm_options(base.path);
    so.enable_cache = false;
    dse::Session session(so);
    bool wrote = false;
    ASSERT_TRUE(session.save_snapshot({}, &wrote).ok());
    EXPECT_TRUE(wrote);
    auto summary = dse::verify_snapshot(base.path);
    ASSERT_TRUE(summary.ok()) << summary.error_message();
    EXPECT_EQ(summary.value().structural_entries, 0u);
  }

  // A load into a session that already held entries: the file is no
  // longer all the session holds.
  {
    write_file_bytes(base.path, good);
    dse::SessionOptions so;
    so.num_threads = 1;
    dse::Session session(so);
    session.add_device(*target::preset("fig15"));
    (void)session.explore(preset_job("sor", 8, "fig15"));
    ASSERT_TRUE(session.load_snapshot(base.path).ok());
    bool wrote = false;
    ASSERT_TRUE(session.save_snapshot(base.path, &wrote).ok());
    EXPECT_TRUE(wrote);
    auto summary = dse::verify_snapshot(base.path);
    ASSERT_TRUE(summary.ok()) << summary.error_message();
    EXPECT_GT(summary.value().variant_entries,
              good_summary.value().variant_entries);
  }
}

TEST(SessionSnapshotClean, SaveLoadSaveIsByteIdentical) {
  // The container is rendered the same way it always was: a loaded
  // snapshot saved elsewhere reproduces the original file byte for byte.
  TempPath first("bytes_first");
  TempPath second("bytes_second");
  {
    dse::Session session(warm_options(first.path));
    session.add_device(*target::preset("stratix-v-gsd8"));
    dse::Campaign campaign;
    for (const char* workload : {"sor", "hotspot", "lavamd"}) {
      campaign.jobs.push_back(preset_job(workload, 16, "stratix-v-gsd8"));
    }
    (void)session.run(campaign);
    ASSERT_TRUE(session.save_snapshot().ok());
  }
  dse::Session session(warm_options(first.path));
  ASSERT_TRUE(session.save_snapshot(second.path).ok());
  const std::string a = read_file_bytes(first.path);
  EXPECT_GT(a.size(), 1000u);
  EXPECT_EQ(read_file_bytes(second.path), a);
}

// ---------------------------------------------------------------------------
// clear() quiescence enforcement (debug builds)
// ---------------------------------------------------------------------------

#ifndef NDEBUG

/// A lowerer that re-enters the cache with clear() from inside lower() —
/// a deterministic stand-in for the clear-vs-concurrent-reader race the
/// quiescence contract forbids.
class ReentrantClearLowerer final : public dse::Lowerer {
 public:
  ReentrantClearLowerer(dse::CostCache* cache, std::shared_ptr<const dse::Lowerer> inner)
      : cache_(cache), inner_(std::move(inner)) {}

  [[nodiscard]] std::optional<dse::VariantKey> key(
      const frontend::Variant&) const override {
    return std::nullopt;
  }
  [[nodiscard]] ir::Module lower(const frontend::Variant& v,
                                 ir::BuildArena* arena) const override {
    cache_->clear();  // boom: a cost() call is in flight on this thread
    return inner_->lower(v, arena);
  }

 private:
  dse::CostCache* cache_;
  std::shared_ptr<const dse::Lowerer> inner_;
};

TEST(CacheQuiescence, ClearDuringCostAbortsWithDiagnostic) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto& db = preset_db("stratix-v-gsd8");
  dse::Job job = registry_job("sor", 8);
  dse::CostCache cache;
  const ReentrantClearLowerer reentrant(&cache, job.lower);
  EXPECT_DEATH(
      (void)cache.cost(frontend::baseline_variant(job.n), reentrant, db),
      "requires quiescence");
}

#endif  // !NDEBUG

}  // namespace
