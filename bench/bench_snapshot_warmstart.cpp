// Measures what the persistent snapshot store buys and what it costs: a
// cold SOR sweep (calibration + lowering + costing from nothing) against a
// second process's warm rerun end to end — snapshot load, variant-key
// lookups, and the save a `--snapshot` run ends with, which a rerun that
// found nothing new skips — plus the fixed costs of the persistence layer
// itself: the full save, the load, and the offline `verify` integrity
// walk, with the snapshot's size on disk.
//
//   bench_snapshot_warmstart [--smoke]
//
// --smoke shrinks the sweep for CI. Output is one JSON object, following
// the bench-driver convention (BENCH_estimator_baseline.json et al.).
// `warm_speedup_vs_cold` is the cold sweep over the whole warm rerun
// (load + sweep + save); `warm_clean_save_seconds` is that rerun's save.
//
// "Second process" is simulated the honest way available inside one
// binary: a fresh dse::Session constructed with snapshot_path, which runs
// the identical load path the CLI runs on startup — nothing is shared
// with the session that wrote the file.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "tytra/dse/session.hpp"
#include "tytra/kernels/registry.hpp"

namespace {

using namespace tytra;

double now_seconds() {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::uint32_t nd = smoke ? 16 : 64;
  const std::string snap_path = "bench_snapshot_warmstart.snap";
  std::remove(snap_path.c_str());

  auto job_r = kernels::Registry::instance().make_job("sor", nd);
  if (!job_r.ok()) {
    std::fprintf(stderr, "cannot build job: %s\n",
                 job_r.error_message().c_str());
    return 1;
  }

  dse::SessionOptions so;
  so.snapshot_path = snap_path;

  // Cold: calibrate, lower and cost everything, then persist.
  double cold_seconds = 0, save_seconds = 0;
  std::uint64_t snapshot_bytes = 0;
  std::size_t variants = 0;
  {
    dse::Session session(so);
    const double t0 = now_seconds();
    session.add_device(*target::preset("stratix-v-gsd8"));
    const auto result = session.explore(job_r.value());
    cold_seconds = now_seconds() - t0;
    variants = result.entries.size();
    const double t1 = now_seconds();
    const auto written = session.save_snapshot();
    save_seconds = now_seconds() - t1;
    if (!written.ok()) {
      std::fprintf(stderr, "save failed: %s\n",
                   written.error_message().c_str());
      return 1;
    }
    snapshot_bytes = written.value();
  }

  // Warm: a fresh session restores the snapshot in its constructor (the
  // exact path a new tytra-cc process takes), answers the same sweep from
  // variant keys, and saves back — a no-op, since it learned nothing.
  double load_seconds = 0, warm_seconds = 0, clean_save_seconds = 0;
  std::uint64_t warm_variant_hits = 0, warm_misses = 0;
  bool warm_wrote = true;
  {
    const double t0 = now_seconds();
    dse::Session session(so);
    session.add_device(*target::preset("stratix-v-gsd8"));
    load_seconds = now_seconds() - t0;
    const double t1 = now_seconds();
    const auto result = session.explore(job_r.value());
    warm_seconds = now_seconds() - t1;
    warm_variant_hits = result.cache_stats.variant_hits;
    warm_misses = result.cache_stats.misses;
    const double t2 = now_seconds();
    const auto written = session.save_snapshot({}, &warm_wrote);
    clean_save_seconds = now_seconds() - t2;
    if (!written.ok()) {
      std::fprintf(stderr, "warm save failed: %s\n",
                   written.error_message().c_str());
      return 1;
    }
  }
  const double warm_total = load_seconds + warm_seconds + clean_save_seconds;

  // The offline integrity walk `tytra-cc cache verify` runs.
  const double t0 = now_seconds();
  const auto summary = dse::verify_snapshot(snap_path);
  const double verify_seconds = now_seconds() - t0;
  if (!summary.ok()) {
    std::fprintf(stderr, "verify failed: %s\n",
                 summary.error_message().c_str());
    return 1;
  }

  std::printf("{\n");
  std::printf("  \"bench\": \"snapshot_warmstart\",\n");
  std::printf("  \"kernel\": \"sor\", \"nd\": %u, \"variants\": %zu,\n", nd,
              variants);
  std::printf("  \"snapshot_bytes\": %llu,\n",
              static_cast<unsigned long long>(snapshot_bytes));
  std::printf("  \"cold\": {\"sweep_seconds\": %g},\n", cold_seconds);
  std::printf("  \"save\": {\"seconds\": %g},\n", save_seconds);
  std::printf(
      "  \"warm\": {\"load_seconds\": %g, \"sweep_seconds\": %g, "
      "\"save_seconds\": %g, \"total_seconds\": %g, "
      "\"variant_hits\": %llu, \"misses\": %llu},\n",
      load_seconds, warm_seconds, clean_save_seconds, warm_total,
      static_cast<unsigned long long>(warm_variant_hits),
      static_cast<unsigned long long>(warm_misses));
  std::printf("  \"verify\": {\"seconds\": %g, \"mb_per_sec\": %g},\n",
              verify_seconds,
              verify_seconds > 0
                  ? (static_cast<double>(snapshot_bytes) / 1e6) / verify_seconds
                  : 0.0);
  std::printf("  \"warm_clean_save_seconds\": %g,\n", clean_save_seconds);
  std::printf("  \"warm_speedup_vs_cold\": %g\n",
              warm_total > 0 ? cold_seconds / warm_total : 0.0);
  std::printf("}\n");

  std::remove(snap_path.c_str());
  if (warm_misses != 0 || warm_variant_hits == 0) {
    std::fprintf(stderr,
                 "warm start did not hit the variant level "
                 "(hits=%llu misses=%llu)\n",
                 static_cast<unsigned long long>(warm_variant_hits),
                 static_cast<unsigned long long>(warm_misses));
    return 1;
  }
  if (warm_wrote) {
    std::fprintf(stderr, "the warm rerun rewrote an unchanged snapshot\n");
    return 1;
  }
  return 0;
}
