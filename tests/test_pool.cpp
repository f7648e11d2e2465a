// Tests for the persistent dse::ThreadPool and the campaign-wide
// scheduler built on it: worker-index pinning (the per-worker arena
// contract), batch semantics and exception propagation, campaign output
// byte-identity across thread counts, flattened-vs-job-by-job parity,
// one lowering per design across a campaign's devices, and a sanitizer
// hammer (two sessions sharing one cache_override while each reuses its
// pool across explore/tune/campaign) for TSan CI runs.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <regex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "tytra/dse/pool.hpp"
#include "tytra/dse/session.hpp"
#include "tytra/kernels/kernels.hpp"
#include "tytra/kernels/registry.hpp"

namespace {

using namespace tytra;
using kernels::Registry;

// --------------------------------------------------------------------------
// ThreadPool
// --------------------------------------------------------------------------

TEST(Pool, RunsEveryParticipantExactlyOnceWithDistinctIndices) {
  dse::ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);

  std::vector<std::atomic<int>> ran(4);
  pool.run_batch(4, [&](std::uint32_t index) {
    ASSERT_LT(index, 4u);
    ran[index].fetch_add(1);
  });
  for (int i = 0; i < 4; ++i) EXPECT_EQ(ran[i].load(), 1) << "index " << i;
}

TEST(Pool, CallerIsParticipantZeroAndWorkerIndicesArePinned) {
  // Worker index i must map to the same OS thread across batches — the
  // contract that makes the session's per-worker arenas race-free.
  dse::ThreadPool pool(3);
  std::mutex mu;
  std::map<std::uint32_t, std::set<std::thread::id>> ids;
  for (int batch = 0; batch < 8; ++batch) {
    pool.run_batch(4, [&](std::uint32_t index) {
      std::lock_guard<std::mutex> lock(mu);
      ids[index].insert(std::this_thread::get_id());
    });
  }
  ASSERT_EQ(ids.size(), 4u);
  for (const auto& [index, threads] : ids) {
    EXPECT_EQ(threads.size(), 1u) << "index " << index
                                  << " migrated between threads";
  }
  EXPECT_EQ(*ids[0].begin(), std::this_thread::get_id());
}

TEST(Pool, NarrowBatchesDraftOnlyLowIndices) {
  dse::ThreadPool pool(7);
  std::vector<std::atomic<int>> ran(8);
  pool.run_batch(2, [&](std::uint32_t index) { ran[index].fetch_add(1); });
  EXPECT_EQ(ran[0].load(), 1);
  EXPECT_EQ(ran[1].load(), 1);
  for (int i = 2; i < 8; ++i) EXPECT_EQ(ran[i].load(), 0) << "index " << i;
  // participants == 1 runs inline on the caller.
  const std::thread::id caller = std::this_thread::get_id();
  pool.run_batch(1, [&](std::uint32_t index) {
    EXPECT_EQ(index, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ran[0].fetch_add(1);
  });
  EXPECT_EQ(ran[0].load(), 2);
}

TEST(Pool, RejectsBadBatches) {
  dse::ThreadPool pool(1);
  EXPECT_THROW(pool.run_batch(3, [](std::uint32_t) {}),
               std::invalid_argument);
  EXPECT_THROW(pool.run_batch(2, dse::ThreadPool::BatchFn{}),
               std::invalid_argument);
  // Zero participants is a no-op, not an error.
  pool.run_batch(0, [](std::uint32_t) { FAIL() << "must not run"; });
}

TEST(Pool, ExceptionsPropagateAndThePoolStaysUsable) {
  dse::ThreadPool pool(3);
  // Thrown on a pool worker.
  EXPECT_THROW(pool.run_batch(4,
                              [](std::uint32_t index) {
                                if (index == 2) {
                                  throw std::runtime_error("worker boom");
                                }
                              }),
               std::runtime_error);
  // Thrown on the caller (participant 0).
  EXPECT_THROW(pool.run_batch(4,
                              [](std::uint32_t index) {
                                if (index == 0) {
                                  throw std::runtime_error("caller boom");
                                }
                              }),
               std::runtime_error);
  // The pool is not wedged: the next batch completes normally.
  std::atomic<int> done{0};
  pool.run_batch(4, [&](std::uint32_t) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 4);
}

TEST(Pool, CountsSuppressedExceptionsAcrossBatches) {
  // Only one exception can be rethrown per batch; the losers must be
  // counted, not silently dropped. The counter is cumulative over the
  // pool's lifetime and untouched by single-fault or clean batches.
  dse::ThreadPool pool(3);
  EXPECT_EQ(pool.suppressed_exception_count(), 0u);

  // All four participants throw: one rethrown, three suppressed.
  EXPECT_THROW(pool.run_batch(4,
                              [](std::uint32_t index) {
                                throw std::runtime_error(
                                    "boom " + std::to_string(index));
                              }),
               std::runtime_error);
  EXPECT_EQ(pool.suppressed_exception_count(), 3u);

  // A single-fault batch suppresses nothing.
  EXPECT_THROW(pool.run_batch(4,
                              [](std::uint32_t index) {
                                if (index == 1) {
                                  throw std::runtime_error("lone fault");
                                }
                              }),
               std::runtime_error);
  EXPECT_EQ(pool.suppressed_exception_count(), 3u);

  // Two faults (caller + one worker): one more suppressed, cumulatively.
  EXPECT_THROW(pool.run_batch(4,
                              [](std::uint32_t index) {
                                if (index <= 1) {
                                  throw std::runtime_error("pair fault");
                                }
                              }),
               std::runtime_error);
  EXPECT_EQ(pool.suppressed_exception_count(), 4u);

  // A clean batch leaves the count alone and the pool usable.
  std::atomic<int> done{0};
  pool.run_batch(4, [&](std::uint32_t) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 4);
  EXPECT_EQ(pool.suppressed_exception_count(), 4u);
}

TEST(Pool, DrainsASharedCursorCorrectly) {
  // The DSE usage pattern: the batch function drains an atomic cursor,
  // every item claimed exactly once across participants.
  dse::ThreadPool pool(3);
  constexpr int kItems = 10000;
  for (int rep = 0; rep < 5; ++rep) {
    std::atomic<int> cursor{0};
    std::vector<std::atomic<int>> claimed(kItems);
    pool.run_batch(4, [&](std::uint32_t) {
      for (;;) {
        const int i = cursor.fetch_add(1);
        if (i >= kItems) return;
        claimed[i].fetch_add(1);
      }
    });
    for (int i = 0; i < kItems; ++i) ASSERT_EQ(claimed[i].load(), 1);
  }
}

// --------------------------------------------------------------------------
// Campaign-wide scheduling
// --------------------------------------------------------------------------

dse::Campaign small_jobs_campaign() {
  // Many small jobs with repeats — the serving shape the flattened
  // scheduler exists for. 11 jobs across 3 kernels x sizes x 2 devices,
  // the last two repeating earlier {workload, size, device} points.
  dse::Campaign campaign;
  auto add = [&](const char* kernel, std::uint32_t nd, const char* device) {
    auto job = Registry::instance().make_job(kernel, nd);
    ASSERT_TRUE(job.ok()) << job.error_message();
    dse::Job j = std::move(job).take();
    j.device = device;
    campaign.jobs.push_back(std::move(j));
  };
  for (const char* device : {"fig15-profile", "stratix-v-gsd8"}) {
    add("sor", 8, device);
    add("sor", 12, device);
    add("hotspot", 12, device);
    add("lavamd", 48, device);
  }
  add("sor", 8, "fig15-profile");      // repeat of job 0
  add("hotspot", 12, "stratix-v-gsd8");  // repeat of job 6
  add("sor", 12, "fig15-profile");     // repeat of job 1
  return campaign;
}

dse::SessionOptions threaded(std::uint32_t num_threads) {
  dse::SessionOptions so;
  so.num_threads = num_threads;
  return so;
}

void add_two_devices(dse::Session& session) {
  session.add_device(*target::preset("fig15"));
  session.add_device(*target::preset("stratix-v-gsd8"));
}

/// Wall times are the one legitimately nondeterministic part of the JSON
/// renderings; blank them so the rest can be compared byte for byte.
std::string scrub_seconds(const std::string& json) {
  static const std::regex seconds_re(
      "(\"(?:explore_)?seconds\": )[-+0-9.eE]+");
  return std::regex_replace(json, seconds_re, "$1#");
}

TEST(CampaignScheduling, OutputIsByteIdenticalAcrossThreadCounts) {
  dse::Session base(threaded(1));
  add_two_devices(base);
  const dse::CampaignResult expected = base.run(small_jobs_campaign());

  const std::string expected_table = dse::format_campaign(expected);
  const std::string expected_pareto = dse::format_campaign_pareto(expected);
  const std::string expected_json =
      scrub_seconds(dse::format_campaign_json(expected));

  for (const std::uint32_t threads : {2u, 8u}) {
    dse::Session session(threaded(threads));
    add_two_devices(session);
    const dse::CampaignResult result = session.run(small_jobs_campaign());
    EXPECT_EQ(dse::format_campaign(result), expected_table)
        << "threads=" << threads;
    EXPECT_EQ(dse::format_campaign_pareto(result), expected_pareto)
        << "threads=" << threads;
    EXPECT_EQ(scrub_seconds(dse::format_campaign_json(result)), expected_json)
        << "threads=" << threads;
    ASSERT_EQ(result.jobs.size(), expected.jobs.size());
    for (std::size_t j = 0; j < result.jobs.size(); ++j) {
      EXPECT_EQ(dse::format_sweep(result.jobs[j].result),
                dse::format_sweep(expected.jobs[j].result))
          << "threads=" << threads << " job " << j;
      EXPECT_EQ(dse::format_pareto(result.jobs[j].result),
                dse::format_pareto(expected.jobs[j].result))
          << "threads=" << threads << " job " << j;
    }
  }
}

TEST(CampaignScheduling, FlattenedRunMatchesJobByJobExplore) {
  // The flattened two-wave schedule must attribute exactly the per-job
  // results (entries, best, frontier, hit/miss/variant stats) that
  // running the same jobs one at a time through an identical session
  // produces — including the repeats answering at the variant-key level.
  dse::Campaign campaign = small_jobs_campaign();
  dse::Session flat(threaded(4));
  add_two_devices(flat);
  const dse::CampaignResult result = flat.run(campaign);

  dse::Session serial(threaded(4));
  add_two_devices(serial);
  ASSERT_EQ(result.jobs.size(), campaign.jobs.size());
  for (std::size_t j = 0; j < campaign.jobs.size(); ++j) {
    const dse::DseResult reference = serial.explore(campaign.jobs[j]);
    const dse::DseResult& got = result.jobs[j].result;
    EXPECT_EQ(dse::format_sweep(got), dse::format_sweep(reference))
        << "job " << j;
    EXPECT_EQ(got.cache_stats.misses, reference.cache_stats.misses)
        << "job " << j;
    EXPECT_EQ(got.cache_stats.hits, reference.cache_stats.hits)
        << "job " << j;
    EXPECT_EQ(got.cache_stats.variant_hits,
              reference.cache_stats.variant_hits)
        << "job " << j;
  }

  // The repeats were deduplicated out of the evaluation wave: they cost
  // no lowering at all (every lookup answers at the variant-key level).
  const auto& repeat = result.jobs[result.jobs.size() - 1].result;
  EXPECT_EQ(repeat.cache_stats.misses, 0u);
  EXPECT_EQ(repeat.cache_stats.variant_hits, repeat.entries.size());
}

TEST(CampaignScheduling, RunAcceptsACacheOverride) {
  // run() joins explore/tune in accepting a cache_override, so several
  // sessions can campaign against one shared cache.
  dse::CostCache shared;
  dse::SessionOptions so;
  so.enable_cache = false;  // the session owns none; the override is it
  dse::Session session(so);
  session.add_device(*target::preset("fig15"));

  dse::Campaign campaign;
  auto job = Registry::instance().make_job("sor", 8);
  ASSERT_TRUE(job.ok());
  campaign.jobs.push_back(std::move(job).take());

  const dse::CampaignResult cold = session.run(campaign, &shared);
  EXPECT_EQ(cold.cache_stats.misses, cold.jobs[0].result.entries.size());
  const dse::CampaignResult warm = session.run(campaign, &shared);
  EXPECT_EQ(warm.cache_stats.variant_hits,
            warm.jobs[0].result.entries.size());
  EXPECT_EQ(dse::format_sweep(warm.jobs[0].result),
            dse::format_sweep(cold.jobs[0].result));

  // Without the override the session is uncached: stats stay zero while
  // the designs themselves are unchanged (format_campaign embeds the
  // stats line, so compare the per-job sweep instead).
  const dse::CampaignResult uncached = session.run(campaign);
  EXPECT_EQ(uncached.cache_stats.lookups(), 0u);
  EXPECT_EQ(dse::format_sweep(uncached.jobs[0].result),
            dse::format_sweep(cold.jobs[0].result));
}

// --------------------------------------------------------------------------
// Cross-device design sharing
// --------------------------------------------------------------------------

/// How often a campaign materialized each design: lower() calls per
/// variant key, plus the key-less calls.
struct LowerCounts {
  std::mutex mu;
  std::map<std::pair<std::uint64_t, std::uint64_t>, int> by_key;
  int keyless{0};
};

/// Forwards to a real lowerer and counts its lower() calls. With
/// `keyed == false` it promises no key, like dse::FnLowerer.
class CountingLowerer final : public dse::Lowerer {
 public:
  CountingLowerer(std::shared_ptr<const dse::Lowerer> real,
                  std::shared_ptr<LowerCounts> counts, bool keyed)
      : real_(std::move(real)), counts_(std::move(counts)), keyed_(keyed) {}

  [[nodiscard]] std::optional<dse::VariantKey> key(
      const frontend::Variant& v) const override {
    if (!keyed_) return std::nullopt;
    return real_->key(v);
  }
  [[nodiscard]] ir::Module lower(const frontend::Variant& v,
                                 ir::BuildArena* arena) const override {
    {
      std::lock_guard<std::mutex> lock(counts_->mu);
      if (keyed_) {
        const dse::VariantKey k = *real_->key(v);
        ++counts_->by_key[{k.key, k.check}];
      } else {
        ++counts_->keyless;
      }
    }
    return real_->lower(v, arena);
  }

 private:
  std::shared_ptr<const dse::Lowerer> real_;
  std::shared_ptr<LowerCounts> counts_;
  bool keyed_;
};

void add_three_devices(dse::Session& session) {
  for (const char* name : {"fig15", "stratix-v-gsd8", "virtex7-690t"}) {
    session.add_device(*target::preset(name));
  }
}

/// sor and hotspot on each of three devices, a key-less lavamd job on two
/// of them, and two repeats. Every lowerer counts into `counts`.
dse::Campaign three_device_campaign(const dse::Session& session,
                                   const std::shared_ptr<LowerCounts>& counts) {
  dse::Campaign campaign;
  auto add = [&](const char* kernel, std::uint32_t nd,
                 const std::string& device, bool keyed) {
    auto job = Registry::instance().make_job(kernel, nd);
    EXPECT_TRUE(job.ok()) << job.error_message();
    dse::Job j = std::move(job).take();
    j.lower = std::make_shared<CountingLowerer>(j.lower, counts, keyed);
    j.device = device;
    campaign.jobs.push_back(std::move(j));
  };
  const auto& devices = session.device_names();
  for (const std::string& device : devices) {
    add("sor", 8, device, true);
    add("hotspot", 12, device, true);
  }
  add("lavamd", 48, devices[0], false);
  add("lavamd", 48, devices[1], false);
  add("sor", 8, devices[0], true);      // repeat of job 0
  add("hotspot", 12, devices[2], true);  // repeat of job 5
  return campaign;
}

TEST(CampaignScheduling, ThreeDeviceCampaignLowersEachDesignOnce) {
#ifdef NDEBUG
  constexpr int kCrossCheckLowerings = 0;
#else
  // Debug builds re-lower each variant-key hit once to cross-check it.
  constexpr int kCrossCheckLowerings = 1;
#endif
  for (const std::uint32_t threads : {1u, 2u, 8u}) {
    dse::Session session(threaded(threads));
    add_three_devices(session);
    const auto counts = std::make_shared<LowerCounts>();
    const dse::CampaignResult result =
        session.run(three_device_campaign(session, counts));
    ASSERT_EQ(result.jobs.size(), 10u);
    ASSERT_EQ(result.degraded(), 0u);

    // Wave 1 lowers each keyed design once for all three devices; the
    // wave-2 repeats (jobs 8 and 9, whose designs are exactly sor 8 and
    // hotspot 12) answer at the variant-key level without lowering.
    const std::size_t keyed_designs = result.jobs[0].result.entries.size() +
                                      result.jobs[1].result.entries.size();
    EXPECT_EQ(counts->by_key.size(), keyed_designs) << "threads=" << threads;
    for (const auto& [key, calls] : counts->by_key) {
      EXPECT_EQ(calls, 1 + kCrossCheckLowerings) << "threads=" << threads;
    }
    // Key-less variants are one-target designs: lowered once per job.
    EXPECT_EQ(counts->keyless,
              static_cast<int>(result.jobs[6].result.entries.size() +
                               result.jobs[7].result.entries.size()))
        << "threads=" << threads;

    // Sharing the lowering leaves per-device accounting alone: every
    // first-seen job misses once per variant, every repeat hits.
    for (std::size_t j = 0; j < 8; ++j) {
      const auto& r = result.jobs[j].result;
      EXPECT_EQ(r.cache_stats.misses, r.entries.size())
          << "threads=" << threads << " job " << j;
      EXPECT_EQ(r.cache_stats.hits, 0u);
    }
    for (const std::size_t j : {std::size_t{8}, std::size_t{9}}) {
      const auto& r = result.jobs[j].result;
      EXPECT_EQ(r.cache_stats.variant_hits, r.entries.size())
          << "threads=" << threads << " job " << j;
      EXPECT_EQ(r.cache_stats.misses, 0u);
    }
  }
}

TEST(CampaignScheduling, ThreeDeviceCampaignMatchesAcrossThreadsAndJobByJob) {
  const auto counts = std::make_shared<LowerCounts>();
  dse::Session base(threaded(1));
  add_three_devices(base);
  const dse::Campaign campaign = three_device_campaign(base, counts);
  const dse::CampaignResult expected = base.run(campaign);
  const std::string expected_table = dse::format_campaign(expected);
  const std::string expected_pareto = dse::format_campaign_pareto(expected);
  const std::string expected_json =
      scrub_seconds(dse::format_campaign_json(expected));

  for (const std::uint32_t threads : {2u, 8u}) {
    dse::Session session(threaded(threads));
    add_three_devices(session);
    const dse::CampaignResult result = session.run(campaign);
    EXPECT_EQ(dse::format_campaign(result), expected_table)
        << "threads=" << threads;
    EXPECT_EQ(dse::format_campaign_pareto(result), expected_pareto)
        << "threads=" << threads;
    EXPECT_EQ(scrub_seconds(dse::format_campaign_json(result)), expected_json)
        << "threads=" << threads;
  }

  // The same jobs explored one at a time through an identical session
  // render the same campaign, stats included.
  dse::Session serial(threaded(4));
  add_three_devices(serial);
  dse::CampaignResult by_job;
  for (const dse::Job& job : campaign.jobs) {
    dse::CampaignJobResult jr;
    jr.job = job;
    jr.result = serial.explore(job);
    by_job.cache_stats.hits += jr.result.cache_stats.hits;
    by_job.cache_stats.misses += jr.result.cache_stats.misses;
    by_job.cache_stats.variant_hits += jr.result.cache_stats.variant_hits;
    by_job.jobs.push_back(std::move(jr));
  }
  by_job.pareto = dse::merged_frontier(by_job.jobs);
  EXPECT_EQ(dse::format_campaign(by_job), expected_table);
  EXPECT_EQ(dse::format_campaign_pareto(by_job), expected_pareto);
  EXPECT_EQ(scrub_seconds(dse::format_campaign_json(by_job)), expected_json);
}

// --------------------------------------------------------------------------
// Sanitizer hammer (run under TSan in CI)
// --------------------------------------------------------------------------

TEST(PoolHammer, TwoSessionsShareACacheAcrossExploreTuneAndCampaign) {
  // Two independent sessions — each with its own persistent pool and
  // arenas, both parallel — drive explore/tune/campaign concurrently
  // against ONE shared cache. Exercises: pool reuse across heterogeneous
  // batches, per-worker arena pinning, and the cache's lock-free read
  // path under cross-session mixed hit/miss traffic.
  dse::CostCache shared;
  std::atomic<int> failures{0};

  auto drive = [&](std::uint64_t seed) {
    try {
      dse::SessionOptions so;
      so.num_threads = 4;
      so.enable_cache = false;  // all caching through the shared override
      dse::Session session(so);
      session.add_device(*target::preset("fig15"));
      session.add_device(*target::preset("stratix-v-gsd8"));

      for (int round = 0; round < 3; ++round) {
        // Rotate which kernel each session leads with so the two
        // sessions keep colliding on warm and cold entries alike.
        const char* kernels[] = {"sor", "hotspot", "lavamd"};
        const char* kernel = kernels[(seed + round) % 3];
        auto job_r = Registry::instance().make_job(
            kernel, 8 + 4 * static_cast<std::uint32_t>((seed + round) % 2));
        ASSERT_TRUE(job_r.ok());
        dse::Job job = std::move(job_r).take();
        job.device = "fig15-profile";

        const auto swept = session.explore(job, &shared);
        if (swept.entries.empty()) failures.fetch_add(1);
        const auto tuned = session.tune(job, &shared);
        if (tuned.trajectory.empty()) failures.fetch_add(1);

        dse::Campaign campaign;
        for (const char* k : kernels) {
          auto r = Registry::instance().make_job(k, 12);
          ASSERT_TRUE(r.ok());
          dse::Job j = std::move(r).take();
          j.device = round % 2 ? "stratix-v-gsd8" : "fig15-profile";
          campaign.jobs.push_back(std::move(j));
        }
        const auto ran = session.run(campaign, &shared);
        if (ran.jobs.size() != campaign.jobs.size()) failures.fetch_add(1);
      }
    } catch (...) {
      failures.fetch_add(1);
    }
  };

  std::thread a(drive, 0);
  std::thread b(drive, 1);
  a.join();
  b.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(shared.stats().hits, 0u);
}

}  // namespace
