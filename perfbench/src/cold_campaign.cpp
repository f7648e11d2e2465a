// cold-campaign: one op runs a campaign from nothing — a fresh Session,
// the three presets calibrated via add_device, Session::run over a seeded
// grid, and format_campaign_json. Every variant misses the cache, so the
// op time is lowering, digest, summarize and cost_design; the daemon, the
// snapshot and process start take no part.

#include <algorithm>
#include <map>
#include <set>

#include "perfbench.hpp"
#include "tytra/kernels/registry.hpp"
#include "tytra/target/device.hpp"

namespace perfbench {
namespace {

using namespace tytra;

constexpr std::uint32_t kLaneCap = 64;

/// One seeded campaign grid: {sor, hotspot, lavamd} x three nd values,
/// plus a slice of generated designs, each against the three presets.
/// Every grid has the same shape whatever the seed: the nd values are
/// powers of two from 64 (seven lane counts under the cap for every
/// kernel) and the generated designs are half with seven lane counts,
/// half with fifteen — so the seed changes the designs, not how many.
struct Grid {
  std::vector<std::pair<std::string, std::uint32_t>> builtins;
  std::vector<GenDesign> gens;
  std::string reference;  ///< normalized single-threaded answer
};

Grid draw_grid(SplitMix64& rng, std::size_t nds_per_kernel,
               std::size_t gen_count) {
  Grid g;
  for (const char* kernel : {"sor", "hotspot", "lavamd"}) {
    std::set<std::uint32_t> nds;
    while (nds.size() < nds_per_kernel) {
      nds.insert(64u << rng.uniform_int(0, 5));
    }
    for (const std::uint32_t nd : nds) g.builtins.emplace_back(kernel, nd);
  }
  g.gens = draw_gen_designs(rng, gen_count / 2, 7, kLaneCap);
  for (auto& gen : draw_gen_designs(rng, gen_count - gen_count / 2, 15,
                                    kLaneCap)) {
    g.gens.push_back(std::move(gen));
  }
  return g;
}

dse::Campaign build_campaign(const Grid& grid,
                             const std::vector<std::string>& devices) {
  const auto& reg = kernels::Registry::instance();
  dse::Campaign c;
  for (const auto& [kernel, nd] : grid.builtins) {
    auto job = reg.make_job(kernel, nd);
    require(job.ok(), "cannot build job " + kernel);
    for (const auto& dev : devices) {
      dse::Job j = job.value();
      j.device = dev;
      c.jobs.push_back(std::move(j));
    }
  }
  for (const auto& gen : grid.gens) {
    for (const auto& dev : devices) {
      dse::Job j;
      j.workload = "gen" + std::to_string(gen.seed % 100000);
      j.n = gen.baseline->meta.global_size;
      j.lower = gen.lowerer;
      j.device = dev;
      c.jobs.push_back(std::move(j));
    }
  }
  return c;
}

struct OpResult {
  std::string rendered;
  dse::CampaignResult result;
};

OpResult run_op(const Grid& grid, std::uint32_t threads, Tracer* tr,
                std::int64_t op) {
  dse::SessionOptions so;
  so.max_lanes = kLaneCap;
  so.num_threads = threads;
  OpResult out;
  std::unique_ptr<dse::Session> session;
  {
    Span s(tr, "dse.session.create", op);
    session = std::make_unique<dse::Session>(so);
  }
  std::vector<std::string> devices;
  {
    Span s(tr, "cost.calibrate", op);
    const auto names = add_presets(*session);
    for (const auto& name : preset_names()) devices.push_back(names.at(name));
  }
  dse::Campaign campaign;
  {
    Span s(tr, "kernels.make_jobs", op);
    campaign = build_campaign(grid, devices);
  }
  {
    Span s(tr, "dse.session.run", op);
    out.result = session->run(campaign);
  }
  {
    Span s(tr, "dse.render.json", op);
    out.rendered = dse::format_campaign_json(out.result);
  }
  {
    Span s(tr, "dse.session.destroy", op);
    session.reset();
  }
  return out;
}

std::uint64_t entry_count(const dse::CampaignResult& r) {
  std::uint64_t n = 0;
  for (const auto& jr : r.jobs) n += jr.result.entries.size();
  return n;
}

}  // namespace

RunOutcome run_cold_campaign(const Options& opt) {
  RunOutcome out;
  const std::uint32_t threads = campaign_workers();
  const std::size_t grid_count = opt.quick ? 2 : 8;
  const std::size_t nds_per_kernel = opt.quick ? 1 : 3;
  const std::size_t gen_count = opt.quick ? 2 : 16;
  const int setups = opt.quick ? 1 : 3;

  // Setup: input generation plus the single-threaded reference answers.
  // Repeated so setup_s is a median; the last repetition's state is used.
  std::vector<Grid> grids;
  std::vector<double> setup_times;
  for (int rep = 0; rep < setups; ++rep) {
    const double t0 = now_s();
    SplitMix64 rng = seeded_rng(opt.seed, 0xc01d);
    grids.clear();
    for (std::size_t g = 0; g < grid_count; ++g) {
      grids.push_back(draw_grid(rng, nds_per_kernel, gen_count));
      grids.back().reference =
          normalize_answer(run_op(grids.back(), 1, nullptr, -1).rendered);
    }
    setup_times.push_back(now_s() - t0);
  }
  out.setup_s = median(setup_times);
  if (opt.wrong_reference) {
    for (auto& g : grids) g.reference += " ";
  }

  // The op loop: ops cycle through the grids in a seeded order.
  SplitMix64 order = seeded_rng(opt.seed, 0x5eed);
  std::vector<dse::CampaignResult> kept(grids.size());
  // `tr` is null for the untraced loop, whose ops feed the rates.
  const auto loop = [&](std::vector<double>& op_ms, double seconds,
                        Tracer* tr) {
    const std::uint64_t max_ops = opt.quick ? 3 : 0;
    const OpClock clock(seconds, max_ops);
    const double t0 = now_s();
    std::uint64_t done = 0;
    while (clock.more(done)) {
      const auto g = static_cast<std::size_t>(
          order.uniform_int(0, static_cast<std::int64_t>(grids.size()) - 1));
      const auto op = static_cast<std::int64_t>(out.attempted);
      double ms = 0;
      OpResult r;
      {
        Span s(tr, "op.cold-campaign", op, "cold");
        const double a = now_s();
        r = run_op(grids[g], threads, tr, op);
        ms = (now_s() - a) * 1e3;
      }
      op_ms.push_back(ms);
      ++out.attempted;
      ++done;
      if (normalize_answer(r.rendered) != grids[g].reference) ++out.failed;
      const std::uint64_t entries = entry_count(r.result);
      const auto& cs = r.result.cache_stats;
      require(cs.hits + cs.misses == entries,
              "cold-campaign: hits + misses != variants answered");
      require(cs.variant_hits == 0,
              "cold-campaign: a variant-key hit in a campaign from nothing");
      if (tr == nullptr) {
        out.variants += entries;
        out.lookups += cs.hits + cs.misses;
        out.misses += cs.misses;
        out.variant_hits += cs.variant_hits;
      }
      kept[g] = std::move(r.result);
    }
    return now_s() - t0;
  };

  Tracer tracer;
  if (opt.trace) {
    // Half untraced, half traced: the gap is the tracing overhead.
    out.loop_seconds = loop(out.op_ms, opt.seconds / 2, nullptr);
    tracer.enabled = true;
    loop(out.traced_op_ms, opt.seconds / 2, &tracer);
    out.spans = std::move(tracer.spans);
  } else {
    out.loop_seconds = loop(out.op_ms, opt.seconds, nullptr);
  }
  out.rss_mb = self_peak_rss_mb();

  // Model answers vs the cycle simulator, outside the timed span: every
  // design of the seeded grids at lanes 1 and 4, as the last op on each
  // grid answered it.
  std::map<std::string, target::DeviceDesc> devices;
  for (const auto& name : preset_names()) {
    const auto desc = target::preset(name);
    devices.emplace(desc->name, *desc);
  }
  for (const auto& result : kept) {
    for (const auto& jr : result.jobs) {
      for (const auto& e : jr.result.entries) {
        const std::uint32_t lanes = e.variant.lanes();
        if (lanes != 1 && lanes != 4) continue;
        out.est_err_max_pct = std::max(
            out.est_err_max_pct,
            est_err_pct(jr.job.lower->lower(e.variant),
                        devices.at(jr.job.device),
                        e.report.throughput.cycles_per_instance));
      }
    }
  }

  if (opt.trace) {
    ProbeInput in;
    std::set<std::uint64_t> seen_gen;
    std::set<std::pair<std::string, std::uint32_t>> seen_builtin;
    for (const auto& grid : grids) {
      for (const auto& [kernel, nd] : grid.builtins) {
        if (!seen_builtin.insert({kernel, nd}).second) continue;
        auto job = kernels::Registry::instance().make_job(kernel, nd);
        for (const auto& dev : preset_names()) {
          in.designs.push_back(
              {job.value().lower, false, job.value().n, kLaneCap, dev});
        }
      }
      for (const auto& gen : grid.gens) {
        if (!seen_gen.insert(gen.seed).second) continue;
        for (const auto& dev : preset_names()) {
          in.designs.push_back(
              {gen.lowerer, true, gen.baseline->meta.global_size, kLaneCap, dev});
        }
      }
    }
    for (const auto& [kernel, nd] : grids.front().builtins) {
      in.requests.push_back({kernel, nd, preset_names().front()});
    }
    in.request_lanes = kLaneCap;
    run_layer_probes(opt, in, out.layer);
  }
  return out;
}

}  // namespace perfbench
