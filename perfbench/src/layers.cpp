// The traced run's layer probes. Inner layers are hidden inside
// Session::run and the daemon, so each distinct design of the workload is
// replayed once, single-threaded, through the public function of each
// layer (key, lower, digest, summarize, cost_design, CostCache), and the
// outer layers (calibration, skyline, rendering, JSON, frames, the
// daemon round trip, snapshots, the tytra-cc process) are timed on the
// workload's own inputs.

#include <unistd.h>

#include <map>
#include <set>

#include "perfbench.hpp"
#include "tytra/cost/report.hpp"
#include "tytra/frontend/transform.hpp"
#include "tytra/ir/analysis.hpp"
#include "tytra/ir/structural_hash.hpp"
#include "tytra/kernels/registry.hpp"
#include "tytra/support/json.hpp"
#include "tytra/target/device.hpp"

namespace perfbench {
namespace {

using namespace tytra;

double us_since(double t0) { return (now_s() - t0) * 1e6; }
double ms_since(double t0) { return (now_s() - t0) * 1e3; }

std::size_t instr_count(const ir::Module& m) {
  std::size_t n = 0;
  for (const auto& f : m.functions) n += f.instructions().size();
  return n;
}

}  // namespace

void run_layer_probes(const Options& opt, const ProbeInput& in, Metrics& out) {
  const int reps = opt.quick ? 2 : 10;

  // cost: calibration per preset.
  std::vector<double> calibrate_us;
  std::map<std::string, cost::DeviceCostDb> dbs;
  for (int rep = 0; rep < reps; ++rep) {
    for (const auto& name : preset_names()) {
      const auto desc = target::preset(name);
      const double t0 = now_s();
      cost::DeviceCostDb db = cost::DeviceCostDb::calibrate(*desc);
      calibrate_us.push_back(us_since(t0));
      if (rep == 0) dbs.emplace(name, std::move(db));
    }
  }
  add_dist(out, "cost.calibrate_us", "us", calibrate_us);

  std::set<std::pair<const dse::Lowerer*, std::string>> seen;
  std::vector<ProbeInput::Design> distinct;
  for (const auto& d : in.designs) {
    if (seen.insert({d.lowerer.get(), d.device}).second) distinct.push_back(d);
  }

  // Replay: every distinct design once, single-threaded.
  std::vector<double> key_us, lower_builtin_us, lower_file_us, instrs,
      digest_us, summarize_us, cost_us, miss_us, hit_us;
  double miss_total_s = 0;
  dse::CostCache cache;
  for (const auto& d : distinct) {
    const cost::DeviceCostDb& db = dbs.at(d.device);
    for (const auto& v : frontend::enumerate_variants(d.n, d.max_lanes)) {
      double t0 = now_s();
      const auto key = d.lowerer->key(v);
      key_us.push_back(us_since(t0));
      require(key.has_value(), "probe: keyless lowerer");

      t0 = now_s();
      const ir::Module m = d.lowerer->lower(v);
      (d.file ? lower_file_us : lower_builtin_us).push_back(us_since(t0));
      instrs.push_back(static_cast<double>(instr_count(m)));

      t0 = now_s();
      const auto digest = ir::structural_digest(m);
      digest_us.push_back(us_since(t0));
      (void)digest;

      t0 = now_s();
      const ir::AnalysisSummary summary = ir::summarize(m);
      summarize_us.push_back(us_since(t0));

      t0 = now_s();
      const cost::CostReport report = cost::cost_design(m, db, summary);
      cost_us.push_back(us_since(t0));
      (void)report;

      dse::CostCache::HitLevel level{};
      t0 = now_s();
      cache.cost(v, *d.lowerer, db, &level);
      const double miss = now_s() - t0;
      if (level == dse::CostCache::HitLevel::Miss) {
        miss_us.push_back(miss * 1e6);
        miss_total_s += miss;
      }
      t0 = now_s();
      cache.cost(v, *d.lowerer, db, &level);
      hit_us.push_back(us_since(t0));
      require(level == dse::CostCache::HitLevel::Variant,
              "probe: repeat lookup was not a variant-key hit");
    }
  }
  add_dist(out, "kernels.key_us", "us", key_us);
  add_dist(out, "kernels.lower_builtin_us", "us", lower_builtin_us);
  add_dist(out, "kernels.lower_file_us", "us", lower_file_us);
  out["kernels.ir_instrs.p50"] = {percentile(instrs, 50), "count"};
  out["kernels.ir_instrs.p90"] = {percentile(instrs, 90), "count"};
  add_dist(out, "ir.digest_us", "us", digest_us);
  add_dist(out, "ir.summarize_us", "us", summarize_us);
  add_dist(out, "cost.cost_design_us", "us", cost_us);
  add_dist(out, "dse.cache.miss_us", "us", miss_us);
  add_dist(out, "dse.cache.hit_us", "us", hit_us);

  // The same designs as one campaign on the session pool: how much of
  // the single-thread miss time the workers recover.
  const unsigned workers = campaign_workers();
  dse::SessionOptions so;
  so.num_threads = workers;
  dse::Session session(so);
  const auto names = add_presets(session);
  dse::Campaign campaign;
  for (const auto& d : distinct) {
    dse::Job j;
    j.workload = "probe";
    j.n = d.n;
    j.lower = d.lowerer;
    j.device = names.at(d.device);
    j.max_lanes = d.max_lanes;
    campaign.jobs.push_back(std::move(j));
  }
  double t0 = now_s();
  const dse::CampaignResult result = session.run(campaign);
  const double run_s = now_s() - t0;
  out["dse.session.parallel_eff"] = {
      run_s > 0 ? miss_total_s / (run_s * workers) : 0, "ratio"};

  // Skyline: each job's frontier and the campaign's merged view.
  std::vector<double> skyline_us;
  std::vector<dse::ParetoPoint> merged;
  for (const auto& jr : result.jobs) {
    t0 = now_s();
    (void)dse::detail::skyline_keep(jr.result.pareto);
    skyline_us.push_back(us_since(t0));
    merged.insert(merged.end(), jr.result.pareto.begin(),
                  jr.result.pareto.end());
  }
  for (int rep = 0; rep < reps; ++rep) {
    t0 = now_s();
    (void)dse::detail::skyline_keep(merged);
    skyline_us.push_back(us_since(t0));
  }
  add_dist(out, "dse.session.skyline_us", "us", skyline_us);

  // Rendering and parsing every job's sweep.
  std::vector<double> render_us, render_bytes, parse_us;
  for (const auto& jr : result.jobs) {
    t0 = now_s();
    const std::string text = dse::format_sweep_json(jr.result);
    render_us.push_back(us_since(t0));
    render_bytes.push_back(static_cast<double>(text.size()));
    t0 = now_s();
    const auto parsed = json::parse(text);
    parse_us.push_back(us_since(t0));
    require(parsed.ok(), "probe: rendered JSON does not parse");
  }
  add_dist(out, "dse.render.json_us", "us", render_us);
  out["dse.render.bytes.p50"] = {percentile(render_bytes, 50), "bytes"};
  add_dist(out, "support.json.parse_us", "us", parse_us);

  // Snapshots of the warmed session: save, and a Session constructed
  // from the file.
  const std::string snap = opt.work_dir + "/probe.snap";
  std::vector<double> save_ms, load_ms;
  double bytes = 0;
  const double snap_deadline = now_s() + 2;
  for (int rep = 0; rep < reps && (rep < 3 || now_s() < snap_deadline); ++rep) {
    t0 = now_s();
    const auto written = session.save_snapshot(snap);
    save_ms.push_back(ms_since(t0));
    require(written.ok(), "probe: snapshot save failed");
    bytes = static_cast<double>(written.value());
    dse::SessionOptions lo;
    lo.snapshot_path = snap;
    t0 = now_s();
    const dse::Session loaded(lo);
    load_ms.push_back(ms_since(t0));
  }
  add_dist(out, "dse.snapshot.save_ms", "ms", save_ms);
  add_dist(out, "dse.snapshot.load_ms", "ms", load_ms);
  out["dse.snapshot.bytes"] = {bytes, "bytes"};

  // The daemon: the protocol floor (ping) and what a warm explore costs
  // over the wire beyond in-process execute + render.
  Child own;
  std::string socket = in.socket;
  if (socket.empty()) {
    socket = opt.work_dir + "/probe.sock";
    own.start({opt.dsed_bin, "--socket", socket, "--jobs", "1"});
  }
  const int fd = connect_retry(socket, 10);
  require(fd >= 0, "probe: cannot connect to tytra-dsed");
  std::vector<double> ping_us, overhead_us;
  for (int i = 0; i < reps * 20; ++i) {
    t0 = now_s();
    const Exchange ex = round_trip(fd, "{\"cmd\": \"ping\"}");
    ping_us.push_back(us_since(t0));
    require(ex.type == "pong", "probe: no pong");
  }
  dse::SessionOptions warm_opts;
  warm_opts.num_threads = 1;
  dse::Session warm(warm_opts);
  const auto warm_names = add_presets(warm);
  for (int rep = 0; rep < reps + 1; ++rep) {
    for (const auto& r : in.requests) {
      auto job = kernels::Registry::instance().make_job(r.kernel, r.nd);
      require(job.ok(), "probe: cannot build job");
      dse::Job j = std::move(job).take();
      j.device = warm_names.at(r.device);
      j.max_lanes = in.request_lanes;
      t0 = now_s();
      const std::string local = dse::format_sweep_json(warm.explore(j));
      const double local_us = us_since(t0);
      t0 = now_s();
      const Exchange ex = round_trip(fd, explore_request(r, in.request_lanes));
      const double remote_us = us_since(t0);
      require(ex.transport_ok && ex.exit_code == 0, "probe: explore failed");
      require(normalize_answer(ex.stdout_text) == normalize_answer(local),
              "probe: daemon and in-process answers differ");
      if (rep > 0) overhead_us.push_back(remote_us - local_us);  // rep 0 warms
    }
  }
  if (own.running()) round_trip(fd, "{\"cmd\": \"shutdown\"}");
  ::close(fd);
  if (own.running()) own.wait(nullptr);
  add_dist(out, "support.framing.ping_us", "us", ping_us);
  add_dist(out, "dse.server.overhead_us", "us", overhead_us);

  // tools: the tytra-cc process floor, and an explore without --snapshot.
  std::vector<double> floor_ms, nosnap_ms;
  const auto& r0 = in.requests.front();
  for (int rep = 0; rep < reps * 2; ++rep) {
    ProcResult p = run_process({opt.cc_bin, "list", "--names"});
    require(p.exit_code == 0, "probe: tytra-cc list failed");
    floor_ms.push_back(p.seconds * 1e3);
    p = run_process({opt.cc_bin, "explore", r0.kernel, "--nd",
                     std::to_string(r0.nd), "--device", r0.device, "--json"});
    require(p.exit_code == 0, "probe: tytra-cc explore failed");
    nosnap_ms.push_back(p.seconds * 1e3);
  }
  add_dist(out, "tools.cc_floor_ms", "ms", floor_ms);
  add_dist(out, "tools.cc_nosnap_ms", "ms", nosnap_ms);
}

}  // namespace perfbench
