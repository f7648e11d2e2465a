// daemon-mixed: a real tytra-dsed serves three closed-loop client
// connections. A warm-up registers a working set of (kernel, nd, device)
// jobs; then each client sends a seeded mix, about 94% warm explore/tune
// requests on that working set and 6% cold ones (small campaigns and
// explores at a never-seen nd). Warm requests hit the variant-key table,
// so their time is frames, JSON, the scheduler hand-off and rendering.

#include <unistd.h>

#include <atomic>
#include <map>
#include <set>
#include <thread>

#include "perfbench.hpp"
#include "tytra/kernels/registry.hpp"
#include "tytra/support/json.hpp"

namespace perfbench {
namespace {

using namespace tytra;

constexpr std::uint32_t kLaneCap = 16;
constexpr int kMaxSteps = 12;
constexpr int kClients = 3;
/// The daemon's cache grows with every cold request, so its peak RSS is
/// read after a fixed number of ops: memory for a fixed amount of work,
/// whatever the speed.
constexpr std::uint64_t kRssAtOps = 20000;

/// Request classes and their shares (per mille). Sorted by latency the
/// classes are tune/explore (warm) then cold, so p50 and p90 fall inside
/// the warm classes and p99 inside the cold one.
enum class Cls { WarmExplore, WarmTune, ColdCampaign, ColdExplore };
const char* cls_name(Cls c) {
  switch (c) {
    case Cls::WarmExplore: return "warm-explore";
    case Cls::WarmTune: return "warm-tune";
    case Cls::ColdCampaign: return "cold-campaign";
    case Cls::ColdExplore: return "cold-explore";
  }
  return "?";
}
Cls draw_class(SplitMix64& rng) {
  const auto r = rng.uniform_int(0, 999);
  if (r < 700) return Cls::WarmExplore;
  if (r < 940) return Cls::WarmTune;
  if (r < 970) return Cls::ColdCampaign;
  return Cls::ColdExplore;
}

using WsJob = BuiltinJob;

std::string tune_req(const WsJob& j) {
  return "{\"cmd\": \"tune\", \"kernel\": \"" + j.kernel +
         "\", \"nd\": " + std::to_string(j.nd) + ", \"devices\": [\"" +
         j.device + "\"], \"max_lanes\": " + std::to_string(kLaneCap) +
         ", \"max_steps\": " + std::to_string(kMaxSteps) + ", \"json\": true}";
}

std::string campaign_req(const std::string& kernel, std::uint32_t nd) {
  std::string devs;
  for (const auto& d : preset_names()) {
    devs += (devs.empty() ? "\"" : ", \"") + d + "\"";
  }
  return "{\"cmd\": \"campaign\", \"kernels\": [\"" + kernel +
         "\"], \"nds\": [" + std::to_string(nd) + "], \"devices\": [" + devs +
         "], \"max_lanes\": " + std::to_string(kLaneCap) + ", \"json\": true}";
}

/// The in-process answers: one Session holding the three presets.
class Reference {
 public:
  Reference() : session_(make_options()), names_(add_presets(session_)) {}

  std::string explore(const std::string& kernel, std::uint32_t nd,
                      const std::string& device) {
    return normalize_answer(dse::format_sweep_json(
        session_.explore(job(kernel, nd, device))));
  }
  std::string tune(const WsJob& j) {
    dse::Job job_ = job(j.kernel, j.nd, j.device);
    job_.max_steps = kMaxSteps;
    return normalize_answer(dse::format_tune_json(session_.tune(job_)));
  }
  std::string campaign(const std::string& kernel, std::uint32_t nd) {
    dse::Campaign c;
    for (const auto& d : preset_names()) c.jobs.push_back(job(kernel, nd, d));
    return normalize_answer(dse::format_campaign_json(session_.run(c)));
  }

 private:
  static dse::SessionOptions make_options() {
    dse::SessionOptions so;
    so.max_lanes = kLaneCap;
    so.num_threads = 1;
    return so;
  }
  dse::Job job(const std::string& kernel, std::uint32_t nd,
               const std::string& device) {
    auto r = kernels::Registry::instance().make_job(kernel, nd);
    require(r.ok(), "cannot build job " + kernel);
    dse::Job j = std::move(r).take();
    j.device = names_.at(device);
    j.max_lanes = kLaneCap;
    return j;
  }

  dse::Session session_;
  std::map<std::string, std::string> names_;
};

/// A cold op whose answer is checked after the loop.
struct ColdOp {
  Cls cls;
  std::string kernel;
  std::uint32_t nd;
  std::string device;
  std::string answer;
};

struct ClientResult {
  std::vector<double> op_ms;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::uint64_t jobs{0};
  std::uint64_t variants{0};
  std::uint64_t lookups{0};
  std::uint64_t misses{0};
  std::uint64_t variant_hits{0};
  std::vector<ColdOp> cold;
  std::string check_error;  ///< first self-check failure
  Tracer tracer;
};

}  // namespace

RunOutcome run_daemon_mixed(const Options& opt) {
  RunOutcome out;
  const unsigned cores = hardware_threads();
  const unsigned jobs = cores > kClients + 1 ? cores - kClients : 1;
  const std::string socket = opt.work_dir + "/d.sock";
  const int setups = opt.quick ? 1 : 9;

  // Seeded inputs: the working set, and the novel (kernel, nd) schedule.
  SplitMix64 rng = seeded_rng(opt.seed, 0xd43);
  std::vector<WsJob> ws;
  for (const char* kernel : {"sor", "hotspot", "lavamd"}) {
    for (const std::uint32_t nd : draw_warm_nds(rng, opt.quick ? 1 : 2)) {
      for (const auto& dev : preset_names()) ws.push_back({kernel, nd, dev});
    }
  }
  const auto novel = novel_schedule(rng);

  // Reference answers for the warm classes.
  Reference ref;
  std::vector<std::string> ref_explore, ref_tune;
  for (const auto& j : ws) {
    ref_explore.push_back(ref.explore(j.kernel, j.nd, j.device));
    ref_tune.push_back(ref.tune(j));
  }
  if (opt.wrong_reference) {
    for (auto& r : ref_explore) r += " ";
    for (auto& r : ref_tune) r += " ";
  }

  // Setup, timed: daemon spawn, first pong, warm-up. Repeated for a
  // median; the last daemon serves the run.
  Child daemon;
  std::uint64_t expect_requests = 0, expect_jobs = 0;
  std::vector<double> setup_times;
  for (int rep = 0; rep < setups; ++rep) {
    const double t0 = now_s();
    daemon.start({opt.dsed_bin, "--socket", socket, "--jobs",
                  std::to_string(jobs), "--max-lanes",
                  std::to_string(kLaneCap)});
    const int fd = connect_retry(socket, 10);
    require(fd >= 0, "daemon-mixed: cannot connect to tytra-dsed");
    require(round_trip(fd, "{\"cmd\": \"ping\"}").type == "pong",
            "daemon-mixed: no pong");
    expect_requests = 1;
    expect_jobs = 0;
    for (const auto& j : ws) {
      for (const std::string& req :
           {explore_request(j, kLaneCap), tune_req(j)}) {
        const Exchange ex = round_trip(fd, req);
        require(ex.transport_ok && ex.exit_code == 0,
                "daemon-mixed: warm-up request failed");
        ++expect_requests;
        ++expect_jobs;
      }
    }
    setup_times.push_back(now_s() - t0);
    if (rep + 1 < setups) {
      round_trip(fd, "{\"cmd\": \"shutdown\"}");
      daemon.wait(nullptr);
    }
    ::close(fd);
  }
  out.setup_s = median(setup_times);

  // The closed loops: one connection per client thread.
  std::atomic<std::uint64_t> ops_done{0};
  std::atomic<bool> rss_read{false};
  const auto run_clients = [&](double seconds, bool traced,
                               std::vector<ClientResult>& results) {
    results = std::vector<ClientResult>(kClients);
    const std::uint64_t max_ops = opt.quick ? 8 : 0;
    const double t0 = now_s();
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        ClientResult& cr = results[static_cast<std::size_t>(c)];
        cr.tracer.enabled = traced;
        SplitMix64 crng = seeded_rng(
            opt.seed, 0xc0 + static_cast<std::uint64_t>(c) + (traced ? 8 : 0));
        std::size_t next_novel = static_cast<std::size_t>(c) +
                                 (traced ? novel.size() / 2 : 0);
        const int fd = connect_unix(socket);
        if (fd < 0) {
          cr.check_error = "cannot connect";
          return;
        }
        const OpClock clock(seconds, max_ops);
        while (clock.more(cr.attempted)) {
          const Cls cls = draw_class(crng);
          const auto w = static_cast<std::size_t>(
              crng.uniform_int(0, static_cast<std::int64_t>(ws.size()) - 1));
          ColdOp cold{cls, ws[w].kernel, 0, ws[w].device, {}};
          std::string req;
          switch (cls) {
            case Cls::WarmExplore:
              req = explore_request(ws[w], kLaneCap);
              break;
            case Cls::WarmTune:
              req = tune_req(ws[w]);
              break;
            case Cls::ColdCampaign:
            case Cls::ColdExplore:
              cold.kernel = novel[next_novel % novel.size()].first;
              cold.nd = novel[next_novel % novel.size()].second;
              next_novel += kClients;
              req = cls == Cls::ColdCampaign
                        ? campaign_req(cold.kernel, cold.nd)
                        : explore_request({cold.kernel, cold.nd, cold.device},
                                          kLaneCap);
              break;
          }
          const auto op = static_cast<std::int64_t>(
              cr.attempted * kClients + static_cast<std::uint64_t>(c));
          Exchange ex;
          double ms = 0;
          {
            Span s(&cr.tracer, "op.daemon-mixed", op, cls_name(cls));
            const double a = now_s();
            ex = round_trip(fd, req, &cr.tracer, op);
            ms = (now_s() - a) * 1e3;
          }
          cr.op_ms.push_back(ms);
          ++cr.attempted;
          if (ops_done.fetch_add(1) + 1 == kRssAtOps) {
            out.rss_mb = daemon.peak_rss_mb();
            rss_read = true;
          }
          if (!ex.transport_ok) {
            ++cr.failed;
            cr.check_error = "transport failure";
            break;
          }
          if (ex.exit_code != 0) {
            ++cr.failed;
            continue;
          }
          cr.jobs += cls == Cls::ColdCampaign ? preset_names().size() : 1;
          const std::uint64_t answered = answered_variants(ex.stdout_text);
          cr.variants += answered;
          if (cls != Cls::WarmTune) {
            const Counters k = cache_counters(ex.stdout_text);
            if (k.hits + k.misses != answered && cr.check_error.empty()) {
              cr.check_error = "hits + misses != variants answered";
            }
            if (cls == Cls::WarmExplore &&
                (k.misses != 0 || k.variant_hits != answered) &&
                cr.check_error.empty()) {
              cr.check_error = "a warm explore was not all variant-key hits";
            }
            cr.lookups += k.hits + k.misses;
            cr.misses += k.misses;
            cr.variant_hits += k.variant_hits;
          }
          if (cls == Cls::WarmExplore || cls == Cls::WarmTune) {
            const std::string& want =
                cls == Cls::WarmExplore ? ref_explore[w] : ref_tune[w];
            if (normalize_answer(ex.stdout_text) != want) ++cr.failed;
          } else {
            cold.answer = normalize_answer(ex.stdout_text);
            cr.cold.push_back(std::move(cold));
          }
        }
        ::close(fd);
      });
    }
    for (auto& t : threads) t.join();
    return now_s() - t0;
  };

  std::vector<ClientResult> results, traced_results;
  if (opt.trace) {
    out.loop_seconds = run_clients(opt.seconds / 2, false, results);
    run_clients(opt.seconds / 2, true, traced_results);
  } else {
    out.loop_seconds = run_clients(opt.seconds, false, results);
  }

  std::vector<ColdOp> cold;
  for (auto* set : {&results, &traced_results}) {
    const bool traced = set == &traced_results;
    for (auto& cr : *set) {
      require(cr.check_error.empty(), "daemon-mixed: " + cr.check_error);
      out.attempted += cr.attempted;
      out.failed += cr.failed;
      expect_requests += cr.attempted;
      expect_jobs += cr.jobs;
      auto& ms = traced ? out.traced_op_ms : out.op_ms;
      ms.insert(ms.end(), cr.op_ms.begin(), cr.op_ms.end());
      if (!traced) {
        out.variants += cr.variants;
        out.lookups += cr.lookups;
        out.misses += cr.misses;
        out.variant_hits += cr.variant_hits;
      }
      // Re-number the client's spans into one list.
      const int base = static_cast<int>(out.spans.size());
      for (auto s : cr.tracer.spans) {
        if (s.parent >= 0) s.parent += base;
        out.spans.push_back(std::move(s));
      }
      for (auto& c : cr.cold) cold.push_back(std::move(c));
    }
  }

  // The daemon's own accounting must match what was sent.
  {
    const int fd = connect_unix(socket);
    require(fd >= 0, "daemon-mixed: cannot reconnect");
    const Exchange pong = round_trip(fd, "{\"cmd\": \"ping\"}");
    ::close(fd);
    ++expect_requests;
    auto parsed = json::parse(pong.payload);
    require(parsed.ok(), "daemon-mixed: bad pong");
    const auto requests = parsed.value().get_number("requests").value_or(-1);
    const auto jobs_ok = parsed.value().get_number("jobs_ok").value_or(-1);
    require(static_cast<std::uint64_t>(requests) == expect_requests,
            "daemon-mixed: pong requests " + std::to_string(requests) +
                " != sent " + std::to_string(expect_requests));
    require(static_cast<std::uint64_t>(jobs_ok) == expect_jobs,
            "daemon-mixed: pong jobs_ok " + std::to_string(jobs_ok) +
                " != jobs sent " + std::to_string(expect_jobs));
  }

  if (opt.trace) {
    ProbeInput in;
    in.socket = socket;
    // The working set plus the first cold requests: the designs the
    // daemon evaluated from nothing.
    std::set<std::pair<std::string, std::uint32_t>> kn;
    for (const auto& j : ws) kn.insert({j.kernel, j.nd});
    for (std::size_t i = 0; i < cold.size() && i < 32; ++i) {
      kn.insert({cold[i].kernel, cold[i].nd});
    }
    for (const auto& [kernel, nd] : kn) {
      auto job = kernels::Registry::instance().make_job(kernel, nd);
      for (const auto& dev : preset_names()) {
        in.designs.push_back(
            {job.value().lower, false, job.value().n, kLaneCap, dev});
      }
    }
    in.add_gen_slice(opt.seed, kLaneCap);
    in.requests = ws;
    in.request_lanes = kLaneCap;
    run_layer_probes(opt, in, out.layer);
  }

  {
    if (!rss_read) out.rss_mb = daemon.peak_rss_mb();
    const int fd = connect_unix(socket);
    if (fd >= 0) {
      round_trip(fd, "{\"cmd\": \"shutdown\"}");
      ::close(fd);
    }
    require(daemon.wait(nullptr) == 0, "daemon-mixed: tytra-dsed exit");
  }

  // Cold answers against the in-process reference. The model's answers
  // against the simulator over the working set: the warm requests, whose
  // answers were just checked equal to the in-process model's.
  for (const auto& c : cold) {
    const std::string want = c.cls == Cls::ColdCampaign
                                 ? ref.campaign(c.kernel, c.nd)
                                 : ref.explore(c.kernel, c.nd, c.device);
    if (c.answer != want) ++out.failed;
  }
  out.est_err_max_pct = est_err_max_pct(ws, kLaneCap);
  return out;
}

}  // namespace perfbench
