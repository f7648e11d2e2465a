// cli-snapshot: a designer re-runs the real tytra-cc (explore, tune,
// campaign; --json) with --snapshot, one invocation at a time. The
// snapshot is pre-warmed in setup by a 3 kernels x 3 sizes x 3 presets
// campaign and reset to that pristine copy before each op, outside the
// timed span. Process start, snapshot load and the save every run makes
// dominate; lowering should show nothing here.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <tuple>

#include "perfbench.hpp"
#include "tytra/kernels/registry.hpp"

namespace perfbench {
namespace {

enum class Cls { Explore, Tune, Campaign, NovelExplore };
const char* cls_name(Cls c) {
  switch (c) {
    case Cls::Explore: return "warm-explore";
    case Cls::Tune: return "warm-tune";
    case Cls::Campaign: return "warm-campaign";
    case Cls::NovelExplore: return "novel-explore";
  }
  return "?";
}
/// Shares per mille: about 1 op in 20 explores a novel nd.
Cls draw_class(tytra::SplitMix64& rng) {
  const auto r = rng.uniform_int(0, 999);
  if (r < 550) return Cls::Explore;
  if (r < 800) return Cls::Tune;
  if (r < 950) return Cls::Campaign;
  return Cls::NovelExplore;
}

/// The argv of one invocation, without the binary and --snapshot.
std::vector<std::string> invocation(Cls cls, const BuiltinJob& j) {
  const std::string nd = std::to_string(j.nd);
  switch (cls) {
    case Cls::Tune:
      return {"tune", j.kernel, "--nd", nd, "--device", j.device, "--json"};
    case Cls::Campaign:
      return {"campaign", "--kernel", j.kernel, "--nd", nd, "--device",
              j.device, "--json"};
    default:
      return {"explore", j.kernel, "--nd", nd, "--device", j.device, "--json"};
  }
}

std::vector<std::string> with_bin(const std::string& bin,
                                  std::vector<std::string> args,
                                  const std::string& snapshot = {}) {
  args.insert(args.begin(), bin);
  if (!snapshot.empty()) {
    args.push_back("--snapshot");
    args.push_back(snapshot);
  }
  return args;
}

std::string read_all(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

/// Writes `bytes` to `path` and syncs it, so no writeback of the reset
/// copy lands inside the next timed op.
void write_synced(const std::string& path, const std::string& bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  require(fd >= 0, "cli-snapshot: cannot write " + path);
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    require(n > 0, "cli-snapshot: short write to " + path);
    done += static_cast<std::size_t>(n);
  }
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

RunOutcome run_cli_snapshot(const Options& opt) {
  RunOutcome out;
  const int setups = opt.quick ? 1 : 9;
  const std::string pristine_path = opt.work_dir + "/pristine.snap";
  const std::string snap = opt.work_dir + "/op.snap";

  // Seeded inputs: the warmed grid, and the novel (kernel, nd) schedule.
  tytra::SplitMix64 rng = seeded_rng(opt.seed, 0xc11);
  std::vector<std::pair<std::string, std::vector<std::uint32_t>>> grid;
  std::vector<BuiltinJob> warm;
  for (const char* kernel : {"sor", "hotspot", "lavamd"}) {
    const std::vector<std::uint32_t> nds = draw_warm_nds(rng, opt.quick ? 1 : 3);
    grid.emplace_back(kernel, nds);
    for (const std::uint32_t nd : nds) {
      for (const auto& dev : preset_names()) warm.push_back({kernel, nd, dev});
    }
  }
  const auto novel = novel_schedule(rng);

  // Setup, timed: build the pristine snapshot with the real tytra-cc.
  std::string pristine;
  std::vector<double> setup_times;
  for (int rep = 0; rep < setups; ++rep) {
    const double t0 = now_s();
    std::remove(pristine_path.c_str());
    // One campaign per kernel so each kernel gets its own three sizes.
    for (const auto& [kernel, nds] : grid) {
      std::vector<std::string> args = {"campaign", "--kernel", kernel};
      for (const std::uint32_t nd : nds) {
        args.insert(args.end(), {"--nd", std::to_string(nd)});
      }
      for (const auto& dev : preset_names()) {
        args.insert(args.end(), {"--device", dev});
      }
      const ProcResult r =
          run_process(with_bin(opt.cc_bin, args, pristine_path));
      require(r.exit_code == 0, "cli-snapshot: warming campaign failed");
    }
    pristine = read_all(pristine_path);
    setup_times.push_back(now_s() - t0);
  }
  out.setup_s = median(setup_times);
  require(!pristine.empty(), "cli-snapshot: empty pristine snapshot");

  // References: the same invocation without --snapshot.
  std::map<std::vector<std::string>, std::string> refs;
  const auto reference = [&](const std::vector<std::string>& args) {
    auto it = refs.find(args);
    if (it == refs.end()) {
      const ProcResult r = run_process(with_bin(opt.cc_bin, args));
      it = refs.emplace(args, r.exit_code == 0 ? normalize_answer(r.out)
                                               : std::string("<failed>"))
               .first;
    }
    return it->second;
  };
  for (const auto& j : warm) {
    for (const Cls c : {Cls::Explore, Cls::Tune, Cls::Campaign}) {
      reference(invocation(c, j));
    }
  }
  if (opt.wrong_reference) {
    for (auto& [args, answer] : refs) answer += " ";
  }

  struct Pending {
    std::vector<std::string> args;
    std::string answer;
  };
  std::vector<Pending> novel_ops;
  std::size_t next_novel = 0;
  tytra::SplitMix64 crng = seeded_rng(opt.seed, 0xc12);

  // `tr` is null for the untraced loop, whose ops feed the rates.
  const auto loop = [&](std::vector<double>& op_ms, double seconds,
                        Tracer* tr) {
    const std::uint64_t max_ops = opt.quick ? 6 : 0;
    const OpClock clock(seconds, max_ops);
    const double t0 = now_s();
    std::uint64_t done = 0;
    while (clock.more(done)) {
      const Cls cls = draw_class(crng);
      BuiltinJob j = warm[static_cast<std::size_t>(
          crng.uniform_int(0, static_cast<std::int64_t>(warm.size()) - 1))];
      if (cls == Cls::NovelExplore) {
        std::tie(j.kernel, j.nd) = novel[next_novel++ % novel.size()];
      }
      const std::vector<std::string> args = invocation(cls, j);

      // Reset to the pristine copy, outside the timed span, and prove it.
      write_synced(snap, pristine);
      require(read_all(snap) == pristine,
              "cli-snapshot: op does not start from the pristine snapshot");

      const auto op = static_cast<std::int64_t>(out.attempted);
      ProcResult r;
      double ms = 0;
      {
        Span s(tr, "op.cli-snapshot", op, cls_name(cls));
        Span p(tr, "tools.tytra-cc", op);
        const double a = now_s();
        r = run_process(with_bin(opt.cc_bin, args, snap));
        ms = (now_s() - a) * 1e3;
      }
      op_ms.push_back(ms);
      ++out.attempted;
      ++done;
      out.rss_mb = std::max(out.rss_mb, r.max_rss_mb);
      if (r.exit_code != 0) {
        ++out.failed;
        continue;
      }
      const std::uint64_t answered = answered_variants(r.out);
      if (cls != Cls::Tune) {
        const Counters k = cache_counters(r.out);
        require(k.hits + k.misses == answered,
                "cli-snapshot: hits + misses != variants answered");
        if (cls == Cls::Explore) {
          require(k.misses == 0 && k.variant_hits == answered,
                  "cli-snapshot: a warm explore was not all variant-key hits");
        }
        if (tr == nullptr) {
          out.lookups += k.hits + k.misses;
          out.misses += k.misses;
          out.variant_hits += k.variant_hits;
        }
      }
      if (tr == nullptr) out.variants += answered;
      if (cls == Cls::NovelExplore) {
        novel_ops.push_back({args, normalize_answer(r.out)});
      } else if (normalize_answer(r.out) != reference(args)) {
        ++out.failed;
      }
    }
    return now_s() - t0;
  };

  Tracer tracer;
  if (opt.trace) {
    out.loop_seconds = loop(out.op_ms, opt.seconds / 2, nullptr);
    tracer.enabled = true;
    loop(out.traced_op_ms, opt.seconds / 2, &tracer);
    out.spans = std::move(tracer.spans);
  } else {
    out.loop_seconds = loop(out.op_ms, opt.seconds, nullptr);
  }
  for (const auto& p : novel_ops) {
    if (p.answer != reference(p.args)) ++out.failed;
  }

  // The model against the simulator over the warm set, whose answers
  // were checked equal to the standalone runs'.
  out.est_err_max_pct = est_err_max_pct(warm, 16);

  if (opt.trace) {
    ProbeInput in;
    for (const auto& j : warm) {
      auto job = tytra::kernels::Registry::instance().make_job(j.kernel, j.nd);
      in.designs.push_back({job.value().lower, false, job.value().n, 16,
                            j.device});
    }
    in.add_gen_slice(opt.seed, 16);
    for (const auto& j : warm) {
      if (j.device == preset_names().front()) {
        in.requests.push_back(j);
      }
    }
    run_layer_probes(opt, in, out.layer);
  }
  return out;
}

}  // namespace perfbench
