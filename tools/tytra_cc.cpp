// tytra-cc: the TyTra back-end compiler driver (TyBEC). Parses a textual
// TyTra-IR design, verifies it, and either costs it against a target
// device or emits synthesizeable Verilog — the two paths of Fig. 11 —
// or drives the DSE engine (dse::Session) over the workload registry.
//
// Usage:
//   tytra-cc <design.tirl> [options]            cost / analyze / emit HDL
//   tytra-cc explore <kernel> [options]         sweep one kernel's variants
//   tytra-cc tune <kernel> [options]            walk the feedback path
//   tytra-cc campaign [options]                 {kernel x size x device} batch
//   tytra-cc list [--names]                     enumerate registered kernels
//
// The kernel list, usage text and name validation all come from
// kernels::Registry — registering a workload is the only step needed for
// it to appear here. Devices are the target presets or any .tgt file.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "tytra/codegen/verilog.hpp"
#include "tytra/cost/calibration.hpp"
#include "tytra/cost/report.hpp"
#include "tytra/dse/cancel.hpp"
#include "tytra/dse/session.hpp"
#include "tytra/ir/analysis.hpp"
#include "tytra/ir/lint.hpp"
#include "tytra/ir/parser.hpp"
#include "tytra/ir/printer.hpp"
#include "tytra/ir/verifier.hpp"
#include "tytra/kernels/file_workload.hpp"
#include "tytra/kernels/lint_driver.hpp"
#include "tytra/kernels/registry.hpp"
#include "tytra/support/framing.hpp"
#include "tytra/support/json.hpp"
#include "tytra/target/device.hpp"

namespace {

using namespace tytra;

/// Exit code for a run cut short by Ctrl-C: 128 + SIGINT, the shell
/// convention scripts already test for.
constexpr int kExitInterrupted = 130;

/// The process-wide cancellation token the SIGINT handler flips. The DSE
/// session polls it between variant batches, so a long campaign winds
/// down at the next batch boundary instead of dying mid-write.
dse::CancelToken g_cancel;  // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)

extern "C" void handle_signal(int sig) {
  // request_cancel is a relaxed atomic store — async-signal-safe. Restore
  // the default disposition so a second Ctrl-C (or a follow-up SIGTERM
  // from a supervisor's kill escalation) ends the process outright if the
  // cooperative wind-down is not fast enough.
  g_cancel.request_cancel();
  std::signal(sig, SIG_DFL);
}

/// SIGINT and SIGTERM share the cooperative-cancellation contract: wind
/// down at the next variant boundary, keep every completed job's results,
/// exit 130. Ctrl-C and a service manager's stop request look the same.
void install_signal_cancel() {
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
}

std::string kernel_list() {
  return kernels::Registry::instance().names_joined();
}

std::string preset_list() {
  std::string out;
  for (const auto& name : target::preset_names()) {
    if (!out.empty()) out += "|";
    out += name;
  }
  return out;
}

std::string usage_text() {
  const std::string kernels = kernel_list();
  const std::string presets = preset_list();
  std::string out;
  out += "usage: tytra-cc <design.tirl> [--target file.tgt | --preset name] "
         "[--cost] [--params] [--tree] [--emit-hdl out.v] [--print-ir]\n";
  out += "       tytra-cc explore <" + kernels + " | --ir file.tir> [--nd dim] "
         "[--max-lanes n] [--jobs n] [--pareto] [--json] [--snapshot file] "
         "[--deadline-ms n] [--device " + presets + "|file.tgt]\n";
  out += "       tytra-cc tune <" + kernels + " | --ir file.tir> [--nd dim] "
         "[--max-steps n] [--max-lanes n] [--json] [--snapshot file] "
         "[--deadline-ms n] [--device " + presets + "|file.tgt]\n";
  out += "       tytra-cc campaign [--kernel name]... [--ir file.tir]... "
         "[--nd dim]... [--device name|file.tgt]... [--max-lanes n] [--jobs n] "
         "[--pareto] [--json] [--snapshot file] [--deadline-ms n] "
         "[--on-error continue|abort]\n";
  out += "       tytra-cc cache dump <file> [campaign flags] | "
         "load <file> | inspect <file> | verify <file>\n";
  out += "       tytra-cc list [--names] [--json] [--ir file.tir]...\n";
  out += "       tytra-cc lint [<kernel>]... [--ir file.tir]... [--nd dim] "
         "[--device " + presets + "|file.tgt] [--json] "
         "[--fail-on error|warning] [--rules]\n";
  out += "       tytra-cc [explore|tune|campaign|list|lint] --server SOCKET "
         "...   run via a tytra-dsed daemon (same output, shared warm cache)\n";
  out += "       tytra-cc [ping|shutdown] --server SOCKET\n";
  return out;
}

int usage() {
  std::fprintf(stderr, "%s", usage_text().c_str());
  return 2;
}

/// One-line error + usage pointer: every malformed invocation exits
/// through here (or a sibling single-fprintf path), so diagnostics are
/// uniform and stdout stays empty.
int flag_error(const std::string& message) {
  std::fprintf(stderr, "tytra-cc: %s (see tytra-cc --help)\n", message.c_str());
  return 2;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

bool parse_u32(const char* text, std::uint32_t& out) {
  if (text[0] == '-' || text[0] == '+') return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || v > 0xffffffffULL) return false;
  out = static_cast<std::uint32_t>(v);
  return true;
}

/// Resolves a --device argument: a preset name, a preset's device name
/// (the spelling the output tables print, e.g. "fig15-profile" — so a
/// name copied from tytra-cc's own output round-trips), or a path to a
/// .tgt file.
tytra::Result<target::DeviceDesc> resolve_device(const std::string& spec) {
  if (auto p = target::preset(spec)) return *p;
  for (const auto& name : target::preset_names()) {
    if (auto p = target::preset(name); p && p->name == spec) return *p;
  }
  std::string text;
  if (!read_file(spec, text)) {
    return tytra::make_error("unknown device '" + spec + "' (presets: " +
                             preset_list() + "; or a readable .tgt file)");
  }
  return target::parse_target(text);
}

// ---------------------------------------------------------------------------
// Explore-family subcommands (Session + Registry driven)
// ---------------------------------------------------------------------------

struct ExploreSpec {
  std::string kernel;
  std::vector<std::string> irs;  ///< `.tir` files to register as workloads
  std::optional<std::uint32_t> nd;  ///< default: the workload's default_nd
  std::uint32_t max_lanes{16};
  std::uint32_t jobs{0};
  int max_steps{12};
  bool pareto{false};
  bool json{false};
  std::vector<std::string> devices;  ///< empty: stratix-v-gsd8
  /// Snapshot file to warm-start from and save back to (--snapshot).
  std::string snapshot;
  /// Suppress the result tables (`cache dump` wants only the summary).
  bool quiet{false};
  /// Wall-clock budget per job in milliseconds; 0 = no deadline.
  std::uint32_t deadline_ms{0};
  /// Campaign policy when a job fails or times out: abort (default —
  /// stderr diagnostic, nonzero exit, empty stdout, matching the old
  /// fail-the-whole-campaign contract) or continue (report per-job
  /// status, exit 0).
  bool on_error_abort{true};
  /// tytra-dsed socket path (--server). When set the command is shipped
  /// to the daemon over the frame protocol instead of run in-process;
  /// output and exit code are byte-identical to a standalone run.
  std::string server;
};

/// Saves the session snapshot when the spec asked for one. A run answered
/// wholly from the snapshot it loaded leaves the file untouched (see
/// Session::save_snapshot). Failures are loud and nonzero: the user
/// explicitly requested persistence, so a snapshot that cannot be written
/// is an error, not a degradation.
int save_spec_snapshot(dse::Session& session, const ExploreSpec& spec) {
  if (spec.snapshot.empty()) return 0;
  const auto written = session.save_snapshot(spec.snapshot);
  if (!written.ok()) {
    std::fprintf(stderr, "tytra-cc: %s\n", written.diag().message.c_str());
    return 1;
  }
  return 0;
}

/// Builds the registry job for the spec and runs it through a session
/// holding the resolved devices. `mode` is "explore" or "tune".
int run_job_command(const std::string& mode, const ExploreSpec& spec) {
  const auto& registry = kernels::Registry::instance();
  const kernels::WorkloadInfo* info = registry.find(spec.kernel);
  if (!info) {
    std::fprintf(stderr, "tytra-cc: unknown kernel '%s' (%s)\n",
                 spec.kernel.c_str(), kernel_list().c_str());
    return 1;
  }
  const std::uint32_t nd = spec.nd.value_or(info->default_nd);
  auto job_r = registry.make_job(spec.kernel, nd);
  if (!job_r.ok()) {
    std::fprintf(stderr, "tytra-cc: %s\n", job_r.error_message().c_str());
    return 1;
  }

  if (spec.max_lanes == 0) {
    std::fprintf(stderr, "tytra-cc: --max-lanes must be >= 1\n");
    return 1;
  }
  dse::SessionOptions so;
  so.max_lanes = spec.max_lanes;
  so.num_threads = spec.jobs;
  // A single-shot explore/tune evaluates each variant exactly once, so a
  // per-invocation cache would be pure keying + insert overhead; only
  // `campaign` (repeat sizes, sweep-then-tune patterns) warms one.
  // --snapshot changes that calculus: the cache IS the artifact being
  // persisted, and the next process's warm start pays for it.
  so.enable_cache = !spec.snapshot.empty();
  so.snapshot_path = spec.snapshot;
  so.cancel = &g_cancel;
  so.deadline_seconds = spec.deadline_ms / 1000.0;
  install_signal_cancel();

  try {
    dse::Session session(so);
    const std::string device_spec =
        spec.devices.empty() ? std::string("stratix-v-gsd8") : spec.devices[0];
    auto device = resolve_device(device_spec);
    if (!device.ok()) {
      std::fprintf(stderr, "tytra-cc: %s\n", device.error_message().c_str());
      return 1;
    }
    const auto& db = session.add_device(device.value());
    dse::Job job = std::move(job_r).take();
    job.device = db.device().name;

    if (mode == "tune") {
      job.max_steps = spec.max_steps;
      const dse::TuneResult result = session.tune(job);
      if (const int rc = save_spec_snapshot(session, spec)) return rc;
      if (spec.json) {
        std::printf("%s", dse::format_tune_json(result).c_str());
      } else {
        std::printf("tuning %s on %s (nd=%u, %llu work-items)\n",
                    spec.kernel.c_str(), db.device().name.c_str(), nd,
                    static_cast<unsigned long long>(job.n));
        std::printf("%s", dse::format_tune(result).c_str());
      }
      return 0;
    }

    const dse::DseResult result = session.explore(job);
    if (const int rc = save_spec_snapshot(session, spec)) return rc;
    if (spec.json) {
      std::printf("%s", dse::format_sweep_json(result).c_str());
      return 0;
    }
    std::printf("exploring %s on %s: %zu variants in %.3f s\n",
                spec.kernel.c_str(), db.device().name.c_str(),
                result.entries.size(), result.explore_seconds);
    std::printf("%s", dse::format_sweep(result).c_str());
    if (spec.pareto) {
      std::printf("\npareto frontier (EKIT vs utilization vs bandwidth share):\n");
      std::printf("%s", dse::format_pareto(result).c_str());
    }
  } catch (const dse::CancelledError&) {
    // Ctrl-C: no partial tables were written (results only print after
    // the job completes), so stdout is clean — just say why we stopped.
    std::fprintf(stderr, "tytra-cc: %s interrupted\n", mode.c_str());
    return kExitInterrupted;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tytra-cc: %s failed: %s\n", mode.c_str(), e.what());
    return 1;
  }
  return 0;
}

int run_campaign(const ExploreSpec& spec,
                 const std::vector<std::string>& kernel_names,
                 const std::vector<std::uint32_t>& nds) {
  const auto& registry = kernels::Registry::instance();
  if (spec.max_lanes == 0) {
    std::fprintf(stderr, "tytra-cc: --max-lanes must be >= 1\n");
    return 1;
  }

  dse::SessionOptions so;
  so.max_lanes = spec.max_lanes;
  so.num_threads = spec.jobs;
  so.snapshot_path = spec.snapshot;
  so.cancel = &g_cancel;
  so.deadline_seconds = spec.deadline_ms / 1000.0;
  install_signal_cancel();
  try {
    dse::Session session(so);

    // Devices: resolve each spec, dedupe by resolved name, keep order.
    std::vector<std::string> device_names;
    const std::vector<std::string> specs =
        spec.devices.empty() ? std::vector<std::string>{"stratix-v-gsd8"}
                             : spec.devices;
    for (const auto& s : specs) {
      auto device = resolve_device(s);
      if (!device.ok()) {
        std::fprintf(stderr, "tytra-cc: %s\n", device.error_message().c_str());
        return 1;
      }
      if (session.find_device(device.value().name)) continue;  // repeat spec
      session.add_device(device.value());
      device_names.push_back(device.value().name);
    }

    // Workloads: named ones, or every registered kernel.
    const std::vector<std::string> kernels_to_run =
        kernel_names.empty() ? registry.names() : kernel_names;

    // The {workload x size x device} fan-out, through one shared cache.
    dse::Campaign campaign;
    for (const auto& kernel : kernels_to_run) {
      const kernels::WorkloadInfo* info = registry.find(kernel);
      if (!info) {
        std::fprintf(stderr, "tytra-cc: unknown kernel '%s' (%s)\n",
                     kernel.c_str(), kernel_list().c_str());
        return 1;
      }
      const std::vector<std::uint32_t> sizes =
          nds.empty() ? std::vector<std::uint32_t>{info->default_nd} : nds;
      for (const std::uint32_t nd : sizes) {
        auto job_r = registry.make_job(kernel, nd);
        if (!job_r.ok()) {
          std::fprintf(stderr, "tytra-cc: %s\n", job_r.error_message().c_str());
          return 1;
        }
        for (const auto& device : device_names) {
          dse::Job job = job_r.value();
          job.device = device;
          campaign.jobs.push_back(std::move(job));
        }
      }
    }

    const dse::CampaignResult result = session.run(campaign);
    const bool interrupted = g_cancel.cancelled();

    if (!interrupted && spec.on_error_abort && result.degraded() > 0) {
      // Abort policy (the default): a failed or timed-out job fails the
      // whole invocation before anything reaches stdout — the
      // pre-failure-model contract (nonzero exit, empty stdout, stderr
      // names the first casualty). No snapshot is written either, same
      // as when the failure used to propagate as an exception.
      for (const auto& jr : result.jobs) {
        if (jr.status.ok()) continue;
        std::fprintf(stderr,
                     "tytra-cc: campaign: job '%s' (nd=%u, %s) %s: %s "
                     "(use --on-error continue to keep surviving jobs)\n",
                     jr.job.workload.c_str(), jr.job.nd,
                     jr.job.device.c_str(),
                     std::string(dse::job_state_name(jr.status.state)).c_str(),
                     jr.status.error.c_str());
        return 1;
      }
    }
    if (const int rc = save_spec_snapshot(session, spec)) return rc;

    // The whole report is composed off-line and written with one fwrite:
    // an interrupt stops the run early (the token is polled between
    // variants), but it can never leave a half-written table on stdout.
    std::string out;
    if (spec.quiet) {
      const dse::CostCache* cache = session.cache();
      out = "snapshot: wrote " + spec.snapshot +
            " (structural=" + std::to_string(cache ? cache->size() : 0) +
            " variant=" + std::to_string(cache ? cache->variant_size() : 0) +
            " calibrations=" + std::to_string(session.device_names().size()) +
            ")\n";
    } else if (spec.json) {
      out = dse::format_campaign_json(result);
    } else {
      char head[160];
      std::snprintf(head, sizeof head,
                    "campaign: %zu jobs (%zu kernels x %zu device(s)) in "
                    "%.3f s\n",
                    result.jobs.size(), kernels_to_run.size(),
                    device_names.size(), result.campaign_seconds);
      out = head;
      out += dse::format_campaign(result);
      if (spec.pareto) {
        out += "\nmerged pareto frontier across all jobs:\n";
        out += dse::format_campaign_pareto(result);
      }
    }
    std::fwrite(out.data(), 1, out.size(), stdout);
    if (interrupted) {
      std::size_t cancelled = 0;
      for (const auto& jr : result.jobs) {
        if (jr.status.state == dse::JobState::Cancelled) ++cancelled;
      }
      std::fprintf(stderr,
                   "tytra-cc: campaign interrupted (%zu of %zu jobs "
                   "cancelled; completed results above)\n",
                   cancelled, result.jobs.size());
      return kExitInterrupted;
    }
  } catch (const dse::CancelledError&) {
    std::fprintf(stderr, "tytra-cc: campaign interrupted\n");
    return kExitInterrupted;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tytra-cc: campaign failed: %s\n", e.what());
    return 1;
  }
  return 0;
}

/// Registers every --ir file as a workload named after its path. Prints
/// the loader's diagnostic to stderr and fails (before any stdout output)
/// when a file is unreadable, unparsable or unverifiable. With
/// `announce_lint` the loader's advisory ir::lint findings go to stderr
/// too (never failing the command); the lint subcommand passes false so
/// its own report is the only rendering of the findings.
bool register_ir_files(const std::vector<std::string>& irs,
                       bool announce_lint = true) {
  for (const auto& path : irs) {
    std::vector<tytra::Diag> lint;
    auto added = kernels::register_file_workload(kernels::Registry::instance(),
                                                 path, &lint);
    if (!added.ok()) {
      std::fprintf(stderr, "tytra-cc: %s\n", added.error_message().c_str());
      return false;
    }
    if (announce_lint) {
      for (const auto& d : lint) {
        std::fprintf(stderr, "tytra-cc: %s: %s\n", path.c_str(),
                     d.to_string().c_str());
      }
    }
  }
  return true;
}

int run_list(bool names_only, bool json) {
  const auto& registry = kernels::Registry::instance();
  if (names_only) {
    for (const auto& info : registry.all()) {
      std::printf("%s\n", info.name.c_str());
    }
    return 0;
  }
  // Shared renderers (kernels/registry.hpp): the daemon's `list` response
  // is composed from the same functions, so the two cannot drift.
  const std::string out = json ? kernels::format_registry_json(registry)
                               : kernels::format_registry(registry);
  std::fwrite(out.data(), 1, out.size(), stdout);
  return 0;
}

// ---------------------------------------------------------------------------
// `tytra-cc lint`: the ir::lint pass framework over registered workloads
// ---------------------------------------------------------------------------

int run_via_server(const std::string& socket_path, const std::string& request);

/// `tytra-cc lint [<kernel>]... [--ir f.tir]... [--nd n] [--device d]
/// [--json] [--fail-on error|warning] [--rules] [--server S]`. Exit 0 =
/// no finding at/above the threshold, 1 = findings or a runtime error
/// (empty stdout), 2 = usage. The report itself is composed by
/// kernels::run_lint_driver — the same function the daemon's `lint` verb
/// renders through, so the two outputs cannot drift.
int run_lint_command(int argc, char** argv) {
  std::vector<std::string> targets;
  std::vector<std::string> irs;
  std::uint32_t nd = 0;
  std::string device_spec = "stratix-v-gsd8";
  bool json = false;
  bool rules = false;
  std::string fail_on = "error";
  std::string server;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--rules") { rules = true; continue; }
    if (arg == "--json") { json = true; continue; }
    const bool takes_value = arg == "--ir" || arg == "--nd" ||
                             arg == "--device" || arg == "--fail-on" ||
                             arg == "--server";
    if (takes_value && i + 1 >= argc) {
      return flag_error("lint: " + arg + " requires a value");
    }
    if (arg == "--ir") {
      irs.emplace_back(argv[++i]);
    } else if (arg == "--nd") {
      if (!parse_u32(argv[++i], nd) || nd == 0) {
        return flag_error("lint: --nd: '" + std::string(argv[i]) +
                          "' is not a positive integer");
      }
    } else if (arg == "--device") {
      device_spec = argv[++i];
    } else if (arg == "--fail-on") {
      fail_on = argv[++i];
      if (fail_on != "error" && fail_on != "warning") {
        return flag_error("lint: --fail-on: '" + fail_on +
                          "' is not error|warning");
      }
    } else if (arg == "--server") {
      server = argv[++i];
    } else if (arg[0] == '-') {
      return flag_error("lint: unknown or incomplete flag '" + arg + "'");
    } else {
      targets.emplace_back(arg);
    }
  }

  if (rules) {
    const std::string out =
        ir::lint::format_rules(ir::lint::Registry::instance());
    std::fwrite(out.data(), 1, out.size(), stdout);
    return 0;
  }

  // The lint report is the one rendering of the findings; suppress the
  // loader's advisory stderr announcements to avoid printing them twice.
  if (!register_ir_files(irs, /*announce_lint=*/false)) return 1;
  targets.insert(targets.end(), irs.begin(), irs.end());
  auto& registry = kernels::Registry::instance();
  for (const auto& t : targets) {
    // Validate locally in both modes, so the unknown-workload diagnostic
    // is byte-identical with and without --server.
    if (!registry.find(t)) {
      std::fprintf(stderr, "tytra-cc: unknown workload '%s' (registered: %s)\n",
                   t.c_str(), kernel_list().c_str());
      return 1;
    }
  }

  if (!server.empty()) {
    // "All workloads" means the CLIENT's registry, exactly like campaign:
    // another client's IR registrations on the daemon must not leak in.
    const std::vector<std::string> expanded =
        targets.empty() ? registry.names() : targets;
    std::ostringstream os;
    os << "{\"cmd\": \"lint\", \"targets\": [";
    for (std::size_t i = 0; i < expanded.size(); ++i) {
      os << (i ? ", " : "") << "\"" << json::escape(expanded[i]) << "\"";
    }
    os << "]";
    if (nd != 0) os << ", \"nd\": " << nd;
    os << ", \"json\": " << (json ? "true" : "false") << ", \"fail_on\": \""
       << fail_on << "\", \"devices\": [\"" << json::escape(device_spec)
       << "\"]";
    if (!irs.empty()) {
      os << ", \"irs\": [";
      for (std::size_t i = 0; i < irs.size(); ++i) {
        std::string text;
        if (!read_file(irs[i], text)) {
          std::fprintf(stderr, "tytra-cc: cannot read '%s'\n", irs[i].c_str());
          return 1;
        }
        os << (i ? ", " : "") << "{\"name\": \"" << json::escape(irs[i])
           << "\", \"source\": \"" << json::escape(text) << "\"}";
      }
      os << "]";
    }
    os << "}";
    return run_via_server(server, os.str());
  }

  auto device = resolve_device(device_spec);
  if (!device.ok()) {
    std::fprintf(stderr, "tytra-cc: %s\n", device.error_message().c_str());
    return 1;
  }
  const cost::DeviceCostDb db = cost::DeviceCostDb::calibrate(device.value());

  kernels::LintDriverOptions opts;
  opts.targets = std::move(targets);
  opts.nd = nd;
  opts.db = &db;
  opts.json = json;
  opts.fail_on = fail_on == "warning" ? ir::lint::FailOn::Warning
                                      : ir::lint::FailOn::Error;
  const kernels::LintDriverResult result =
      kernels::run_lint_driver(registry, opts);
  if (!result.err.empty()) {
    std::fprintf(stderr, "tytra-cc: %s\n", result.err.c_str());
  }
  std::fwrite(result.out.data(), 1, result.out.size(), stdout);
  return result.exit_code;
}

// ---------------------------------------------------------------------------
// Client mode (--server): ship the command to a tytra-dsed daemon
// ---------------------------------------------------------------------------

/// Appends the request fields shared by explore/tune/campaign, including
/// the --ir files' *content* (the daemon registers them server-side; its
/// filesystem never needs to see the paths).
bool append_common_fields(std::ostringstream& os, const ExploreSpec& spec) {
  os << ", \"max_lanes\": " << spec.max_lanes << ", \"json\": "
     << (spec.json ? "true" : "false") << ", \"pareto\": "
     << (spec.pareto ? "true" : "false") << ", \"on_error\": \""
     << (spec.on_error_abort ? "abort" : "continue") << "\"";
  if (spec.deadline_ms != 0) os << ", \"deadline_ms\": " << spec.deadline_ms;
  if (!spec.devices.empty()) {
    os << ", \"devices\": [";
    for (std::size_t i = 0; i < spec.devices.size(); ++i) {
      os << (i ? ", " : "") << "\"" << json::escape(spec.devices[i]) << "\"";
    }
    os << "]";
  }
  if (!spec.irs.empty()) {
    os << ", \"irs\": [";
    for (std::size_t i = 0; i < spec.irs.size(); ++i) {
      std::string text;
      if (!read_file(spec.irs[i], text)) {
        std::fprintf(stderr, "tytra-cc: cannot read '%s'\n",
                     spec.irs[i].c_str());
        return false;
      }
      os << (i ? ", " : "") << "{\"name\": \"" << json::escape(spec.irs[i])
         << "\", \"source\": \"" << json::escape(text) << "\"}";
    }
    os << "]";
  }
  return true;
}

/// Sends one request frame and streams the response: per-job progress
/// frames are consumed silently (the final frame carries the standalone
/// run's full stdout/stderr), "result"/"error" terminate with the
/// daemon's exit code — so `tytra-cc --server ...` is byte- and
/// exit-code-identical to the same command run standalone.
int run_via_server(const std::string& socket_path, const std::string& request) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::fprintf(stderr, "tytra-cc: socket: %s\n", std::strerror(errno));
    return 1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "tytra-cc: --server path '%s' is too long\n",
                 socket_path.c_str());
    ::close(fd);
    return 1;
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    std::fprintf(stderr,
                 "tytra-cc: cannot connect to server '%s': %s (is tytra-dsed "
                 "running?)\n",
                 socket_path.c_str(), std::strerror(errno));
    ::close(fd);
    return 1;
  }
  std::string err;
  if (!framing::write_frame(fd, request, err)) {
    std::fprintf(stderr, "tytra-cc: server write failed: %s\n", err.c_str());
    ::close(fd);
    return 1;
  }
  std::string payload;
  for (;;) {
    const framing::ReadStatus st = framing::read_frame(fd, payload, err);
    if (st == framing::ReadStatus::Eof) {
      std::fprintf(stderr, "tytra-cc: server disconnected\n");
      ::close(fd);
      return 1;
    }
    if (st == framing::ReadStatus::Error) {
      std::fprintf(stderr, "tytra-cc: %s\n", err.c_str());
      ::close(fd);
      return 1;
    }
    auto parsed = json::parse(payload);
    if (!parsed.ok() || !parsed.value().is_object()) {
      std::fprintf(stderr, "tytra-cc: bad frame from server: %s\n",
                   parsed.ok() ? "not an object"
                               : parsed.diag().message.c_str());
      ::close(fd);
      return 1;
    }
    const json::Value frame = std::move(parsed).take();
    const std::string type = frame.get_string("type").value_or("");
    if (type == "job") continue;  // per-job progress; the result frame
                                  // carries the composed stdout
    if (type == "pong") {
      std::printf("%s\n", payload.c_str());
      ::close(fd);
      return 0;
    }
    const int exit_code =
        static_cast<int>(frame.get_number("exit").value_or(1));
    if (type == "result") {
      const std::string out = frame.get_string("stdout").value_or("");
      std::fwrite(out.data(), 1, out.size(), stdout);
      const std::string errout = frame.get_string("stderr").value_or("");
      if (!errout.empty()) {
        std::fwrite(errout.data(), 1, errout.size(), stderr);
      }
      ::close(fd);
      return exit_code;
    }
    if (type == "error") {
      std::fprintf(stderr, "tytra-cc: %s\n",
                   frame.get_string("message").value_or("server error")
                       .c_str());
      ::close(fd);
      return exit_code;
    }
    std::fprintf(stderr, "tytra-cc: unexpected frame type '%s' from server\n",
                 type.c_str());
    ::close(fd);
    return 1;
  }
}

/// explore/tune via the daemon. The kernel was already validated against
/// the local registry (which saw the same --ir files), so error paths
/// match standalone byte-for-byte.
int run_job_via_server(const std::string& mode, const ExploreSpec& spec) {
  std::ostringstream os;
  os << "{\"cmd\": \"" << mode << "\", \"kernel\": \""
     << json::escape(spec.kernel) << "\"";
  if (spec.nd) os << ", \"nd\": " << *spec.nd;
  if (mode == "tune") os << ", \"max_steps\": " << spec.max_steps;
  if (!append_common_fields(os, spec)) return 1;
  os << "}";
  return run_via_server(spec.server, os.str());
}

/// campaign via the daemon. The client expands the kernel list itself
/// (registry order, --ir paths appended), so "every registered kernel"
/// means the CLIENT's registry — another client's IR registrations on the
/// daemon can never leak into this campaign.
int run_campaign_via_server(const ExploreSpec& spec,
                            const std::vector<std::string>& kernel_names,
                            const std::vector<std::uint32_t>& nds) {
  const auto& registry = kernels::Registry::instance();
  if (spec.max_lanes == 0) {
    std::fprintf(stderr, "tytra-cc: --max-lanes must be >= 1\n");
    return 1;
  }
  const std::vector<std::string> kernels_to_run =
      kernel_names.empty() ? registry.names() : kernel_names;
  for (const auto& kernel : kernels_to_run) {
    if (!registry.find(kernel)) {
      std::fprintf(stderr, "tytra-cc: unknown kernel '%s' (%s)\n",
                   kernel.c_str(), kernel_list().c_str());
      return 1;
    }
  }
  std::ostringstream os;
  os << "{\"cmd\": \"campaign\", \"kernels\": [";
  for (std::size_t i = 0; i < kernels_to_run.size(); ++i) {
    os << (i ? ", " : "") << "\"" << json::escape(kernels_to_run[i]) << "\"";
  }
  os << "]";
  if (!nds.empty()) {
    os << ", \"nds\": [";
    for (std::size_t i = 0; i < nds.size(); ++i) {
      os << (i ? ", " : "") << nds[i];
    }
    os << "]";
  }
  if (!append_common_fields(os, spec)) return 1;
  os << "}";
  return run_via_server(spec.server, os.str());
}

/// Parses one flag shared by explore/tune/campaign (and `cache dump`).
/// Returns the empty string on success, otherwise a one-line diagnostic
/// naming exactly what was wrong — the caller prints it and exits nonzero
/// before any stdout output.
std::string parse_explore_flags(int argc, char** argv, int& i,
                                ExploreSpec& spec,
                                std::vector<std::string>* kernels,
                                std::vector<std::uint32_t>* nds) {
  const std::string arg = argv[i];
  const bool takes_value = arg == "--nd" || arg == "--max-lanes" ||
                           arg == "--jobs" || arg == "--max-steps" ||
                           arg == "--device" || arg == "--preset" ||
                           arg == "--target" || arg == "--kernel" ||
                           arg == "--ir" || arg == "--snapshot" ||
                           arg == "--deadline-ms" || arg == "--on-error" ||
                           arg == "--server";
  if (takes_value && i + 1 >= argc) return arg + " requires a value";
  if (arg == "--nd") {
    std::uint32_t nd = 0;
    if (!parse_u32(argv[++i], nd)) {
      return "--nd: '" + std::string(argv[i]) + "' is not an unsigned integer";
    }
    spec.nd = nd;
    if (nds) nds->push_back(nd);
  } else if (arg == "--max-lanes") {
    if (!parse_u32(argv[++i], spec.max_lanes)) {
      return "--max-lanes: '" + std::string(argv[i]) +
             "' is not an unsigned integer";
    }
  } else if (arg == "--jobs") {
    if (!parse_u32(argv[++i], spec.jobs)) {
      return "--jobs: '" + std::string(argv[i]) +
             "' is not an unsigned integer";
    }
  } else if (arg == "--max-steps") {
    std::uint32_t steps = 0;
    if (!parse_u32(argv[++i], steps) || steps > 10000) {
      return "--max-steps: '" + std::string(argv[i]) +
             "' is not an unsigned integer <= 10000";
    }
    spec.max_steps = static_cast<int>(steps);
  } else if (arg == "--device" || arg == "--preset" || arg == "--target") {
    // Classic-mode spellings accepted as synonyms of --device.
    spec.devices.emplace_back(argv[++i]);
  } else if (arg == "--kernel") {
    if (!kernels) return "--kernel only applies to campaign";
    kernels->emplace_back(argv[++i]);
  } else if (arg == "--ir") {
    spec.irs.emplace_back(argv[++i]);
  } else if (arg == "--snapshot") {
    spec.snapshot = argv[++i];
  } else if (arg == "--server") {
    spec.server = argv[++i];
  } else if (arg == "--deadline-ms") {
    if (!parse_u32(argv[++i], spec.deadline_ms) || spec.deadline_ms == 0) {
      return "--deadline-ms: '" + std::string(argv[i]) +
             "' is not a positive integer";
    }
  } else if (arg == "--on-error") {
    const std::string policy = argv[++i];
    if (policy == "abort") {
      spec.on_error_abort = true;
    } else if (policy == "continue") {
      spec.on_error_abort = false;
    } else {
      return "--on-error: '" + policy + "' is not continue|abort";
    }
  } else if (arg == "--pareto") {
    spec.pareto = true;
  } else if (arg == "--json") {
    spec.json = true;
  } else {
    return "unknown flag '" + arg + "'";
  }
  return {};
}

/// The names of the snapshot container sections, for `cache inspect`.
const char* section_name(std::uint32_t id) {
  switch (id) {
    case 1: return "meta";
    case 2: return "structural";
    case 3: return "variant";
    case 4: return "calibration";
    default: return "unknown";
  }
}

/// `tytra-cc cache <dump|load|inspect|verify>`: the snapshot tooling.
/// dump runs a campaign-shaped workload purely to populate and persist a
/// cache; the other three operate on an existing snapshot file.
int run_cache(int argc, char** argv) {
  if (argc < 3) {
    return flag_error("cache needs an action: dump|load|inspect|verify");
  }
  const std::string action = argv[2];

  if (action == "dump") {
    if (argc < 4 || argv[3][0] == '-') {
      return flag_error("cache dump needs an output file before any flags");
    }
    ExploreSpec spec;
    spec.snapshot = argv[3];
    spec.quiet = true;
    std::vector<std::string> kernels_arg;
    std::vector<std::uint32_t> nds_arg;
    for (int i = 4; i < argc; ++i) {
      const std::string err =
          parse_explore_flags(argc, argv, i, spec, &kernels_arg, &nds_arg);
      if (!err.empty()) return flag_error("cache dump: " + err);
    }
    if (!spec.server.empty()) {
      return flag_error("cache dump: --server is not supported (the daemon "
                        "owns its snapshot; use tytra-dsed --snapshot)");
    }
    if (!register_ir_files(spec.irs)) return 1;
    kernels_arg.insert(kernels_arg.end(), spec.irs.begin(), spec.irs.end());
    return run_campaign(spec, kernels_arg, nds_arg);
  }

  if (action != "load" && action != "inspect" && action != "verify") {
    return flag_error("unknown cache action '" + action +
                      "' (dump|load|inspect|verify)");
  }
  if (argc < 4) {
    return flag_error("cache " + action + " needs a snapshot file");
  }
  if (argc > 4) {
    return flag_error("cache " + action + " takes exactly one snapshot file");
  }
  const std::string path = argv[3];

  if (action == "load") {
    // An explicit load is a command, not a warm-start opportunity: unlike
    // --snapshot (which degrades to cold), a file that cannot be loaded
    // is a hard error here.
    try {
      dse::Session session{dse::SessionOptions{}};
      const auto stats = session.load_snapshot(path);
      if (!stats.ok()) {
        std::fprintf(stderr, "tytra-cc: cache load: %s\n",
                     stats.diag().message.c_str());
        return 1;
      }
      std::printf("loaded %s: structural=%zu variant=%zu calibrations=%zu\n",
                  path.c_str(), stats.value().structural_entries,
                  stats.value().variant_entries, stats.value().calibrations);
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "tytra-cc: cache load failed: %s\n", e.what());
      return 1;
    }
  }

  // inspect / verify: the full offline integrity + payload walk.
  const auto summary = dse::verify_snapshot(path);
  if (!summary.ok()) {
    std::fprintf(stderr, "tytra-cc: cache %s: %s: %s\n", action.c_str(),
                 path.c_str(), summary.diag().message.c_str());
    return 1;
  }
  if (action == "verify") {
    std::printf("ok: %s (structural=%zu variant=%zu calibrations=%zu)\n",
                path.c_str(), summary.value().structural_entries,
                summary.value().variant_entries,
                summary.value().calibrations.size());
    return 0;
  }
  const dse::SnapshotSummary& s = summary.value();
  std::printf("snapshot %s: %llu bytes, container v%u, payload v%u\n",
              path.c_str(), static_cast<unsigned long long>(s.file_bytes),
              s.format_version, s.payload_version);
  auto reader = binio::Reader::open(path);
  if (reader.ok()) {
    for (const auto& sec : reader.value().sections()) {
      std::printf("  section %-12s id=%u offset=%llu size=%llu "
                  "checksum=%016llx\n",
                  section_name(sec.id), sec.id,
                  static_cast<unsigned long long>(sec.offset),
                  static_cast<unsigned long long>(sec.size),
                  static_cast<unsigned long long>(sec.checksum));
    }
  }
  std::printf("  entries: structural=%zu variant=%zu\n", s.structural_entries,
              s.variant_entries);
  for (const auto& [name, fingerprint] : s.calibrations) {
    std::printf("  calibration %s fingerprint=%016llx\n", name.c_str(),
                static_cast<unsigned long long>(fingerprint));
  }
  return 0;
}

int run_subcommand(const std::string& cmd, int argc, char** argv) {
  if (cmd == "cache") return run_cache(argc, argv);
  if (cmd == "lint") return run_lint_command(argc, argv);
  if (cmd == "list") {
    bool names_only = false;
    bool json = false;
    std::string server;
    std::vector<std::string> irs;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--names") == 0) names_only = true;
      else if (std::strcmp(argv[i], "--json") == 0) json = true;
      else if (std::strcmp(argv[i], "--ir") == 0 && i + 1 < argc)
        irs.emplace_back(argv[++i]);
      else if (std::strcmp(argv[i], "--server") == 0 && i + 1 < argc)
        server = argv[++i];
      else return flag_error("list: unknown or incomplete flag '" +
                             std::string(argv[i]) + "'");
    }
    if (!server.empty()) {
      if (names_only) {
        return flag_error("list: --names cannot be combined with --server");
      }
      ExploreSpec spec;
      spec.irs = irs;
      spec.server = server;
      spec.json = json;
      if (!register_ir_files(irs)) return 1;  // same local validation bytes
      std::ostringstream os;
      os << "{\"cmd\": \"list\"";
      if (!append_common_fields(os, spec)) return 1;
      os << "}";
      return run_via_server(server, os.str());
    }
    if (!register_ir_files(irs)) return 1;
    return run_list(names_only, json);
  }

  ExploreSpec spec;
  std::vector<std::string> kernels_arg;
  std::vector<std::uint32_t> nds_arg;
  int i = 2;
  if (cmd != "campaign" && i < argc && argv[i][0] != '-') {
    spec.kernel = argv[i++];
  }
  for (; i < argc; ++i) {
    const std::string err =
        parse_explore_flags(argc, argv, i, spec,
                            cmd == "campaign" ? &kernels_arg : nullptr,
                            cmd == "campaign" ? &nds_arg : nullptr);
    if (!err.empty()) return flag_error(cmd + ": " + err);
  }
  if (!spec.server.empty() && !spec.snapshot.empty()) {
    return flag_error(cmd + ": --snapshot cannot be combined with --server "
                            "(the daemon owns the snapshot)");
  }
  if (cmd == "campaign") {
    if (!register_ir_files(spec.irs)) return 1;
    // File workloads join the named-kernel list under their path names.
    kernels_arg.insert(kernels_arg.end(), spec.irs.begin(), spec.irs.end());
    if (!spec.server.empty()) {
      return run_campaign_via_server(spec, kernels_arg, nds_arg);
    }
    return run_campaign(spec, kernels_arg, nds_arg);
  }
  if (cmd != "explore" && cmd != "tune") return usage();
  if (spec.irs.size() > 1) {
    std::fprintf(stderr,
                 "tytra-cc: %s takes one --ir; use `tytra-cc campaign` for "
                 "multi-design runs\n",
                 cmd.c_str());
    return 2;
  }
  if (!spec.irs.empty() && !spec.kernel.empty()) {
    std::fprintf(stderr,
                 "tytra-cc: %s takes either a kernel name or --ir, not both\n",
                 cmd.c_str());
    return 2;
  }
  if (spec.irs.empty() && spec.kernel.empty()) {
    std::fprintf(stderr, "tytra-cc: %s needs a kernel name (%s) or --ir\n",
                 cmd.c_str(), kernel_list().c_str());
    return 2;
  }
  if (!spec.irs.empty()) {
    if (!register_ir_files(spec.irs)) return 1;
    spec.kernel = spec.irs.front();
  }
  if (spec.devices.size() > 1) {
    std::fprintf(stderr,
                 "tytra-cc: %s takes one --device; use `tytra-cc campaign` "
                 "for multi-device runs\n",
                 cmd.c_str());
    return 2;
  }
  if (!spec.server.empty()) {
    // Validate the kernel against the local registry (it registered the
    // same --ir files), so the unknown-kernel path stays byte-identical.
    if (!kernels::Registry::instance().find(spec.kernel)) {
      std::fprintf(stderr, "tytra-cc: unknown kernel '%s' (%s)\n",
                   spec.kernel.c_str(), kernel_list().c_str());
      return 1;
    }
    if (spec.max_lanes == 0) {
      std::fprintf(stderr, "tytra-cc: --max-lanes must be >= 1\n");
      return 1;
    }
    return run_job_via_server(cmd, spec);
  }
  return run_job_command(cmd, spec);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tytra;

  if (argc >= 2) {
    const std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
      std::printf("%s", usage_text().c_str());
      return 0;
    }
    if (cmd == "explore" || cmd == "tune" || cmd == "campaign" ||
        cmd == "cache" || cmd == "list" || cmd == "lint") {
      return run_subcommand(cmd, argc, argv);
    }
    if (cmd == "ping" || cmd == "shutdown") {
      // Daemon-only conveniences: `tytra-cc ping --server S` checks
      // liveness (prints the pong frame), `shutdown` asks for a graceful
      // drain (the daemon's SIGTERM path, reachable over the socket).
      std::string server;
      for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--server") == 0 && i + 1 < argc) {
          server = argv[++i];
        } else {
          return flag_error(cmd + ": unknown or incomplete flag '" +
                            std::string(argv[i]) + "'");
        }
      }
      if (server.empty()) return flag_error(cmd + " requires --server PATH");
      return run_via_server(server, "{\"cmd\": \"" + cmd + "\"}");
    }
  }

  std::string input_path;
  std::string target_path;
  std::string preset = "stratix-v-gsd8";
  std::string hdl_path;
  bool do_cost = false;
  bool do_params = false;
  bool do_tree = false;
  bool do_print = false;
  bool do_explore = false;
  bool explore_flags_seen = false;
  ExploreSpec spec;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--target" && i + 1 < argc) target_path = argv[++i];
    else if (arg == "--preset" && i + 1 < argc) preset = argv[++i];
    else if (arg == "--cost") do_cost = true;
    else if (arg == "--params") do_params = true;
    else if (arg == "--tree") do_tree = true;
    else if (arg == "--print-ir") do_print = true;
    else if (arg == "--emit-hdl" && i + 1 < argc) hdl_path = argv[++i];
    else if (arg == "--explore" && i + 1 < argc) {
      do_explore = true;
      spec.kernel = argv[++i];
    } else if (arg == "--nd" && i + 1 < argc) {
      std::uint32_t nd = 0;
      if (!parse_u32(argv[++i], nd)) {
        return flag_error("--nd: '" + std::string(argv[i]) +
                          "' is not an unsigned integer");
      }
      spec.nd = nd;
      explore_flags_seen = true;
    } else if (arg == "--max-lanes" && i + 1 < argc) {
      if (!parse_u32(argv[++i], spec.max_lanes)) {
        return flag_error("--max-lanes: '" + std::string(argv[i]) +
                          "' is not an unsigned integer");
      }
      explore_flags_seen = true;
    } else if (arg == "--jobs" && i + 1 < argc) {
      if (!parse_u32(argv[++i], spec.jobs)) {
        return flag_error("--jobs: '" + std::string(argv[i]) +
                          "' is not an unsigned integer");
      }
      explore_flags_seen = true;
    } else if (arg == "--pareto") {
      spec.pareto = true;
      explore_flags_seen = true;
    } else if (!arg.empty() && arg[0] != '-' && input_path.empty()) {
      input_path = arg;
    } else if (!arg.empty() && arg[0] == '-') {
      return flag_error("unknown or incomplete flag '" + arg + "'");
    } else {
      return flag_error("unexpected argument '" + arg + "'");
    }
  }
  if (!do_explore && input_path.empty()) return usage();
  if (!do_explore && explore_flags_seen) {
    std::fprintf(stderr,
                 "tytra-cc: --nd/--max-lanes/--jobs/--pareto only apply to "
                 "explore mode\n");
    return 2;
  }
  if (do_explore &&
      (!input_path.empty() || do_cost || do_params || do_tree || do_print ||
       !hdl_path.empty())) {
    std::fprintf(stderr,
                 "tytra-cc: --explore cannot be combined with an input file "
                 "or the --cost/--params/--tree/--print-ir/--emit-hdl "
                 "actions\n");
    return 2;
  }
  if (!do_cost && !do_params && !do_tree && !do_print && hdl_path.empty() &&
      !do_explore) {
    do_cost = true;
  }

  if (do_explore) {
    // Legacy spelling of the explore subcommand; one deprecation notice,
    // then the exact same Session + Registry path.
    std::fprintf(stderr,
                 "tytra-cc: note: --explore is deprecated; use `tytra-cc "
                 "explore <kernel>`\n");
    spec.devices.push_back(!target_path.empty() ? target_path : preset);
    return run_job_command("explore", spec);
  }

  target::DeviceDesc device;
  if (!target_path.empty()) {
    std::string text;
    if (!read_file(target_path, text)) {
      std::fprintf(stderr, "tytra-cc: cannot read '%s'\n", target_path.c_str());
      return 1;
    }
    auto parsed_target = target::parse_target(text);
    if (!parsed_target.ok()) {
      std::fprintf(stderr, "tytra-cc: %s\n",
                   parsed_target.error_message().c_str());
      return 1;
    }
    device = parsed_target.value();
  } else if (auto p = target::preset(preset)) {
    device = *p;
  } else {
    std::fprintf(stderr, "tytra-cc: unknown preset '%s' (%s)\n",
                 preset.c_str(), preset_list().c_str());
    return 1;
  }

  std::string source;
  if (!read_file(input_path, source)) {
    // A bare word that is neither a readable design nor a subcommand lands
    // here — name both interpretations so a typoed subcommand is obvious.
    std::fprintf(stderr,
                 "tytra-cc: cannot read '%s' (not a design file; subcommands "
                 "are explore|tune|campaign|cache|list)\n",
                 input_path.c_str());
    return 1;
  }

  auto parsed = ir::parse_module(source);
  if (!parsed.ok()) {
    std::fprintf(stderr, "tytra-cc: %s\n", parsed.error_message().c_str());
    return 1;
  }
  for (const auto& w : parsed.value().warnings.all()) {
    std::fprintf(stderr, "tytra-cc: %s\n", w.to_string().c_str());
  }
  const ir::Module module = std::move(parsed).take().module;

  const auto diags = ir::verify(module);
  for (const auto& d : diags.all()) {
    std::fprintf(stderr, "tytra-cc: %s\n", d.to_string().c_str());
  }
  if (diags.has_errors()) return 1;

  if (do_print) {
    std::printf("%s", ir::print_module(module).c_str());
  }
  // One analysis traversal serves every remaining action (tree, params,
  // cost) — the summary bundles what each used to re-derive on its own.
  const ir::AnalysisSummary summary = ir::summarize(module);
  if (do_tree) {
    std::printf("%s", ir::format_config_tree(summary.tree).c_str());
    std::printf("configuration class: %s\n",
                std::string(ir::config_class_name(summary.config)).c_str());
  }
  if (do_params) {
    const ir::DesignParams& p = summary.params;
    std::printf("NGS=%llu NWPT=%.1f NKI=%u Noff=%llu KPD=%d NTO=%.2f NI=%.1f "
                "KNL=%u DV=%u form=%s\n",
                static_cast<unsigned long long>(p.ngs), p.nwpt, p.nki,
                static_cast<unsigned long long>(p.noff), p.kpd, p.nto, p.ni,
                p.knl, p.dv, std::string(ir::exec_form_name(p.form)).c_str());
  }
  if (do_cost) {
    const auto db = cost::DeviceCostDb::calibrate(device);
    std::printf("%s",
                cost::format_report(cost::cost_design(module, db, summary))
                    .c_str());
  }
  if (!hdl_path.empty()) {
    const auto design = codegen::emit_verilog(module);
    std::ofstream out(hdl_path);
    if (!out) {
      std::fprintf(stderr, "tytra-cc: cannot write '%s'\n", hdl_path.c_str());
      return 1;
    }
    out << design.source;
    std::printf("tytra-cc: wrote %zu bytes to %s (top %s, KPD %d)\n",
                design.source.size(), hdl_path.c_str(),
                design.top_module.c_str(), design.pipeline_depth);
  }
  return 0;
}
