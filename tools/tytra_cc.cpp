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
//   tytra-cc lint [<kernel>]... [options]       lint registered workloads
//
// The DSE subcommands run through dse/request.hpp, the request path
// tytra-dsed shares: argv -> Request -> prepare -> (plan -> Session ->
// render) in-process, or the encoded Request sent to a daemon with
// --server. What stays here is only what a process owns: the SIGINT
// token, saving --snapshot before printing, the `cache` tooling and the
// classic single-design path.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "tytra/codegen/verilog.hpp"
#include "tytra/cost/calibration.hpp"
#include "tytra/cost/report.hpp"
#include "tytra/dse/cancel.hpp"
#include "tytra/dse/request.hpp"
#include "tytra/dse/session.hpp"
#include "tytra/ir/analysis.hpp"
#include "tytra/ir/lint.hpp"
#include "tytra/ir/parser.hpp"
#include "tytra/ir/printer.hpp"
#include "tytra/ir/verifier.hpp"
#include "tytra/kernels/registry.hpp"
#include "tytra/support/binio.hpp"
#include "tytra/support/framing.hpp"
#include "tytra/support/json.hpp"
#include "tytra/target/device.hpp"

namespace {

using namespace tytra;

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

int usage() {
  std::fprintf(stderr, "%s", dse::usage_text().c_str());
  return 2;
}

/// A failure before anything reached stdout: one stderr line, and exit 1
/// for a runtime error or 2 for a malformed invocation.
int fail(const std::string& message, int exit_code = 1) {
  std::fprintf(stderr, "tytra-cc: %s\n", message.c_str());
  return exit_code;
}

/// A malformed invocation, with the usage pointer. parse_args composes
/// the same shape for the subcommands it parses.
int flag_error(const std::string& message) {
  return fail(message + " (see tytra-cc --help)", 2);
}

/// Writes a rendered response: stdout in one fwrite (an interrupt can
/// stop a run early, but never leave a half-written table), then its
/// diagnostic.
int print(const dse::Response& response) {
  std::fwrite(response.out.data(), 1, response.out.size(), stdout);
  const std::string err = response.err();
  std::fwrite(err.data(), 1, err.size(), stderr);
  return response.exit;
}

// ---------------------------------------------------------------------------
// Client mode (--server): ship the request to a tytra-dsed daemon
// ---------------------------------------------------------------------------

/// Sends one request frame on a connected socket and relays the answer:
/// per-job progress frames are consumed silently (the final frame carries
/// the standalone run's full stdout/stderr), "result"/"error" terminate
/// with the daemon's exit code — so `tytra-cc --server ...` is byte- and
/// exit-code-identical to the same command run standalone.
int exchange(int fd, const std::string& request) {
  std::string err;
  if (!framing::write_frame(fd, request, err)) {
    return fail("server write failed: " + err);
  }
  std::string payload;
  for (;;) {
    const framing::ReadStatus st = framing::read_frame(fd, payload, err);
    if (st == framing::ReadStatus::Eof) return fail("server disconnected");
    if (st == framing::ReadStatus::Error) return fail(err);
    auto parsed = json::parse(payload);
    if (!parsed.ok() || !parsed.value().is_object()) {
      return fail("bad frame from server: " +
                  (parsed.ok() ? "not an object" : parsed.diag().message));
    }
    const json::Value& frame = parsed.value();
    const std::string type = frame.get_string("type").value_or("");
    if (type == "job") continue;
    if (type == "pong") {
      std::printf("%s\n", payload.c_str());
      return 0;
    }
    const int exit_code = static_cast<int>(frame.get_u32("exit").value_or(1));
    if (type == "result") {
      const std::string out = frame.get_string("stdout").value_or("");
      const std::string errout = frame.get_string("stderr").value_or("");
      std::fwrite(out.data(), 1, out.size(), stdout);
      std::fwrite(errout.data(), 1, errout.size(), stderr);
      return exit_code;
    }
    if (type == "error") {
      return print(dse::Response{
          exit_code, {}, frame.get_string("message").value_or("server error")});
    }
    return fail("unexpected frame type '" + type + "' from server");
  }
}

int run_via_server(const std::string& socket_path, const std::string& request) {
  sockaddr_un addr{};
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return fail("--server path '" + socket_path + "' is too long");
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return fail(std::string("socket: ") + std::strerror(errno));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int rc =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0
          ? exchange(fd, request)
          : fail("cannot connect to server '" + socket_path +
                 "': " + std::strerror(errno) + " (is tytra-dsed running?)");
  ::close(fd);
  return rc;
}

// ---------------------------------------------------------------------------
// The shared request path
// ---------------------------------------------------------------------------

/// Runs one parsed command line. `quiet` (cache dump) replaces the result
/// tables with a one-line summary of the snapshot written.
int run_request(dse::Invocation inv, bool quiet = false) {
  dse::Request& request = inv.request;
  if (inv.rules) {
    const std::string out =
        ir::lint::format_rules(ir::lint::Registry::instance());
    std::fwrite(out.data(), 1, out.size(), stdout);
    return 0;
  }
  if (request.cmd == dse::Command::Ping ||
      request.cmd == dse::Command::Shutdown) {
    // Daemon-only conveniences: liveness (prints the pong frame) and a
    // graceful drain (the daemon's SIGTERM path, reachable over the socket).
    return run_via_server(inv.server, dse::encode(request));
  }
  for (dse::IrSource& ir : request.irs) {
    auto text = binio::read_file(ir.name);
    if (!text.ok()) return fail(text.error_message());
    ir.source = std::move(text).take();
  }
  // Registered IR's advisory lint findings go to stderr, except under
  // lint, whose report is the one rendering of them.
  dse::IrSources registered;
  std::string notes;
  const auto prepared =
      dse::prepare(request, registered,
                   request.cmd == dse::Command::Lint ? nullptr : &notes);
  std::fwrite(notes.data(), 1, notes.size(), stderr);
  if (!prepared.ok()) return fail(prepared.diag().message);
  if (!inv.server.empty()) {
    return run_via_server(inv.server, dse::encode(request));
  }
  if (inv.names_only) {
    for (const auto& name : kernels::Registry::instance().names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }

  dse::SessionOptions so;
  so.num_threads = inv.jobs;
  // A single-shot explore/tune evaluates each variant exactly once, so a
  // per-invocation cache would be pure keying + insert overhead; only
  // `campaign` (repeat sizes, sweep-then-tune patterns) warms one.
  // --snapshot changes that calculus: the cache IS the artifact being
  // persisted, and the next process's warm start pays for it.
  so.enable_cache =
      request.cmd == dse::Command::Campaign || !inv.snapshot.empty();
  so.snapshot_path = inv.snapshot;
  if (request.cmd == dse::Command::Explore ||
      request.cmd == dse::Command::Tune ||
      request.cmd == dse::Command::Campaign) {
    so.cancel = &g_cancel;
    install_signal_cancel();
  }
  try {
    dse::Session session(so);
    const auto planned = dse::plan(request, session);
    if (!planned.ok()) return fail(planned.diag().message);
    dse::Response response = dse::execute(request, planned.value(), session);
    // Save before printing, and only what is a result: a failed request
    // (no stdout) leaves the snapshot alone. A run answered wholly from
    // the snapshot it loaded leaves the file untouched (see
    // Session::save_snapshot). The user asked for persistence, so a
    // snapshot that cannot be written is an error, not a degradation.
    if (!inv.snapshot.empty() && !response.out.empty()) {
      if (const auto written = session.save_snapshot(inv.snapshot);
          !written.ok()) {
        return fail(written.diag().message);
      }
      if (quiet) {
        const dse::CostCache* cache = session.cache();
        response.out =
            "snapshot: wrote " + inv.snapshot +
            " (structural=" + std::to_string(cache ? cache->size() : 0) +
            " variant=" + std::to_string(cache ? cache->variant_size() : 0) +
            " calibrations=" + std::to_string(session.device_names().size()) +
            ")\n";
      }
    }
    return print(response);
  } catch (const std::exception& e) {
    return print(dse::render_failure(request, e));
  }
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
    std::vector<std::string> args = {"campaign"};
    args.insert(args.end(), argv + 4, argv + argc);
    auto inv = dse::parse_args(args, "cache dump");
    if (!inv.ok()) return fail(inv.diag().message, 2);
    if (!inv.value().server.empty()) {
      return flag_error("cache dump: --server is not supported (the daemon "
                        "owns its snapshot; use tytra-dsed --snapshot)");
    }
    inv.value().snapshot = argv[3];
    return run_request(std::move(inv).take(), /*quiet=*/true);
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
      if (!stats.ok()) return fail("cache load: " + stats.diag().message);
      std::printf("loaded %s: structural=%zu variant=%zu calibrations=%zu\n",
                  path.c_str(), stats.value().structural_entries,
                  stats.value().variant_entries, stats.value().calibrations);
      return 0;
    } catch (const std::exception& e) {
      return fail(std::string("cache load failed: ") + e.what());
    }
  }

  // inspect / verify: the full offline integrity + payload walk.
  const auto summary = dse::verify_snapshot(path);
  if (!summary.ok()) {
    return fail("cache " + action + ": " + path + ": " +
                summary.diag().message);
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

}  // namespace

int main(int argc, char** argv) {
  using namespace tytra;

  if (argc >= 2) {
    const std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
      std::printf("%s", dse::usage_text().c_str());
      return 0;
    }
    if (cmd == "cache") return run_cache(argc, argv);
    if (cmd == "explore" || cmd == "tune" || cmd == "campaign" ||
        cmd == "list" || cmd == "lint" || cmd == "ping" || cmd == "shutdown") {
      auto inv =
          dse::parse_args(std::vector<std::string>(argv + 1, argv + argc));
      if (!inv.ok()) return fail(inv.diag().message, 2);
      return run_request(std::move(inv).take());
    }
  }

  // The classic path: one design file, costed or emitted.
  std::string input_path;
  std::string target_path;
  std::string preset = "stratix-v-gsd8";
  std::string hdl_path;
  bool do_cost = false;
  bool do_params = false;
  bool do_tree = false;
  bool do_print = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--target" && i + 1 < argc) target_path = argv[++i];
    else if (arg == "--preset" && i + 1 < argc) preset = argv[++i];
    else if (arg == "--cost") do_cost = true;
    else if (arg == "--params") do_params = true;
    else if (arg == "--tree") do_tree = true;
    else if (arg == "--print-ir") do_print = true;
    else if (arg == "--emit-hdl" && i + 1 < argc) hdl_path = argv[++i];
    else if (!arg.empty() && arg[0] != '-' && input_path.empty())
      input_path = arg;
    else if (!arg.empty() && arg[0] == '-') {
      return flag_error("unknown or incomplete flag '" + arg + "'");
    } else {
      return flag_error("unexpected argument '" + arg + "'");
    }
  }
  if (input_path.empty()) return usage();
  if (!do_cost && !do_params && !do_tree && !do_print && hdl_path.empty()) {
    do_cost = true;
  }

  const auto device =
      dse::resolve_device(target_path.empty() ? preset : target_path);
  if (!device.ok()) return fail(device.error_message());

  const auto source = binio::read_file(input_path);
  if (!source.ok()) {
    // A bare word that is neither a readable design nor a subcommand lands
    // here — name both interpretations so a typoed subcommand is obvious.
    return fail("cannot read '" + input_path +
                "' (not a design file; subcommands are "
                "explore|tune|campaign|cache|list|lint)");
  }

  auto parsed = ir::parse_module(source.value());
  if (!parsed.ok()) return fail(parsed.error_message());
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
    const auto db = cost::DeviceCostDb::calibrate(device.value());
    std::printf("%s",
                cost::format_report(cost::cost_design(module, db, summary))
                    .c_str());
  }
  if (!hdl_path.empty()) {
    const auto design = codegen::emit_verilog(module);
    std::ofstream out(hdl_path);
    if (!out) return fail("cannot write '" + hdl_path + "'");
    out << design.source;
    std::printf("tytra-cc: wrote %zu bytes to %s (top %s, KPD %d)\n",
                design.source.size(), hdl_path.c_str(),
                design.top_module.c_str(), design.pipeline_depth);
  }
  return 0;
}
