#include "tytra/dse/request.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>

#include "tytra/kernels/file_workload.hpp"
#include "tytra/kernels/lint_driver.hpp"
#include "tytra/kernels/registry.hpp"
#include "tytra/support/binio.hpp"
#include "tytra/support/strings.hpp"
#include "tytra/target/device.hpp"

namespace tytra::dse {

namespace {

constexpr int kExitInterrupted = 130;  // 128 + SIGINT, the shell convention

constexpr std::string_view kCommandNames[] = {
    "explore", "tune", "campaign", "list", "lint", "ping", "shutdown"};

/// The wire and argv spelling of a command.
std::string_view command_name(Command cmd) {
  return kCommandNames[static_cast<std::size_t>(cmd)];
}

std::optional<Command> command_named(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kCommandNames); ++i) {
    if (kCommandNames[i] == name) return static_cast<Command>(i);
  }
  return std::nullopt;
}

// Command sets, as bit masks, for the field and flag tables.
constexpr unsigned bit(Command c) { return 1u << static_cast<unsigned>(c); }
constexpr unsigned kExplore = bit(Command::Explore);
constexpr unsigned kTune = bit(Command::Tune);
constexpr unsigned kCampaign = bit(Command::Campaign);
constexpr unsigned kList = bit(Command::List);
constexpr unsigned kLint = bit(Command::Lint);
constexpr unsigned kJobs = kExplore | kTune | kCampaign;
constexpr unsigned kAll = kJobs | kList | kLint | bit(Command::Ping) |
                          bit(Command::Shutdown);

bool uses(unsigned commands, Command cmd) { return (commands & bit(cmd)) != 0; }

std::string preset_list() {
  std::string out;
  for (const auto& name : target::preset_names()) {
    if (!out.empty()) out += "|";
    out += name;
  }
  return out;
}

/// A lower layer's failure as one message, severity and source location
/// included, the way tytra-cc has always printed them.
template <typename T>
Diag relay(const Result<T>& failed) {
  return make_error(failed.error_message());
}

Diag unknown_workload(const Request& r, const std::string& name) {
  const std::string registered = kernels::Registry::instance().names_joined();
  if (r.cmd == Command::Lint) {
    return make_error("unknown workload '" + name + "' (registered: " +
                      registered + ")");
  }
  return make_error("unknown kernel '" + name + "' (" + registered + ")");
}

/// The explicit workload names a prepared request runs.
std::vector<std::string> workload_names(const Request& r) {
  if (r.cmd == Command::Explore || r.cmd == Command::Tune) return {r.kernel};
  if (r.cmd == Command::Campaign || r.cmd == Command::Lint) return r.kernels;
  return {};
}

// ---------------------------------------------------------------------------
// Wire fields
// ---------------------------------------------------------------------------

/// The commands that use each field (see the table in request.hpp).
constexpr struct {
  std::string_view key;
  unsigned commands;
} kFields[] = {
    {"kernel", kExplore | kTune},    {"kernels", kCampaign},
    {"targets", kLint},              {"nd", kExplore | kTune | kLint},
    {"nds", kCampaign},              {"devices", kJobs | kLint},
    {"irs", kJobs | kList | kLint},  {"max_lanes", kJobs},
    {"max_steps", kTune},            {"deadline_ms", kJobs},
    {"json", kJobs | kList | kLint}, {"pareto", kExplore | kCampaign},
    {"on_error", kCampaign},         {"fail_on", kLint},
};

std::optional<unsigned> field_commands(std::string_view key) {
  for (const auto& f : kFields) {
    if (f.key == key) return f.commands;
  }
  return std::nullopt;
}

// Readers store a valid value and return nullptr, or return what the value
// must be.

std::optional<std::uint32_t> as_u32(const json::Value& v) {
  const double d = v.number();
  if (!v.is_number() || !(d >= 0) || d > 4294967295.0 || d != std::floor(d)) {
    return std::nullopt;
  }
  return static_cast<std::uint32_t>(d);
}

const char* read_u32(const json::Value& v, std::uint32_t& out,
                     std::uint32_t lo, std::uint32_t hi, const char* want) {
  const auto n = as_u32(v);
  if (!n || *n < lo || *n > hi) return want;
  out = *n;
  return nullptr;
}

const char* read_bool(const json::Value& v, bool& out) {
  if (!v.is_bool()) return "a boolean";
  out = v.boolean();
  return nullptr;
}

const char* read_strings(const json::Value& v, std::vector<std::string>& out) {
  const char* const want = "an array of strings";
  if (!v.is_array()) return want;
  out.clear();
  for (const json::Value& e : v.elements()) {
    if (!e.is_string()) return want;
    out.push_back(e.str());
  }
  return nullptr;
}

/// A two-valued string field: `out` = (value == `yes`).
const char* read_choice(const json::Value& v, bool& out, const char* yes,
                        const char* no, const char* want) {
  if (!v.is_string() || (v.str() != yes && v.str() != no)) return want;
  out = v.str() == yes;
  return nullptr;
}

const char* read_field(std::string_view key, const json::Value& v, Request& r) {
  constexpr std::uint32_t kMax = 0xffffffffu;
  if (key == "kernel") {
    if (!v.is_string()) return "a string";
    r.kernel = v.str();
  } else if (key == "kernels" || key == "targets") {
    return read_strings(v, r.kernels);
  } else if (key == "devices") {
    return read_strings(v, r.devices);
  } else if (key == "nd") {
    r.nds.resize(1);
    return r.cmd == Command::Lint
               ? read_u32(v, r.nds[0], 1, kMax, "a positive integer")
               : read_u32(v, r.nds[0], 0, kMax, "an unsigned integer");
  } else if (key == "nds") {
    const char* const want = "an array of unsigned integers";
    if (!v.is_array()) return want;
    r.nds.assign(v.elements().size(), 0);
    for (std::size_t i = 0; i < r.nds.size(); ++i) {
      if (read_u32(v.elements()[i], r.nds[i], 0, kMax, want)) return want;
    }
  } else if (key == "irs") {
    const char* const want = "an array of {\"name\", \"source\"} strings";
    if (!v.is_array()) return want;
    r.irs.clear();
    for (const json::Value& e : v.elements()) {
      const auto name = e.get_string("name");
      const auto source = e.get_string("source");
      if (!name || !source) return want;
      r.irs.push_back({*name, *source});
    }
  } else if (key == "max_lanes") {
    return read_u32(v, r.max_lanes, 0, kMax, "an unsigned integer");
  } else if (key == "max_steps") {
    return read_u32(v, r.max_steps, 0, 10000, "an unsigned integer <= 10000");
  } else if (key == "deadline_ms") {
    return read_u32(v, r.deadline_ms, 1, kMax, "a positive integer");
  } else if (key == "json") {
    return read_bool(v, r.json);
  } else if (key == "pareto") {
    return read_bool(v, r.pareto);
  } else if (key == "on_error") {
    return read_choice(v, r.on_error_abort, "abort", "continue",
                       "continue|abort");
  } else if (key == "fail_on") {
    return read_choice(v, r.fail_on_warning, "warning", "error",
                       "error|warning");
  }
  return nullptr;
}

std::string quoted(std::string_view s) { return "\"" + json::escape(s) + "\""; }

template <typename T, typename Render>
std::string json_array(const std::vector<T>& items, Render render) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i ? ", " : "") + render(items[i]);
  }
  return out + "]";
}

// ---------------------------------------------------------------------------
// Command-line flags
// ---------------------------------------------------------------------------

struct Flag {
  std::string_view name;
  bool takes_value;
  unsigned commands;       ///< the subcommands that accept it
  std::string_view field;  ///< the wire field it sets, if any
};

constexpr Flag kFlags[] = {
    {"--kernel", true, kJobs, {}},  // campaign's; explore/tune get an error
    {"--ir", true, kJobs | kList | kLint, {}},
    {"--nd", true, kJobs | kLint, "nd"},  // campaign appends to "nds"
    {"--device", true, kJobs | kLint, {}},
    {"--preset", true, kJobs, {}},  // classic-mode spellings of --device
    {"--target", true, kJobs, {}},
    {"--max-lanes", true, kJobs, "max_lanes"},
    {"--max-steps", true, kJobs, "max_steps"},
    {"--jobs", true, kJobs, {}},
    {"--deadline-ms", true, kJobs, "deadline_ms"},
    {"--on-error", true, kJobs, "on_error"},
    {"--fail-on", true, kLint, "fail_on"},
    {"--snapshot", true, kJobs, {}},
    {"--server", true, kAll, {}},
    {"--pareto", false, kJobs, "pareto"},
    {"--json", false, kJobs | kList | kLint, "json"},
    {"--names", false, kList, {}},
    {"--rules", false, kLint, {}},
};

bool parse_u32(const std::string& text, std::uint32_t& out) {
  if (text.empty() || text[0] == '-' || text[0] == '+') return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (*end != '\0' || v > 0xffffffffULL) return false;
  out = static_cast<std::uint32_t>(v);
  return true;
}

/// Applies one flag and its value; returns the problem, or empty.
std::string apply_flag(const Flag& flag, const std::string& value,
                       Invocation& inv) {
  Request& r = inv.request;
  if (!flag.field.empty()) {
    // The wire field's reader validates the value, so argv and frames
    // share one set of bounds; a flag the command does not use is checked
    // and dropped, as on the wire.
    std::uint32_t n = 0;
    const json::Value v =
        !flag.takes_value     ? json::Value(true)
        : parse_u32(value, n) ? json::Value(static_cast<double>(n))
                              : json::Value(value);
    Request unused;
    unused.cmd = r.cmd;
    const bool used = uses(*field_commands(flag.field), r.cmd);
    if (const char* want = read_field(flag.field, v, used ? r : unused)) {
      return std::string(flag.name) + ": '" + value + "' is not " + want;
    }
    if (flag.name == "--nd" && r.cmd == Command::Campaign) {
      r.nds.push_back(unused.nds.front());
    }
  } else if (flag.name == "--kernel") {
    if (r.cmd != Command::Campaign) return "--kernel only applies to campaign";
    r.kernels.push_back(value);
  } else if (flag.name == "--ir") {
    r.irs.push_back({value, {}});
  } else if (flag.name == "--jobs") {
    if (!parse_u32(value, inv.jobs)) {
      return "--jobs: '" + value + "' is not an unsigned integer";
    }
  } else if (flag.name == "--snapshot") {
    inv.snapshot = value;
  } else if (flag.name == "--server") {
    inv.server = value;
  } else if (flag.name == "--names") {
    inv.names_only = true;
  } else if (flag.name == "--rules") {
    inv.rules = true;
  } else {  // --device and its spellings
    if (r.cmd == Command::Lint) r.devices.clear();  // lint costs one device
    r.devices.push_back(value);
  }
  return {};
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

Response output(std::string out) { return Response{0, std::move(out), {}}; }

}  // namespace

std::string usage_text() {
  const std::string names = kernels::Registry::instance().names_joined();
  const std::string presets = preset_list();
  std::string out;
  out += "usage: tytra-cc <design.tirl> [--target file.tgt | --preset name] "
         "[--cost] [--params] [--tree] [--emit-hdl out.v] [--print-ir]\n";
  out += "       tytra-cc explore <" + names + " | --ir file.tir> [--nd dim] "
         "[--max-lanes n] [--jobs n] [--pareto] [--json] [--snapshot file] "
         "[--deadline-ms n] [--device " + presets + "|file.tgt]\n";
  out += "       tytra-cc tune <" + names + " | --ir file.tir> [--nd dim] "
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

Result<Invocation> parse_args(const std::vector<std::string>& args,
                              std::string_view label) {
  const std::string name = args.empty() ? std::string() : args[0];
  const auto cmd = command_named(name);
  if (!cmd) return make_error("unknown command '" + name + "'");
  const std::string prefix = std::string(label.empty() ? name : label) + ": ";
  const auto usage_error = [&](const std::string& problem) {
    return make_error(prefix + problem + " (see tytra-cc --help)");
  };

  Invocation inv;
  Request& r = inv.request;
  r.cmd = *cmd;
  const bool single = *cmd == Command::Explore || *cmd == Command::Tune;
  std::size_t i = 1;
  if (single && i < args.size() && args[i][0] != '-') r.kernel = args[i++];
  for (; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (*cmd == Command::Lint && arg[0] != '-') {
      r.kernels.push_back(arg);
      continue;
    }
    const auto* flag =
        std::find_if(std::begin(kFlags), std::end(kFlags),
                     [&](const Flag& f) { return f.name == arg; });
    if (flag == std::end(kFlags) || !uses(flag->commands, *cmd)) {
      return usage_error("unknown flag '" + arg + "'");
    }
    if (flag->takes_value && i + 1 >= args.size()) {
      return usage_error(arg + " requires a value");
    }
    const std::string value = flag->takes_value ? args[++i] : std::string();
    if (const std::string problem = apply_flag(*flag, value, inv);
        !problem.empty()) {
      return usage_error(problem);
    }
  }

  if (*cmd == Command::Ping || *cmd == Command::Shutdown) {
    if (inv.server.empty()) {
      return make_error(name + " requires --server PATH (see tytra-cc --help)");
    }
    return inv;
  }
  if (!inv.snapshot.empty() && !inv.server.empty()) {
    return usage_error(
        "--snapshot cannot be combined with --server (the daemon owns the "
        "snapshot)");
  }
  if (inv.names_only && !inv.server.empty()) {
    return usage_error("--names cannot be combined with --server");
  }
  if (!single) {
    // File workloads join the named list under their path names.
    if (*cmd != Command::List) {
      for (const IrSource& ir : r.irs) r.kernels.push_back(ir.name);
    }
    return inv;
  }
  if (r.irs.size() > 1) {
    return make_error(name + " takes one --ir; use `tytra-cc campaign` for "
                             "multi-design runs");
  }
  if (!r.irs.empty() && !r.kernel.empty()) {
    return make_error(name + " takes either a kernel name or --ir, not both");
  }
  if (r.irs.empty() && r.kernel.empty()) {
    return make_error(name + " needs a kernel name (" +
                      kernels::Registry::instance().names_joined() +
                      ") or --ir");
  }
  if (r.devices.size() > 1) {
    return make_error(name + " takes one --device; use `tytra-cc campaign` "
                             "for multi-device runs");
  }
  if (!r.irs.empty()) r.kernel = r.irs.front().name;
  return inv;
}

std::string encode(const Request& request) {
  std::string out = "{\"cmd\": " + quoted(command_name(request.cmd));
  const auto field = [&](std::string_view key, const std::string& value) {
    if (uses(*field_commands(key), request.cmd)) {
      out += ", \"" + std::string(key) + "\": " + value;
    }
  };
  const auto boolean = [](bool b) { return std::string(b ? "true" : "false"); };
  field("kernel", quoted(request.kernel));
  field("kernels", json_array(request.kernels, quoted));
  field("targets", json_array(request.kernels, quoted));
  if (!request.nds.empty()) {
    field("nd", std::to_string(request.nds.back()));
    field("nds", json_array(request.nds, [](std::uint32_t n) {
            return std::to_string(n);
          }));
  }
  if (!request.devices.empty()) {
    field("devices", json_array(request.devices, quoted));
  }
  if (!request.irs.empty()) {
    field("irs", json_array(request.irs, [](const IrSource& ir) {
            return "{\"name\": " + quoted(ir.name) +
                   ", \"source\": " + quoted(ir.source) + "}";
          }));
  }
  field("max_lanes", std::to_string(request.max_lanes));
  field("max_steps", std::to_string(request.max_steps));
  if (request.deadline_ms != 0) {
    field("deadline_ms", std::to_string(request.deadline_ms));
  }
  field("json", boolean(request.json));
  field("pareto", boolean(request.pareto));
  field("on_error", request.on_error_abort ? "\"abort\"" : "\"continue\"");
  field("fail_on", request.fail_on_warning ? "\"warning\"" : "\"error\"");
  return out + "}";
}

Result<Request> decode(const json::Value& frame) {
  if (!frame.is_object()) return make_error("request: not a JSON object");
  const json::Value* cmd = frame.find("cmd");
  if (cmd == nullptr) return make_error("request: missing \"cmd\"");
  if (!cmd->is_string()) return make_error("request: \"cmd\" must be a string");
  const auto command = command_named(cmd->str());
  if (!command) return make_error("request: unknown cmd '" + cmd->str() + "'");
  Request r;
  r.cmd = *command;
  Request unused;  // type-checked fields the command does not use
  unused.cmd = *command;
  for (const auto& [key, value] : frame.members()) {
    if (key == "cmd") continue;
    const auto commands = field_commands(key);
    if (!commands) return make_error("request: unknown field \"" + key + "\"");
    if (const char* want =
            read_field(key, value, uses(*commands, r.cmd) ? r : unused)) {
      return make_error("request: \"" + key + "\" must be " + want);
    }
  }
  if ((r.cmd == Command::Explore || r.cmd == Command::Tune) &&
      frame.find("kernel") == nullptr) {
    return make_error("request: missing \"kernel\"");
  }
  return r;
}

Result<bool> prepare(Request& request, IrSources& registered,
                     std::string* notes) {
  auto& registry = kernels::Registry::instance();
  for (const IrSource& ir : request.irs) {
    if (const auto it = registered.find(ir.name); it != registered.end()) {
      if (it->second != ir.source) {
        return make_error("ir workload '" + ir.name +
                          "' is already registered with different content");
      }
      continue;
    }
    std::vector<Diag> lint;
    auto added = kernels::register_file_workload(registry, ir.name, ir.name,
                                                 ir.source, &lint);
    if (!added.ok()) return relay(added);
    registered.emplace(ir.name, ir.source);
    for (const Diag& d : lint) {
      if (notes) *notes += "tytra-cc: " + ir.name + ": " + d.to_string() + "\n";
    }
  }
  if ((request.cmd == Command::Campaign || request.cmd == Command::Lint) &&
      request.kernels.empty()) {
    request.kernels = registry.names();
  }
  for (const std::string& name : workload_names(request)) {
    if (!registry.find(name)) return unknown_workload(request, name);
  }
  if (uses(kJobs, request.cmd) && request.max_lanes == 0) {
    return make_error("--max-lanes must be >= 1");
  }
  return true;
}

Result<target::DeviceDesc> resolve_device(const std::string& spec) {
  if (auto p = target::preset(spec)) return *p;
  for (const auto& name : target::preset_names()) {
    if (auto p = target::preset(name); p && p->name == spec) return *p;
  }
  const auto text = binio::read_file(spec);
  if (!text.ok()) {
    return make_error("unknown device '" + spec + "' (presets: " +
                      preset_list() + "; or a readable .tgt file)");
  }
  return target::parse_target(text.value());
}

Result<Plan> plan(const Request& request, Session& session) {
  Plan p;
  if (!uses(kJobs | kLint, request.cmd)) return p;
  static const std::vector<std::string> kDefaultDevice = {"stratix-v-gsd8"};
  for (const auto& spec :
       request.devices.empty() ? kDefaultDevice : request.devices) {
    auto device = resolve_device(spec);
    if (!device.ok()) return relay(device);
    const std::string& name = device.value().name;
    if (session.find_device(name) == nullptr) {
      session.add_device(device.value());
    }
    if (std::find(p.devices.begin(), p.devices.end(), name) ==
        p.devices.end()) {
      p.devices.push_back(name);
    }
  }
  if (request.cmd == Command::Lint) return p;

  // The {workload x size x device} fan-out, in that enumeration order.
  const auto& registry = kernels::Registry::instance();
  const std::size_t devices =
      request.cmd == Command::Campaign ? p.devices.size() : 1;
  for (const std::string& kernel : workload_names(request)) {
    const kernels::WorkloadInfo* info = registry.find(kernel);
    if (info == nullptr) return unknown_workload(request, kernel);
    const std::vector<std::uint32_t> nds =
        request.nds.empty() ? std::vector<std::uint32_t>{info->default_nd}
                            : request.nds;
    for (const std::uint32_t nd : nds) {
      auto job = registry.make_job(kernel, nd);
      if (!job.ok()) return relay(job);
      for (std::size_t d = 0; d < devices; ++d) {
        Job j = job.value();
        j.device = p.devices[d];
        j.max_lanes = request.max_lanes;
        j.max_steps = static_cast<int>(request.max_steps);
        j.deadline_seconds = request.deadline_ms / 1000.0;
        p.jobs.push_back(std::move(j));
      }
    }
  }
  return p;
}

std::string Response::err() const {
  return diag.empty() ? std::string() : "tytra-cc: " + diag + "\n";
}

Response render(const Request& request, const Plan& plan,
                const DseResult& result) {
  if (request.json) return output(format_sweep_json(result));
  std::string out = "exploring " + request.kernel + " on " +
                    plan.jobs.front().device + ": " +
                    std::to_string(result.entries.size()) + " variants in " +
                    format_fixed(result.explore_seconds, 3) + " s\n";
  out += format_sweep(result);
  if (request.pareto) {
    out += "\npareto frontier (EKIT vs utilization vs bandwidth share):\n";
    out += format_pareto(result);
  }
  return output(std::move(out));
}

Response render(const Request& request, const Plan& plan,
                const TuneResult& result) {
  if (request.json) return output(format_tune_json(result));
  const Job& job = plan.jobs.front();
  return output("tuning " + request.kernel + " on " + job.device + " (nd=" +
                std::to_string(job.nd) + ", " + std::to_string(job.n) +
                " work-items)\n" + format_tune(result));
}

Response render(const Request& request, const Plan& plan,
                const CampaignResult& result, bool interrupted) {
  if (!interrupted && request.on_error_abort) {
    for (const auto& jr : result.jobs) {
      if (jr.status.ok()) continue;
      return Response{
          1,
          {},
          "campaign: job '" + jr.job.workload + "' (nd=" +
              std::to_string(jr.job.nd) + ", " + jr.job.device + ") " +
              std::string(job_state_name(jr.status.state)) + ": " +
              jr.status.error +
              " (use --on-error continue to keep surviving jobs)"};
    }
  }
  Response r;
  if (request.json) {
    r.out = format_campaign_json(result);
  } else {
    r.out = "campaign: " + std::to_string(result.jobs.size()) + " jobs (" +
            std::to_string(request.kernels.size()) + " kernels x " +
            std::to_string(plan.devices.size()) + " device(s)) in " +
            format_fixed(result.campaign_seconds, 3) + " s\n";
    r.out += format_campaign(result);
    if (request.pareto) {
      r.out += "\nmerged pareto frontier across all jobs:\n";
      r.out += format_campaign_pareto(result);
    }
  }
  if (interrupted) {
    const auto cancelled =
        std::count_if(result.jobs.begin(), result.jobs.end(),
                      [](const CampaignJobResult& jr) {
                        return jr.status.state == JobState::Cancelled;
                      });
    r.exit = kExitInterrupted;
    r.diag = "campaign interrupted (" + std::to_string(cancelled) + " of " +
             std::to_string(result.jobs.size()) +
             " jobs cancelled; completed results above)";
  }
  return r;
}

Response render_failure(const Request& request, const std::exception& error) {
  const std::string cmd(command_name(request.cmd));
  if (dynamic_cast<const CancelledError*>(&error) != nullptr) {
    return Response{kExitInterrupted, {}, cmd + " interrupted"};
  }
  return Response{1, {}, cmd + " failed: " + error.what()};
}

Response execute(const Request& request, const Plan& plan, Session& session) {
  const auto& registry = kernels::Registry::instance();
  try {
    switch (request.cmd) {
      case Command::Explore:
        return render(request, plan, session.explore(plan.jobs.front()));
      case Command::Tune:
        return render(request, plan, session.tune(plan.jobs.front()));
      case Command::Campaign: {
        const CampaignResult result = session.run(Campaign{plan.jobs});
        const CancelToken* cancel = session.options().cancel;
        return render(request, plan, result,
                      cancel != nullptr && cancel->cancelled());
      }
      case Command::List:
        return output(request.json ? kernels::format_registry_json(registry)
                                   : kernels::format_registry(registry));
      case Command::Lint: {
        kernels::LintDriverOptions opts;
        opts.targets = request.kernels;
        opts.nd = request.nds.empty() ? 0 : request.nds.front();
        opts.db = session.find_device(plan.devices.front());
        opts.json = request.json;
        opts.fail_on = request.fail_on_warning ? ir::lint::FailOn::Warning
                                               : ir::lint::FailOn::Error;
        kernels::LintDriverResult lint =
            kernels::run_lint_driver(registry, opts);
        return Response{lint.exit_code, std::move(lint.out),
                        std::move(lint.err)};
      }
      case Command::Ping:
      case Command::Shutdown:
        break;
    }
  } catch (const std::exception& e) {
    return render_failure(request, e);
  }
  return {};
}

}  // namespace tytra::dse
