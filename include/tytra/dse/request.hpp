#pragma once

// One request path for tytra-cc and tytra-dsed. A Request is what a user
// asked for — explore, tune, campaign, list or lint, plus the daemon's
// ping and shutdown — whether it arrived as argv or as a JSON frame. Both
// front-ends run the same four steps:
//
//   parse_args / decode   argv or a frame -> Request
//   prepare               register inline IR, expand "every workload",
//                         validate names against the kernels::Registry
//   plan                  resolve devices against a Session, expand the
//                         {kernel x nd x device} jobs
//   execute / render      run the jobs, compose {stdout, stderr, exit}
//
// tytra-cc runs them in-process, or stops after prepare and ships
// encode(request) to a daemon (--server). tytra-dsed decodes, prepares and
// plans, schedules the plan's jobs round-robin across connections, and
// renders through the same functions, so daemon output equals a
// standalone run by construction.
//
// Wire schema (one JSON object per frame). Every field but "cmd" is
// optional and takes the default shown. Decoding is strict: an unknown
// key, or a known key with a value of the wrong type or out of range, is
// a `request: ...` error (exit 2), never a silent default. A known field
// a command does not use is still type-checked, then ignored (older
// clients send the explore fields with list).
//
//   field        type                used by                 default
//   cmd          string: explore,    all (required)          -
//                tune, campaign,
//                list, lint, ping,
//                shutdown
//   kernel       string              explore, tune           - (required)
//   kernels      [string]            campaign                all registered
//   targets      [string]            lint                    all registered
//   nd           u32 (lint: >= 1)    explore, tune, lint     workload's
//   nds          [u32]               campaign                workload's
//   devices      [string]: preset,   explore, tune,          stratix-v-gsd8
//                device name or      campaign, lint
//                .tgt path
//   irs          [{name, source}]    all but ping, shutdown  none
//   max_lanes    u32                 explore, tune, campaign 16
//   max_steps    u32 <= 10000        tune                    12
//   deadline_ms  u32 >= 1            explore, tune, campaign none
//   json         bool                all but ping, shutdown  false
//   pareto       bool                explore, campaign       false
//   on_error     abort|continue      campaign                abort
//   fail_on      error|warning       lint                    error

#include <cstdint>
#include <exception>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "tytra/dse/session.hpp"
#include "tytra/support/diag.hpp"
#include "tytra/support/json.hpp"
#include "tytra/target/device.hpp"

namespace tytra::dse {

enum class Command { Explore, Tune, Campaign, List, Lint, Ping, Shutdown };

/// An IR workload shipped with the request: registered under `name` (the
/// CLI uses the file's path) from `source`, the TyTra-IR text.
struct IrSource {
  std::string name;
  std::string source;
  bool operator==(const IrSource&) const = default;
};

/// One request, in the wire schema's terms (see the table above). Fields
/// a command does not use stay at their defaults.
struct Request {
  Command cmd{Command::Explore};
  std::string kernel;
  /// campaign "kernels" / lint "targets"; prepare() fills in every
  /// registered workload when empty.
  std::vector<std::string> kernels;
  /// campaign "nds"; explore, tune and lint carry at most one ("nd").
  std::vector<std::uint32_t> nds;
  std::vector<std::string> devices;
  std::vector<IrSource> irs;
  std::uint32_t max_lanes{16};
  std::uint32_t max_steps{12};
  std::uint32_t deadline_ms{0};
  bool json{false};
  bool pareto{false};
  bool on_error_abort{true};
  bool fail_on_warning{false};
  bool operator==(const Request&) const = default;
};

/// A tytra-cc command line: the Request plus the options that stay in the
/// process and never reach the wire.
struct Invocation {
  Request request;
  std::uint32_t jobs{0};   ///< --jobs: worker threads (0 = hardware)
  std::string snapshot;    ///< --snapshot: warm-start file, saved back
  std::string server;      ///< --server: tytra-dsed socket to run through
  bool names_only{false};  ///< list --names
  bool rules{false};       ///< lint --rules
};

/// The tytra-cc usage text, one line per command form.
std::string usage_text();

/// Builds an Invocation from `args`: args[0] is the subcommand (explore,
/// tune, campaign, list, lint, ping, shutdown), the rest its words. The
/// error is the complete diagnostic for a usage error (exit 2); `label`
/// replaces the subcommand name in it (`cache dump` parses campaign
/// flags). Each --ir file becomes an IrSource named by its path, with an
/// empty source for the caller to read.
Result<Invocation> parse_args(const std::vector<std::string>& args,
                              std::string_view label = {});

/// Encodes a request as one wire frame. decode(encode(r)) == r for every
/// request whose unused fields are at their defaults.
std::string encode(const Request& request);

/// Decodes one frame; the error message starts with "request: " (exit 2).
Result<Request> decode(const json::Value& frame);

/// IR sources this process registered, by workload name: resubmitting
/// identical text is a no-op, different text under the same name is an
/// error (the registry cannot hold both).
using IrSources = std::map<std::string, std::string>;

/// The registry half of planning, which needs no Session (a --server
/// client runs it locally, so "every workload" means the client's
/// registry and an unknown name reads the same as standalone). Registers
/// request.irs, expands an empty kernels list to every registered
/// workload, checks that each named workload exists and that explore,
/// tune and campaign have max_lanes >= 1. Advisory lint findings on
/// registered IR are appended to `notes` as "tytra-cc: <name>: <diag>"
/// lines. Errors exit 1.
Result<bool> prepare(Request& request, IrSources& registered,
                     std::string* notes = nullptr);

/// Resolves a device spec: a preset name, a preset's device name (the
/// spelling the output tables print, so a name copied from tytra-cc's own
/// output round-trips), or the path of a .tgt file.
Result<target::DeviceDesc> resolve_device(const std::string& spec);

/// The jobs one prepared request runs.
struct Plan {
  /// explore/tune: one job; campaign: the kernel x nd x device fan-out in
  /// that order; list and lint: none.
  std::vector<Job> jobs;
  /// Device-table names the request resolved to, deduplicated, in request
  /// order (lint costs against the first).
  std::vector<std::string> devices;
};

/// Resolves the request's devices (a preset, a preset's device name, or
/// a .tgt path), adding each new one to `session`, and builds the jobs
/// with the request's lane cap, step budget and deadline. Errors exit 1.
Result<Plan> plan(const Request& request, Session& session);

/// What a request prints and returns.
struct Response {
  int exit{0};
  std::string out;   ///< stdout; empty when the request failed
  std::string diag;  ///< one stderr diagnostic after stdout; empty = none
  /// The stderr bytes: "tytra-cc: <diag>\n", or nothing.
  [[nodiscard]] std::string err() const;
};

/// Runs a planned request through `session` and renders it. A campaign
/// counts as interrupted when the session's cancel token was flipped.
Response execute(const Request& request, const Plan& plan, Session& session);

/// The renderers execute() uses, for callers that run the jobs
/// themselves (the daemon schedules them one at a time).
Response render(const Request& request, const Plan& plan,
                const DseResult& result);
Response render(const Request& request, const Plan& plan,
                const TuneResult& result);
/// Abort policy (the default): a degraded, uninterrupted campaign fails
/// with the first casualty and no stdout. Interrupted: the completed
/// results, a "campaign interrupted" diagnostic and exit 130.
Response render(const Request& request, const Plan& plan,
                const CampaignResult& result, bool interrupted);
/// A run that threw: "<cmd> interrupted" (exit 130) for CancelledError,
/// "<cmd> failed: <what>" (exit 1) otherwise.
Response render_failure(const Request& request, const std::exception& error);

}  // namespace tytra::dse
