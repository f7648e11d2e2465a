// Tests of dse/request.hpp, the request path tytra-cc and tytra-dsed
// share: every command-line form the usage text advertises survives
// argv -> Request -> encode -> decode unchanged; the hand-written frames
// the daemon tests and benchmarks send decode to the request they mean;
// present-but-invalid fields are typed errors, never silent defaults; and
// a seeded mutation pass over valid frames never crashes the decoder.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "tytra/dse/request.hpp"
#include "tytra/support/json.hpp"
#include "tytra/support/rng.hpp"

namespace {

namespace dse = tytra::dse;
using dse::Command;
using dse::Request;
using tytra::json::Value;

using Args = std::vector<std::string>;

tytra::Result<Request> decode_text(const std::string& text) {
  auto parsed = tytra::json::parse(text);
  if (!parsed.ok()) return parsed.diag();
  return dse::decode(parsed.value());
}

Request request(const Args& args) {
  auto inv = dse::parse_args(args);
  EXPECT_TRUE(inv.ok()) << args[0] << ": " << inv.error_message();
  return inv.ok() ? inv.value().request : Request{};
}

/// Every explore/tune/campaign/list/lint form of usage_text(), each flag
/// in at least one of them.
const std::vector<Args>& usage_forms() {
  static const std::vector<Args> forms = {
      {"explore", "sor"},
      {"explore", "sor", "--nd", "8", "--max-lanes", "4", "--jobs", "2",
       "--pareto", "--json", "--snapshot", "s.snap", "--deadline-ms", "500",
       "--device", "fig15"},
      {"explore", "--ir", "k.tir", "--device", "board.tgt"},
      {"explore", "lavamd", "--server", "/tmp/d.sock"},
      {"tune", "hotspot", "--nd", "16", "--max-steps", "3", "--max-lanes",
       "8", "--json", "--snapshot", "s.snap", "--deadline-ms", "9",
       "--device", "virtex7-690t"},
      {"tune", "--ir", "k.tir", "--server", "/tmp/d.sock"},
      {"campaign"},
      {"campaign", "--kernel", "sor", "--kernel", "lavamd", "--ir", "a.tir",
       "--ir", "b.tir", "--nd", "8", "--nd", "16", "--device", "fig15",
       "--device", "b.tgt", "--max-lanes", "32", "--jobs", "4", "--pareto",
       "--json", "--snapshot", "c.snap", "--deadline-ms", "1000",
       "--on-error", "continue"},
      {"campaign", "--on-error", "abort", "--server", "/tmp/d.sock"},
      {"list"},
      {"list", "--names", "--json", "--ir", "a.tir", "--ir", "b.tir"},
      {"list", "--json", "--server", "/tmp/d.sock"},
      {"lint"},
      {"lint", "sor", "lavamd", "--ir", "a.tir", "--nd", "12", "--device",
       "fig15", "--json", "--fail-on", "warning", "--rules"},
      {"lint", "--fail-on", "error", "--server", "/tmp/d.sock"},
  };
  return forms;
}

TEST(Request, UsageFormsCoverEveryAdvertisedFlag) {
  const std::string usage = dse::usage_text();
  std::size_t checked = 0;
  for (std::size_t start = 0; start < usage.size();) {
    const std::size_t end = usage.find('\n', start);
    const std::string line = usage.substr(start, end - start);
    start = end + 1;
    for (const char* cmd : {"explore", "tune", "campaign", "list", "lint"}) {
      const std::string form = "tytra-cc " + std::string(cmd) + " ";
      if (line.find(form) == std::string::npos) continue;
      for (std::size_t at = line.find("--"); at != std::string::npos;
           at = line.find("--", at + 2)) {
        const std::string flag =
            line.substr(at, line.find_first_of(" ]", at) - at);
        const bool covered = std::any_of(
            usage_forms().begin(), usage_forms().end(), [&](const Args& a) {
              return a[0] == cmd &&
                     std::find(a.begin(), a.end(), flag) != a.end();
            });
        EXPECT_TRUE(covered) << cmd << " " << flag;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 30u);
}

TEST(Request, ArgvFormsRoundTripThroughTheWire) {
  for (const Args& args : usage_forms()) {
    const Request r = request(args);
    const auto back = decode_text(dse::encode(r));
    ASSERT_TRUE(back.ok()) << args[0] << ": " << back.error_message();
    EXPECT_EQ(back.value(), r) << dse::encode(r);
  }
  for (const char* verb : {"ping", "shutdown"}) {
    const Request r = request({verb, "--server", "/tmp/d.sock"});
    EXPECT_EQ(r.cmd, verb == std::string("ping") ? Command::Ping
                                                 : Command::Shutdown);
    EXPECT_EQ(dse::encode(r), "{\"cmd\": \"" + std::string(verb) + "\"}");
  }
}

TEST(Request, ArgvBuildsTheIntendedRequest) {
  const auto campaign = dse::parse_args(usage_forms()[7]);
  ASSERT_TRUE(campaign.ok());
  const Request& c = campaign.value().request;
  EXPECT_EQ(c.cmd, Command::Campaign);
  EXPECT_EQ(c.kernels, (Args{"sor", "lavamd", "a.tir", "b.tir"}));
  EXPECT_EQ(c.nds, (std::vector<std::uint32_t>{8, 16}));
  EXPECT_EQ(c.devices, (Args{"fig15", "b.tgt"}));
  EXPECT_EQ(c.max_lanes, 32u);
  EXPECT_EQ(c.deadline_ms, 1000u);
  EXPECT_FALSE(c.on_error_abort);
  EXPECT_TRUE(c.pareto && c.json);
  EXPECT_EQ(campaign.value().jobs, 4u);
  EXPECT_EQ(campaign.value().snapshot, "c.snap");

  // explore --ir runs the file under its path; the last --nd wins.
  const Request e =
      request({"explore", "--ir", "k.tir", "--nd", "4", "--nd", "6"});
  EXPECT_EQ(e.kernel, "k.tir");
  EXPECT_EQ(e.nds, (std::vector<std::uint32_t>{6}));
  ASSERT_EQ(e.irs.size(), 1u);
  EXPECT_EQ(e.irs[0].name, "k.tir");

  // Flags a command accepts but does not use stay at their defaults.
  const Request t =
      request({"tune", "sor", "--pareto", "--on-error", "continue"});
  EXPECT_FALSE(t.pareto);
  EXPECT_TRUE(t.on_error_abort);
  // lint costs one device: the last --device wins.
  EXPECT_EQ(request({"lint", "--device", "fig15", "--device", "x.tgt"}).devices,
            Args{"x.tgt"});
}

TEST(Request, ArgvUsageErrors) {
  const struct {
    Args args;
    const char* message;
  } cases[] = {
      {{"explore", "sor", "--bogus"},
       "explore: unknown flag '--bogus' (see tytra-cc --help)"},
      {{"explore", "sor", "--nd"},
       "explore: --nd requires a value (see tytra-cc --help)"},
      {{"explore", "sor", "--nd", "-5"},
       "explore: --nd: '-5' is not an unsigned integer (see tytra-cc --help)"},
      {{"explore", "sor", "--kernel", "hotspot"},
       "explore: --kernel only applies to campaign (see tytra-cc --help)"},
      {{"tune", "sor", "--max-steps", "10001"},
       "tune: --max-steps: '10001' is not an unsigned integer <= 10000 (see "
       "tytra-cc --help)"},
      {{"campaign", "--deadline-ms", "0"},
       "campaign: --deadline-ms: '0' is not a positive integer (see tytra-cc "
       "--help)"},
      {{"campaign", "--on-error", "sometimes"},
       "campaign: --on-error: 'sometimes' is not continue|abort (see "
       "tytra-cc --help)"},
      {{"lint", "--nd", "0"},
       "lint: --nd: '0' is not a positive integer (see tytra-cc --help)"},
      {{"list", "--nd", "3"},
       "list: unknown flag '--nd' (see tytra-cc --help)"},
      {{"list", "--names", "--server", "s"},
       "list: --names cannot be combined with --server (see tytra-cc --help)"},
      {{"explore", "sor", "--snapshot", "a", "--server", "s"},
       "explore: --snapshot cannot be combined with --server (the daemon owns "
       "the snapshot) (see tytra-cc --help)"},
      {{"explore", "sor", "--ir", "k.tir"},
       "explore takes either a kernel name or --ir, not both"},
      {{"tune", "--ir", "a.tir", "--ir", "b.tir"},
       "tune takes one --ir; use `tytra-cc campaign` for multi-design runs"},
      {{"explore", "sor", "--device", "a", "--device", "b"},
       "explore takes one --device; use `tytra-cc campaign` for "
       "multi-device runs"},
      {{"ping"}, "ping requires --server PATH (see tytra-cc --help)"},
  };
  for (const auto& c : cases) {
    const auto inv = dse::parse_args(c.args);
    ASSERT_FALSE(inv.ok()) << c.message;
    EXPECT_EQ(inv.diag().message, c.message);
  }
  const auto dump = dse::parse_args({"campaign", "--bogus"}, "cache dump");
  ASSERT_FALSE(dump.ok());
  EXPECT_EQ(dump.diag().message,
            "cache dump: unknown flag '--bogus' (see tytra-cc --help)");
}

// The raw frames the daemon tests and benchmarks send by hand.
TEST(Request, HandWrittenFramesDecodeToTheIntendedRequest) {
  const auto expect = [](const std::string& frame, const Request& want) {
    const auto got = decode_text(frame);
    ASSERT_TRUE(got.ok()) << frame << ": " << got.error_message();
    EXPECT_EQ(got.value(), want) << frame;
  };
  Request ping;
  ping.cmd = Command::Ping;
  expect(R"({"cmd": "ping"})", ping);
  Request shutdown;
  shutdown.cmd = Command::Shutdown;
  expect(R"({"cmd": "shutdown"})", shutdown);

  Request list;
  list.cmd = Command::List;
  list.json = true;
  expect(R"({"cmd": "list", "json": true})", list);
  // An older client sends the explore fields with list; they are ignored.
  expect(R"({"cmd": "list", "max_lanes": 16, "json": true, "pareto": false, )"
         R"("on_error": "abort"})",
         list);

  Request explore;
  explore.kernel = "sor";
  explore.nds = {8};
  explore.json = true;
  expect(R"({"cmd": "explore", "kernel": "sor", "nd": 8, "json": true})",
         explore);
  explore.nds = {16};
  expect(R"({"cmd": "explore", "kernel": "sor", "nd": 16, "json": true})",
         explore);
  Request nope;
  nope.kernel = "nope";
  nope.json = true;
  expect(R"({"cmd": "explore", "kernel": "nope", "json": true})", nope);

  Request campaign;
  campaign.cmd = Command::Campaign;
  campaign.kernels = {"sor", "hotspot"};
  campaign.nds = {6};
  campaign.json = true;
  expect(R"({"cmd": "campaign", "kernels": ["sor", "hotspot"], "nds": [6], )"
         R"("json": true})",
         campaign);
  campaign.nds = {8};
  expect(R"({"cmd": "campaign", "kernels": ["sor", "hotspot"], "nds": [8], )"
         R"("json": true})",
         campaign);
  campaign.kernels = {"sor", "hotspot", "lavamd"};
  campaign.nds = {6, 8, 10, 12, 14, 16};
  expect(R"({"cmd": "campaign", "kernels": ["sor", "hotspot", "lavamd"], )"
         R"("nds": [6, 8, 10, 12, 14, 16], "json": true})",
         campaign);
  campaign.nds = {6, 8, 10, 12};
  expect(R"({"cmd": "campaign", "kernels": ["sor", "hotspot", "lavamd"], )"
         R"("nds": [6, 8, 10, 12], "json": true})",
         campaign);
  campaign.json = false;
  expect(R"({"cmd": "campaign", "kernels": ["sor", "hotspot", "lavamd"], )"
         R"("nds": [6, 8, 10, 12], "json": false})",
         campaign);

  campaign.nds.clear();
  campaign.json = true;
  expect(R"({"cmd": "campaign", "kernels": ["sor", "hotspot", "lavamd"], )"
         R"("json": true})",
         campaign);

  // The benchmark's daemon workload (perfbench/src/common.cpp and
  // daemon_mixed.cpp).
  Request bench_explore;
  bench_explore.kernel = "hotspot";
  bench_explore.nds = {64};
  bench_explore.devices = {"fig15"};
  bench_explore.json = true;
  expect(R"({"cmd": "explore", "kernel": "hotspot", "nd": 64, "devices": )"
         R"(["fig15"], "max_lanes": 16, "json": true})",
         bench_explore);
  Request bench_tune = bench_explore;
  bench_tune.cmd = Command::Tune;
  bench_tune.max_steps = 12;
  expect(R"({"cmd": "tune", "kernel": "hotspot", "nd": 64, "devices": )"
         R"(["fig15"], "max_lanes": 16, "max_steps": 12, "json": true})",
         bench_tune);
  Request bench_campaign;
  bench_campaign.cmd = Command::Campaign;
  bench_campaign.kernels = {"lavamd"};
  bench_campaign.nds = {272};
  bench_campaign.devices = {"stratix-v-gsd8", "virtex7-690t", "fig15"};
  bench_campaign.json = true;
  expect(R"({"cmd": "campaign", "kernels": ["lavamd"], "nds": [272], )"
         R"("devices": ["stratix-v-gsd8", "virtex7-690t", "fig15"], )"
         R"("max_lanes": 16, "json": true})",
         bench_campaign);

  // A lint frame as an older client composed it.
  Request lint;
  lint.cmd = Command::Lint;
  lint.kernels = {"sor", "lavamd"};
  lint.nds = {12};
  lint.devices = {"stratix-v-gsd8"};
  lint.fail_on_warning = true;
  lint.irs = {{"k.tir", "define void @main() {}"}};
  expect(R"({"cmd": "lint", "targets": ["sor", "lavamd"], "nd": 12, )"
         R"("json": false, "fail_on": "warning", "devices": )"
         R"(["stratix-v-gsd8"], "irs": [{"name": "k.tir", "source": )"
         R"("define void @main() {}"}]})",
         lint);
}

// Present-but-invalid fields are typed errors; the daemon answers them
// with exit 2 instead of running a design nobody asked for.
TEST(Request, InvalidFieldsAreTypedErrors) {
  const struct {
    const char* frame;
    const char* message;
  } cases[] = {
      {"42", "request: not a JSON object"},
      {R"({"kernel": "sor"})", "request: missing \"cmd\""},
      {R"({"cmd": 7})", "request: \"cmd\" must be a string"},
      {R"({"cmd": "frobnicate"})", "request: unknown cmd 'frobnicate'"},
      {R"({"cmd": "explore"})", "request: missing \"kernel\""},
      {R"({"cmd": "explore", "kernel": "sor", "nd": -5})",
       "request: \"nd\" must be an unsigned integer"},
      {R"({"cmd": "explore", "kernel": "sor", "max_lanes": "zero"})",
       "request: \"max_lanes\" must be an unsigned integer"},
      {R"({"cmd": "campaign", "nds": [6.7]})",
       "request: \"nds\" must be an array of unsigned integers"},
      {R"({"cmd": "campaign", "nds": ["x"]})",
       "request: \"nds\" must be an array of unsigned integers"},
      {R"({"cmd": "campaign", "nds": [-1]})",
       "request: \"nds\" must be an array of unsigned integers"},
      {R"({"cmd": "campaign", "nds": [4294967296]})",
       "request: \"nds\" must be an array of unsigned integers"},
      {R"({"cmd": "tune", "kernel": "sor", "max_steps": 4294967295})",
       "request: \"max_steps\" must be an unsigned integer <= 10000"},
      {R"({"cmd": "campaign", "deadline_ms": 0})",
       "request: \"deadline_ms\" must be a positive integer"},
      {R"({"cmd": "campaign", "on_error": "sometimes"})",
       "request: \"on_error\" must be continue|abort"},
      {R"({"cmd": "lint", "nd": 0})",
       "request: \"nd\" must be a positive integer"},
      {R"({"cmd": "lint", "fail_on": true})",
       "request: \"fail_on\" must be error|warning"},
      {R"({"cmd": "explore", "kernel": "sor", "json": 1})",
       "request: \"json\" must be a boolean"},
      {R"({"cmd": "campaign", "kernels": ["sor", 3]})",
       "request: \"kernels\" must be an array of strings"},
      {R"({"cmd": "list", "irs": [{"name": "a.tir"}]})",
       "request: \"irs\" must be an array of {\"name\", \"source\"} strings"},
      // Unused by list, still type-checked.
      {R"({"cmd": "list", "max_lanes": -1})",
       "request: \"max_lanes\" must be an unsigned integer"},
      {R"({"cmd": "explore", "kernel": "sor", "entries": true})",
       "request: unknown field \"entries\""},
  };
  for (const auto& c : cases) {
    const auto got = decode_text(c.frame);
    ASSERT_FALSE(got.ok()) << c.frame;
    EXPECT_EQ(got.diag().message, c.message) << c.frame;
  }
}

// ---------------------------------------------------------------------------
// Mutation pass
// ---------------------------------------------------------------------------

std::string mutate_bytes(std::string s, tytra::SplitMix64& rng) {
  if (s.empty()) return s;
  const auto pos = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(s.size()) - 1));
  switch (rng.uniform_int(0, 4)) {
    case 0:
      s[pos] = static_cast<char>(rng.uniform_int(1, 255));
      break;
    case 1:
      s.erase(pos, static_cast<std::size_t>(rng.uniform_int(1, 8)));
      break;
    case 2:
      s.insert(pos, s.substr(pos, static_cast<std::size_t>(
                                      rng.uniform_int(1, 16))));
      break;
    case 3: {
      static const char* const kTokens[] = {"-", "0", "9", ".5", "e9", "\"",
                                            ",", "[", "]", "{", "}", "null",
                                            "true", "1e400", "4294967296"};
      s.insert(pos, kTokens[rng.uniform_int(0, 14)]);
      break;
    }
    default:
      s.resize(pos);
  }
  return s;
}

Value random_value(tytra::SplitMix64& rng) {
  switch (rng.uniform_int(0, 11)) {
    case 0: return Value(-5.0);
    case 1: return Value(6.7);
    case 2: return Value(4294967295.0);
    case 3: return Value(1e300);
    case 4: return Value(std::string("x"));
    case 5: return Value(true);
    case 6: return Value();
    case 7: return Value::array({Value(6.0), Value(std::string("x"))});
    case 8: return Value::array({Value(8.0), Value(16.0)});
    case 9: return Value::array({Value(std::string("sor"))});
    case 10:
      return Value::array({Value::object(
          {{"name", Value(std::string("k"))}, {"source", Value(1.0)}})});
    default: return Value::object({});
  }
}

/// Replaces, drops or adds one member of a valid frame.
Value mutate_field(const Value& frame, tytra::SplitMix64& rng) {
  static const char* const kKeys[] = {
      "cmd", "kernel", "kernels", "targets", "nd", "nds", "devices", "irs",
      "max_lanes", "max_steps", "deadline_ms", "json", "pareto", "on_error",
      "fail_on", "bogus"};
  std::vector<tytra::json::Member> members = frame.members();
  const auto key = kKeys[rng.uniform_int(0, 15)];
  const auto op = rng.uniform_int(0, 2);
  if (op == 0 && !members.empty()) {
    const auto last = static_cast<std::int64_t>(members.size()) - 1;
    members.erase(members.begin() + rng.uniform_int(0, last));
  } else {
    members.emplace_back(key, random_value(rng));
  }
  return Value::object(std::move(members));
}

void check_decode(const Value& frame, std::size_t& accepted) {
  const auto got = dse::decode(frame);
  if (!got.ok()) {
    EXPECT_EQ(got.diag().message.rfind("request: ", 0), 0u)
        << got.diag().message;
    return;
  }
  ++accepted;
  // Whatever decodes re-encodes to a frame that decodes to the same request.
  const auto again = decode_text(dse::encode(got.value()));
  ASSERT_TRUE(again.ok()) << again.error_message();
  EXPECT_EQ(again.value(), got.value()) << dse::encode(got.value());
}

TEST(Request, SeededMutationsNeverCrashTheDecoder) {
  std::vector<std::string> seeds;
  for (const Args& args : usage_forms()) {
    Request r = request(args);
    for (auto& ir : r.irs) ir.source = "define void @main() { }\n";
    seeds.push_back(dse::encode(r));
  }
  tytra::SplitMix64 rng(0x5eed);
  std::size_t accepted = 0;
  std::size_t parsed = 0;
  constexpr int kRounds = 12000;
  for (int round = 0; round < kRounds; ++round) {
    const std::string& seed =
        seeds[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(seeds.size()) - 1))];
    if (round % 2 == 0) {
      std::string text = mutate_bytes(seed, rng);
      if (rng.uniform_int(0, 1) == 0) text = mutate_bytes(text, rng);
      const auto frame = tytra::json::parse(text);
      if (!frame.ok()) continue;
      ++parsed;
      check_decode(frame.value(), accepted);
    } else {
      auto frame = tytra::json::parse(seed);
      ASSERT_TRUE(frame.ok());
      Value v = mutate_field(frame.value(), rng);
      if (rng.uniform_int(0, 1) == 0) v = mutate_field(v, rng);
      ++parsed;
      check_decode(v, accepted);
    }
  }
  // The pass exercises both outcomes, not only the parser's rejections.
  EXPECT_GT(parsed, static_cast<std::size_t>(kRounds) / 2);
  EXPECT_GT(accepted, 100u);
  EXPECT_LT(accepted, parsed);
}

}  // namespace
