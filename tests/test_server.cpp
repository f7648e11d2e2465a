// In-process tests of dse::Server — the tytra-dsed engine room. Each
// test boots a real Server on a unique Unix socket, drives it with raw
// protocol frames (framing + json, the same layers the CLI client uses)
// and asserts the daemon's core contracts: byte-identical output to a
// standalone run, one warm cache shared across clients, round-robin
// fairness, per-connection failure containment, and the graceful-drain
// shutdown path. This binary is also the TSan target for the daemon's
// threading model (reader threads + scheduler + serve loop).

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "tytra/dse/server.hpp"
#include "tytra/dse/session.hpp"
#include "tytra/kernels/registry.hpp"
#include "tytra/support/failpoint.hpp"
#include "tytra/support/framing.hpp"
#include "tytra/support/json.hpp"
#include "tytra/target/device.hpp"

namespace {

using tytra::json::Value;
namespace dse = tytra::dse;

std::string unique_socket() {
  static std::atomic<int> counter{0};
  return "/tmp/tytra_tsrv_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// Runs serve() on its own thread; stop() mirrors a SIGTERM.
struct ServerHarness {
  std::unique_ptr<dse::Server> server;
  std::thread thread;

  explicit ServerHarness(dse::ServerOptions opts)
      : server(std::make_unique<dse::Server>(std::move(opts))) {
    thread = std::thread([this] { server->serve(); });
  }
  ~ServerHarness() { stop(); }
  void stop() {
    if (thread.joinable()) {
      server->signal_shutdown();
      thread.join();
    }
  }
};

struct TestClient {
  int fd{-1};

  explicit TestClient(const std::string& path) { connect(path); }
  // ASSERT_* returns a value, so the fallible part lives outside the ctor.
  void connect(const std::string& path) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    ASSERT_LT(path.size(), sizeof(addr.sun_path));
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
        0)
        << path << ": " << std::strerror(errno);
  }

  ~TestClient() { close(); }
  void close() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }

  bool send(const std::string& payload) {
    std::string err;
    return tytra::framing::write_frame(fd, payload, err);
  }

  /// Reads frames until `finals` terminal frames (result/error/pong)
  /// arrive; returns everything read, streamed job frames included.
  std::vector<Value> collect(std::size_t finals = 1) {
    std::vector<Value> frames;
    std::size_t seen = 0;
    std::string payload, err;
    while (seen < finals) {
      const auto st = tytra::framing::read_frame(fd, payload, err);
      if (st != tytra::framing::ReadStatus::Frame) break;
      auto parsed = tytra::json::parse(payload);
      if (!parsed.ok()) break;
      frames.push_back(std::move(parsed).take());
      const auto type = frames.back().get_string("type").value_or("");
      if (type == "result" || type == "error" || type == "pong") ++seen;
    }
    return frames;
  }
};

/// The terminal frame of request `req_id`, or null.
const Value* final_for(const std::vector<Value>& frames, std::uint32_t req_id) {
  for (const Value& f : frames) {
    const auto type = f.get_string("type").value_or("");
    if (type != "result" && type != "error" && type != "pong") continue;
    if (f.get_u32("req").value_or(~0u) == req_id) return &f;
  }
  return nullptr;
}

/// Zeroes the value of `"key": <scalar>` everywhere — wall-clock fields
/// differ between any two runs and are excluded from identity checks.
std::string scrub_key(std::string text, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  std::size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    const std::size_t start = pos + needle.size();
    std::size_t end = start;
    while (end < text.size() && text[end] != ',' && text[end] != '\n' &&
           text[end] != '}') {
      ++end;
    }
    text.replace(start, end - start, "0");
    pos = start;
  }
  return text;
}

std::string scrub_times(std::string text) {
  return scrub_key(scrub_key(std::move(text), "explore_seconds"), "seconds");
}

/// Empties every `"cache": {...}` object — hit counts depend on which
/// concurrent client got to the shared cache first.
std::string scrub_cache(std::string text) {
  const std::string needle = "\"cache\": {";
  std::size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    const std::size_t start = pos + needle.size() - 1;
    std::size_t end = start;
    int depth = 0;
    do {
      if (text[end] == '{') ++depth;
      if (text[end] == '}') --depth;
      ++end;
    } while (depth > 0 && end < text.size());
    text.replace(start, end - start, "{}");
    pos = start;
  }
  return text;
}

dse::ServerOptions options_for(const std::string& socket) {
  dse::ServerOptions opts;
  opts.socket_path = socket;
  return opts;
}

constexpr char kCampaignReq[] =
    R"({"cmd": "campaign", "kernels": ["sor", "hotspot"], "nds": [6], "json": true})";

// ---------------------------------------------------------------------------

TEST(Server, RejectsUnusablePaths) {
  EXPECT_THROW(dse::Server{options_for("")}, std::invalid_argument);
  EXPECT_THROW(dse::Server{options_for(std::string(200, 'p'))},
               std::invalid_argument);
}

TEST(Server, PingAndList) {
  const std::string socket = unique_socket();
  ServerHarness harness(options_for(socket));
  TestClient client(socket);

  ASSERT_TRUE(client.send(R"({"cmd": "ping"})"));
  auto frames = client.collect();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].get_string("type").value_or(""), "pong");
  EXPECT_GE(frames[0].get_u32("requests").value_or(0), 1u);
  EXPECT_GE(frames[0].get_u32("connections").value_or(0), 1u);

  ASSERT_TRUE(client.send(R"({"cmd": "list", "json": true})"));
  frames = client.collect();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].get_u32("exit").value_or(99), 0u);
  EXPECT_EQ(frames[0].get_string("stdout").value_or(""),
            tytra::kernels::format_registry_json(
                tytra::kernels::Registry::instance()));
}

// The central promise: a request through the daemon yields the same
// bytes a standalone run (same warm-cache configuration) would print.
TEST(Server, ExploreMatchesStandaloneBytes) {
  const std::string socket = unique_socket();
  ServerHarness harness(options_for(socket));
  TestClient client(socket);
  ASSERT_TRUE(client.send(
      R"({"cmd": "explore", "kernel": "sor", "nd": 8, "json": true})"));
  const auto frames = client.collect();
  const Value* final = final_for(frames, 0);
  ASSERT_NE(final, nullptr);
  ASSERT_EQ(final->get_u32("exit").value_or(99), 0u);

  // A fresh cache-enabled Session is exactly the state the fresh daemon
  // served from.
  dse::Session expected_session;
  const auto desc = tytra::target::preset("stratix-v-gsd8");
  ASSERT_TRUE(desc.has_value());
  expected_session.add_device(*desc);
  auto job = tytra::kernels::Registry::instance().make_job("sor", 8);
  ASSERT_TRUE(job.ok());
  dse::Job j = std::move(job).take();
  j.device = desc->name;
  j.max_lanes = 16;
  const std::string expected =
      dse::format_sweep_json(expected_session.explore(j));

  EXPECT_EQ(scrub_times(final->get_string("stdout").value_or("")),
            scrub_times(expected));
}

TEST(Server, CampaignMatchesStandaloneBytes) {
  const std::string socket = unique_socket();
  ServerHarness harness(options_for(socket));
  TestClient client(socket);
  ASSERT_TRUE(client.send(kCampaignReq));
  const auto frames = client.collect();
  const Value* final = final_for(frames, 0);
  ASSERT_NE(final, nullptr);
  ASSERT_EQ(final->get_u32("exit").value_or(99), 0u);

  // Per-job streaming: one "job" frame per campaign job, before the
  // final result.
  std::size_t job_frames = 0;
  for (const Value& f : frames) {
    if (f.get_string("type").value_or("") == "job") ++job_frames;
  }
  EXPECT_EQ(job_frames, 2u);

  dse::Session expected_session;
  const auto desc = tytra::target::preset("stratix-v-gsd8");
  ASSERT_TRUE(desc.has_value());
  expected_session.add_device(*desc);
  dse::Campaign campaign;
  for (const char* kernel : {"sor", "hotspot"}) {
    auto job = tytra::kernels::Registry::instance().make_job(kernel, 6);
    ASSERT_TRUE(job.ok());
    dse::Job j = std::move(job).take();
    j.device = desc->name;
    j.max_lanes = 16;
    campaign.jobs.push_back(std::move(j));
  }
  const std::string expected =
      dse::format_campaign_json(expected_session.run(campaign));

  EXPECT_EQ(scrub_times(final->get_string("stdout").value_or("")),
            scrub_times(expected));
}

// The daemon's reason to exist: the second client's campaign answers
// from the first client's work at the variant-key level.
TEST(Server, SecondClientSeesWarmCache) {
  const std::string socket = unique_socket();
  ServerHarness harness(options_for(socket));
  {
    TestClient first(socket);
    ASSERT_TRUE(first.send(kCampaignReq));
    const auto frames = first.collect();
    const Value* final = final_for(frames, 0);
    ASSERT_NE(final, nullptr);
    ASSERT_EQ(final->get_u32("exit").value_or(99), 0u);
  }
  TestClient second(socket);
  ASSERT_TRUE(second.send(kCampaignReq));
  const auto second_frames = second.collect();
  const Value* final = final_for(second_frames, 0);
  ASSERT_NE(final, nullptr);
  ASSERT_EQ(final->get_u32("exit").value_or(99), 0u);

  auto parsed = tytra::json::parse(final->get_string("stdout").value_or(""));
  ASSERT_TRUE(parsed.ok()) << parsed.error_message() << "\nstdout: ["
                           << final->get_string("stdout").value_or("<missing>")
                           << "]";
  const Value out = std::move(parsed).take();
  const Value* campaign = out.find("campaign");
  ASSERT_NE(campaign, nullptr);
  const Value* cache = campaign->find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_GT(cache->get_u32("variant_hits").value_or(0), 0u)
      << "second client should answer from the shared warm cache";
}

TEST(Server, ConcurrentClientsAgree) {
  const std::string socket = unique_socket();
  ServerHarness harness(options_for(socket));
  constexpr int kClients = 4;
  std::vector<std::string> outs(kClients);
  std::vector<int> exits(kClients, -1);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      TestClient client(socket);
      if (client.fd < 0 || !client.send(kCampaignReq)) return;
      const auto frames = client.collect();
      const Value* final = final_for(frames, 0);
      if (final == nullptr) return;
      exits[i] = static_cast<int>(final->get_u32("exit").value_or(99));
      outs[i] = final->get_string("stdout").value_or("");
    });
  }
  for (auto& t : threads) t.join();
  // Identical requests must produce identical results no matter how the
  // scheduler interleaved them; only wall clocks and cache hit counts
  // (who warmed whom) may differ.
  const std::string reference = scrub_cache(scrub_times(outs[0]));
  EXPECT_FALSE(reference.empty());
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(exits[i], 0) << "client " << i;
    EXPECT_EQ(scrub_cache(scrub_times(outs[i])), reference) << "client " << i;
  }
}

// Round-robin at job granularity: a 1-job explore enqueued behind an
// 18-job campaign must finish first, not wait the campaign out.
TEST(Server, SmallRequestIsNotStarvedByGiant) {
  const std::string socket = unique_socket();
  ServerHarness harness(options_for(socket));
  TestClient giant(socket);
  TestClient small(socket);
  ASSERT_TRUE(giant.send(
      R"({"cmd": "campaign", "kernels": ["sor", "hotspot", "lavamd"], )"
      R"("nds": [6, 8, 10, 12, 14, 16], "json": true})"));
  // Wait for the first streamed job frame — proof the campaign occupies
  // the scheduler with many jobs still queued — then race the explore
  // against the remaining seventeen.
  std::string payload, err;
  ASSERT_EQ(tytra::framing::read_frame(giant.fd, payload, err),
            tytra::framing::ReadStatus::Frame)
      << err;
  ASSERT_TRUE(small.send(
      R"({"cmd": "explore", "kernel": "sor", "nd": 6, "json": true})"));

  std::atomic<int> sequence{0};
  int giant_done = -1;
  int small_done = -1;
  int giant_exit = -1;
  int small_exit = -1;
  std::thread tg([&] {
    const auto frames = giant.collect();
    giant_done = sequence.fetch_add(1);
    if (const Value* f = final_for(frames, 0)) {
      giant_exit = static_cast<int>(f->get_u32("exit").value_or(99));
    }
  });
  std::thread ts([&] {
    const auto frames = small.collect();
    small_done = sequence.fetch_add(1);
    if (const Value* f = final_for(frames, 0)) {
      small_exit = static_cast<int>(f->get_u32("exit").value_or(99));
    }
  });
  tg.join();
  ts.join();
  EXPECT_EQ(giant_exit, 0);
  EXPECT_EQ(small_exit, 0);
  EXPECT_LT(small_done, giant_done)
      << "the 1-job explore must interleave ahead of the 18-job campaign";
}

// Protocol-error containment: a malformed payload is answered in-band
// and the connection keeps working; only a broken frame LAYER drops it.
TEST(Server, MalformedRequestsKeepTheConnection) {
  const std::string socket = unique_socket();
  ServerHarness harness(options_for(socket));
  TestClient client(socket);

  ASSERT_TRUE(client.send("this is not json"));
  auto frames = client.collect();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].get_string("type").value_or(""), "error");
  EXPECT_EQ(frames[0].get_u32("exit").value_or(0), 2u);

  ASSERT_TRUE(client.send("42"));  // well-formed JSON, not an object
  frames = client.collect();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].get_string("message").value_or(""),
            "request: not a JSON object");

  ASSERT_TRUE(client.send(R"({"cmd": "frobnicate"})"));
  frames = client.collect();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].get_string("message").value_or(""),
            "request: unknown cmd 'frobnicate'");

  ASSERT_TRUE(client.send(R"({"cmd": "ping"})"));
  frames = client.collect();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].get_string("type").value_or(""), "pong");

  harness.stop();
  EXPECT_EQ(harness.server->stats().frames_rejected, 2u);
}

// A present-but-invalid field is a typed error (exit 2), never a silent
// default that runs a design nobody asked for; the connection survives.
TEST(Server, InvalidFieldsAreTypedErrorsAndTheConnectionSurvives) {
  const std::string socket = unique_socket();
  ServerHarness harness(options_for(socket));
  TestClient client(socket);
  const struct {
    const char* frame;
    const char* message;
  } cases[] = {
      {R"({"cmd": "explore", "kernel": "sor", "nd": -5})",
       R"(request: "nd" must be an unsigned integer)"},
      {R"({"cmd": "explore", "kernel": "sor", "max_lanes": "zero"})",
       R"(request: "max_lanes" must be an unsigned integer)"},
      {R"({"cmd": "campaign", "kernels": ["sor"], "nds": [6.7]})",
       R"(request: "nds" must be an array of unsigned integers)"},
      {R"({"cmd": "campaign", "kernels": ["sor"], "nds": ["x"]})",
       R"(request: "nds" must be an array of unsigned integers)"},
      {R"({"cmd": "tune", "kernel": "sor", "max_steps": 4294967295})",
       R"(request: "max_steps" must be an unsigned integer <= 10000)"},
  };
  for (const auto& c : cases) {
    ASSERT_TRUE(client.send(c.frame)) << c.frame;
    const auto frames = client.collect();
    ASSERT_EQ(frames.size(), 1u) << c.frame;
    EXPECT_EQ(frames[0].get_string("type").value_or(""), "error") << c.frame;
    EXPECT_EQ(frames[0].get_u32("exit").value_or(0), 2u) << c.frame;
    EXPECT_EQ(frames[0].get_string("message").value_or(""), c.message);
  }
  ASSERT_TRUE(client.send(R"({"cmd": "ping"})"));
  const auto frames = client.collect();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].get_string("type").value_or(""), "pong");
  EXPECT_EQ(harness.server->stats().jobs_ok, 0u);
}

TEST(Server, UnknownKernelGetsStandaloneError) {
  const std::string socket = unique_socket();
  ServerHarness harness(options_for(socket));
  TestClient client(socket);
  ASSERT_TRUE(
      client.send(R"({"cmd": "explore", "kernel": "nope", "json": true})"));
  const auto frames = client.collect();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].get_u32("exit").value_or(0), 1u);
  EXPECT_EQ(frames[0].get_string("message").value_or(""),
            "unknown kernel 'nope' (" +
                tytra::kernels::Registry::instance().names_joined() + ")");
}

TEST(Server, QueueLimitBoundsOneConnection) {
  const std::string socket = unique_socket();
  auto opts = options_for(socket);
  opts.queue_limit = 2;
  ServerHarness harness(std::move(opts));
  TestClient client(socket);

  // 3 jobs > limit 2: rejected atomically — all of it or none of it.
  ASSERT_TRUE(client.send(
      R"({"cmd": "campaign", "kernels": ["sor", "hotspot", "lavamd"], )"
      R"("json": true})"));
  auto frames = client.collect();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].get_string("type").value_or(""), "error");
  EXPECT_EQ(frames[0].get_u32("exit").value_or(0), 1u);
  const std::string message = frames[0].get_string("message").value_or("");
  EXPECT_NE(message.find("queue full"), std::string::npos) << message;
  EXPECT_NE(message.find("limit 2"), std::string::npos) << message;

  // The connection is fine and smaller requests still fit.
  ASSERT_TRUE(client.send(
      R"({"cmd": "explore", "kernel": "sor", "nd": 6, "json": true})"));
  const auto retry_frames = client.collect();
  const Value* final = final_for(retry_frames, 1);
  ASSERT_NE(final, nullptr);
  EXPECT_EQ(final->get_u32("exit").value_or(99), 0u);
}

// A client that vanishes mid-campaign must cost nothing past its next
// variant: its queued jobs are purged and the daemon serves on.
TEST(Server, DisconnectCancelsThatClientOnly) {
  const std::string socket = unique_socket();
  ServerHarness harness(options_for(socket));
  {
    TestClient doomed(socket);
    ASSERT_TRUE(doomed.send(
        R"({"cmd": "campaign", "kernels": ["sor", "hotspot", "lavamd"], )"
        R"("nds": [6, 8, 10, 12], "json": true})"));
    // Wait for proof the campaign is in flight, then hang up abruptly.
    std::string payload, err;
    ASSERT_EQ(tytra::framing::read_frame(doomed.fd, payload, err),
              tytra::framing::ReadStatus::Frame)
        << err;
    doomed.close();
  }
  TestClient survivor(socket);
  ASSERT_TRUE(survivor.send(R"({"cmd": "ping"})"));
  const auto frames = survivor.collect();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].get_string("type").value_or(""), "pong");
  harness.stop();
  EXPECT_EQ(harness.server->stats().connections, 2u);
}

// A shutdown request from a second connection lands mid-campaign (the
// round-robin ring alternates the two connections' units), and the zero
// grace period cancels the campaign's remaining jobs: the client sees
// the standalone interrupt contract (exit 130, partial results kept),
// the shutdown requester sees a clean exit-0 result.
TEST(Server, ShutdownDrainsWithInterruptContract) {
  const std::string socket = unique_socket();
  auto opts = options_for(socket);
  opts.drain_ms = 0;
  ServerHarness harness(std::move(opts));
  TestClient client(socket);
  ASSERT_TRUE(client.send(
      R"({"cmd": "campaign", "kernels": ["sor", "hotspot", "lavamd"], )"
      R"("nds": [6, 8, 10, 12], "json": false})"));
  // Proof the campaign is in flight (one job done, eleven to go), so the
  // shutdown below must land in the middle of it.
  std::string payload, err0;
  ASSERT_EQ(tytra::framing::read_frame(client.fd, payload, err0),
            tytra::framing::ReadStatus::Frame)
      << err0;

  TestClient terminator(socket);
  ASSERT_TRUE(terminator.send(R"({"cmd": "shutdown"})"));
  const auto term_frames = terminator.collect();
  const Value* shutdown_final = final_for(term_frames, 0);
  ASSERT_NE(shutdown_final, nullptr);
  EXPECT_EQ(shutdown_final->get_u32("exit").value_or(99), 0u);

  const auto frames = client.collect();
  const Value* campaign_final = final_for(frames, 0);
  ASSERT_NE(campaign_final, nullptr);
  EXPECT_EQ(campaign_final->get_u32("exit").value_or(0), 130u);
  const std::string err = campaign_final->get_string("stderr").value_or("");
  EXPECT_NE(err.find("tytra-cc: campaign interrupted ("), std::string::npos)
      << err;
  EXPECT_NE(err.find("of 12 jobs cancelled; completed results above"),
            std::string::npos)
      << err;
  // Partial results are presented, not discarded.
  EXPECT_NE(campaign_final->get_string("stdout").value_or("").find(
                "campaign: 12 jobs"),
            std::string::npos);

  harness.thread.join();  // serve() returns on its own after the drain
  harness.stop();
}

// server.accept at 50% fires on every second accept: each injected
// fault is logged and retried, and every client still gets served.
TEST(Server, AcceptFaultIsRetried) {
  const std::string socket = unique_socket();
  ServerHarness harness(options_for(socket));
  tytra::failpoint::Scoped fp("server.accept", 50);
  for (int i = 0; i < 3; ++i) {
    TestClient client(socket);
    ASSERT_TRUE(client.send(R"({"cmd": "ping"})"));
    const auto frames = client.collect();
    ASSERT_EQ(frames.size(), 1u) << "client " << i;
    EXPECT_EQ(frames[0].get_string("type").value_or(""), "pong");
  }
  harness.stop();
  tytra::failpoint::reset();
}

// server.drain simulates a grace period that is already spent: shutdown
// skips the wait and goes straight to cooperative cancellation, even
// with a huge drain_ms.
TEST(Server, DrainFailpointSkipsTheGracePeriod) {
  const std::string socket = unique_socket();
  auto opts = options_for(socket);
  opts.drain_ms = 60000;
  ServerHarness harness(std::move(opts));
  tytra::failpoint::Scoped fp("server.drain", 100);
  TestClient client(socket);
  ASSERT_TRUE(client.send(
      R"({"cmd": "campaign", "kernels": ["sor", "hotspot", "lavamd"], )"
      R"("nds": [6, 8, 10, 12], "json": true})"));
  // Proof of being in flight, then shut down under the armed failpoint.
  std::string payload, err;
  ASSERT_EQ(tytra::framing::read_frame(client.fd, payload, err),
            tytra::framing::ReadStatus::Frame)
      << err;
  const auto t0 = std::chrono::steady_clock::now();
  harness.server->signal_shutdown();
  const auto frames = client.collect();
  const Value* final = final_for(frames, 0);
  harness.thread.join();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_NE(final, nullptr);
  EXPECT_EQ(final->get_u32("exit").value_or(0), 130u);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            30000)
      << "the armed drain failpoint must skip the 60 s grace period";
  harness.stop();
  tytra::failpoint::reset();
}

}  // namespace
