#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <tuple>

#include "perfbench.hpp"
#include "tytra/cost/report.hpp"
#include "tytra/frontend/transform.hpp"
#include "tytra/ir/structural_hash.hpp"
#include "tytra/kernels/file_workload.hpp"
#include "tytra/kernels/generator.hpp"
#include "tytra/kernels/registry.hpp"
#include "tytra/sim/cycle_model.hpp"
#include "tytra/support/framing.hpp"
#include "tytra/support/json.hpp"
#include "tytra/target/device.hpp"

namespace perfbench {

void self_check_failed(const std::string& what) {
  throw SelfCheckError(what);
}

unsigned hardware_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return 1;
}

unsigned campaign_workers() {
  const unsigned cores = hardware_threads();
  return cores > 1 ? cores - 1 : 1;
}

tytra::SplitMix64 seeded_rng(std::uint64_t seed, std::uint64_t tag) {
  tytra::SplitMix64 mix(seed ^ (tag * 0xd1b54a32d192ed03ULL));
  return tytra::SplitMix64(mix.next_u64());
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

CpuTicks cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  CpuTicks t;
  double v = 0;
  for (int field = 0; field < 10 && (f >> v); ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

int Tracer::open(std::string name, std::int64_t op, std::string cls) {
  SpanRecord r;
  r.name = std::move(name);
  r.parent = stack_.empty() ? -1 : stack_.back();
  r.op = op >= 0 || r.parent < 0 ? op : spans[static_cast<std::size_t>(r.parent)].op;
  r.cls = std::move(cls);
  r.start = now_s();
  spans.push_back(std::move(r));
  const int id = static_cast<int>(spans.size() - 1);
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  spans[static_cast<std::size_t>(id)].end = now_s();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

Span::Span(Tracer* tracer, std::string name, std::int64_t op, std::string cls)
    : tracer_(tracer != nullptr && tracer->enabled ? tracer : nullptr) {
  if (tracer_ != nullptr) id_ = tracer_->open(std::move(name), op, std::move(cls));
}

Span::~Span() {
  if (tracer_ != nullptr) tracer_->close(id_);
}

const std::vector<std::string>& layer_names() {
  static const std::vector<std::string> names = {
      "frontend", "kernels", "ir", "cost", "dse", "support", "tools"};
  return names;
}

SelfTimes self_times(const std::vector<SpanRecord>& spans) {
  // Children's total duration per span, then each span's self time is
  // charged to its layer (the name's first component) within its op.
  std::vector<double> child_total(spans.size(), 0);
  for (const auto& s : spans) {
    if (s.parent >= 0) {
      child_total[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::int64_t, std::map<std::string, double>> per_op;
  std::map<std::int64_t, double> op_ms;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    if (s.op < 0) continue;
    const double self_ms = (s.end - s.start - child_total[i]) * 1e3;
    if (s.parent < 0) {
      op_ms[s.op] = (s.end - s.start) * 1e3;
      continue;
    }
    const std::string layer = s.name.substr(0, s.name.find('.'));
    per_op[s.op][layer] += self_ms;
  }
  SelfTimes out;
  std::vector<double> covered;
  for (const auto& layer : layer_names()) {
    std::vector<double> v;
    for (const auto& [op, total] : op_ms) {
      (void)total;
      const auto& layers = per_op[op];
      const auto it = layers.find(layer);
      v.push_back(it == layers.end() ? 0.0 : it->second);
    }
    out.layer_ms[layer] = median(v);
  }
  for (const auto& [op, total] : op_ms) {
    double sum = 0;
    for (const auto& [layer, ms] : per_op[op]) {
      if (std::find(layer_names().begin(), layer_names().end(), layer) !=
          layer_names().end()) {
        sum += ms;
      }
    }
    if (total > 0) covered.push_back(sum / total * 100.0);
  }
  out.covered_pct = median(covered);
  return out;
}

void write_spans(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::ofstream f(path);
  if (!f) return;
  const double t0 = spans.empty() ? 0 : spans.front().start;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    f << "{\"id\": " << i << ", \"name\": \"" << tytra::json::escape(s.name)
      << "\", \"start_us\": " << (s.start - t0) * 1e6
      << ", \"end_us\": " << (s.end - t0) * 1e6 << ", \"parent\": " << s.parent
      << ", \"op\": " << s.op;
    if (!s.cls.empty()) f << ", \"class\": \"" << s.cls << "\"";
    f << "}\n";
  }
}

// ---------------------------------------------------------------------------
// Processes
// ---------------------------------------------------------------------------

namespace {

/// Spawns argv with stdout on `out_fd` (or /dev/null when -1) and stdin,
/// stderr on /dev/null. posix_spawn keeps the cost independent of this
/// process's size, unlike fork. Returns the pid, or -1.
pid_t spawn(const std::vector<std::string>& argv, int out_fd) {
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                   O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  if (out_fd >= 0) {
    posix_spawn_file_actions_adddup2(&actions, out_fd, STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, out_fd);
  } else {
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                     O_WRONLY, 0);
  }
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(),
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  return rc == 0 ? pid : -1;
}

int decode_status(int status) {
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

}  // namespace

ProcResult run_process(const std::vector<std::string>& argv) {
  ProcResult r;
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return r;
  const double t0 = now_s();
  const pid_t pid = spawn(argv, fds[1]);
  ::close(fds[1]);
  if (pid < 0) {
    ::close(fds[0]);
    return r;
  }
  char buf[65536];
  for (;;) {
    const ssize_t got = ::read(fds[0], buf, sizeof buf);
    if (got > 0) {
      r.out.append(buf, static_cast<std::size_t>(got));
    } else if (got == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);
  int status = 0;
  rusage ru{};
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  r.seconds = now_s() - t0;
  r.exit_code = decode_status(status);
  r.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return r;
}

Child::~Child() { kill(); }

void Child::start(const std::vector<std::string>& argv) {
  pid_ = spawn(argv, -1);
  if (pid_ < 0) throw std::runtime_error("cannot start " + argv.front());
}

int Child::wait(double* max_rss_mb) {
  if (pid_ <= 0) return -1;
  int status = 0;
  rusage ru{};
  while (::wait4(pid_, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  if (max_rss_mb != nullptr) {
    *max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  }
  return decode_status(status);
}

void Child::kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  wait(nullptr);
}

double Child::peak_rss_mb() const {
  if (pid_ <= 0) return 0;
  std::ifstream f("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof addr.sun_path) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int connect_retry(const std::string& path, double timeout_s) {
  const double deadline = now_s() + timeout_s;
  for (;;) {
    const int fd = connect_unix(path);
    if (fd >= 0 || now_s() > deadline) return fd;
    ::usleep(2000);
  }
}

Exchange round_trip(int fd, const std::string& request, Tracer* tracer,
                  std::int64_t op) {
  Exchange ex;
  std::string err;
  {
    Span s(tracer, "support.framing.write", op);
    if (!tytra::framing::write_frame(fd, request, err)) return ex;
  }
  std::string payload;
  for (;;) {
    tytra::framing::ReadStatus st;
    {
      // The blocking read covers the daemon's whole turn: queueing,
      // execution, rendering and the frame write.
      Span s(tracer, "dse.server.wait", op);
      st = tytra::framing::read_frame(fd, payload, err);
    }
    if (st != tytra::framing::ReadStatus::Frame) return ex;
    Span s(tracer, "support.json.parse", op);
    auto parsed = tytra::json::parse(payload);
    if (!parsed.ok() || !parsed.value().is_object()) return ex;
    const tytra::json::Value& frame = parsed.value();
    const std::string type = frame.get_string("type").value_or("");
    if (type == "job") continue;
    ex.type = type;
    ex.transport_ok = true;
    if (type == "pong") {
      ex.exit_code = 0;
    } else {
      ex.exit_code = static_cast<int>(frame.get_number("exit").value_or(-1));
      ex.stdout_text = frame.get_string("stdout").value_or("");
    }
    ex.payload = std::move(payload);
    return ex;
  }
}

// ---------------------------------------------------------------------------
// Answers
// ---------------------------------------------------------------------------

namespace {

bool starts_at(const std::string& s, std::size_t i, const char* lit) {
  return s.compare(i, std::strlen(lit), lit) == 0;
}

}  // namespace

std::string normalize_answer(const std::string& rendered) {
  std::string out;
  out.reserve(rendered.size());
  std::size_t i = 0;
  while (i < rendered.size()) {
    if (starts_at(rendered, i, "\"explore_seconds\": ") ||
        starts_at(rendered, i, "\"seconds\": ")) {
      out += "\"t\"";
      i = rendered.find_first_of(",\n}", rendered.find(':', i));
      if (i == std::string::npos) break;
      continue;
    }
    if (starts_at(rendered, i, "\"cache\": {")) {
      out += "\"c\"";
      i = rendered.find('}', i);
      if (i == std::string::npos) break;
      ++i;
      continue;
    }
    out += rendered[i++];
  }
  return out;
}

Counters cache_counters(const std::string& rendered) {
  // The last "cache" object is the result's total: a sweep has one, a
  // campaign closes with the sum of its jobs' objects.
  Counters c;
  const std::size_t at = rendered.rfind("\"cache\": {");
  if (at == std::string::npos) return c;
  unsigned long long h = 0, m = 0, v = 0;
  if (std::sscanf(rendered.c_str() + at,
                  "\"cache\": {\"hits\": %llu, \"misses\": %llu, "
                  "\"variant_hits\": %llu}",
                  &h, &m, &v) == 3) {
    c.hits = h;
    c.misses = m;
    c.variant_hits = v;
  }
  return c;
}

std::uint64_t answered_variants(const std::string& rendered) {
  std::uint64_t total = 0;
  for (const char* key : {"\"variants\": ", "\"step\": "}) {
    const bool counts = std::strcmp(key, "\"variants\": ") == 0;
    for (std::size_t at = rendered.find(key); at != std::string::npos;
         at = rendered.find(key, at + 1)) {
      total += counts ? std::strtoull(rendered.c_str() + at + std::strlen(key),
                                      nullptr, 10)
                      : 1;
    }
  }
  return total;
}

double est_err_pct(const tytra::ir::Module& design,
                   const tytra::target::DeviceDesc& device,
                   double model_cycles_per_instance) {
  const double sim =
      tytra::sim::simulate_timing(design, device).cycles_per_instance;
  if (!(sim > 0)) return 100.0;
  return std::fabs(sim - model_cycles_per_instance) / sim * 100.0;
}

double est_err_max_pct(const std::vector<BuiltinJob>& jobs,
                       std::uint32_t max_lanes) {
  std::map<std::string, tytra::cost::DeviceCostDb> dbs;
  std::set<std::tuple<std::string, std::uint32_t, std::string>> seen;
  double worst = 0;
  for (const auto& j : jobs) {
    if (!seen.insert({j.kernel, j.nd, j.device}).second) continue;
    auto it = dbs.find(j.device);
    if (it == dbs.end()) {
      it = dbs.emplace(j.device, tytra::cost::DeviceCostDb::calibrate(
                                     *tytra::target::preset(j.device)))
               .first;
    }
    auto job = tytra::kernels::Registry::instance().make_job(j.kernel, j.nd);
    require(job.ok(), "cannot build job " + j.kernel);
    const auto& lower = *job.value().lower;
    const std::uint64_t n = job.value().n;
    for (const std::uint32_t lanes : {1u, 4u}) {
      if (lanes > max_lanes || n % lanes != 0) continue;
      const auto base = tytra::frontend::baseline_variant(n);
      const auto v = lanes == 1 ? base
                                : tytra::frontend::reshape_to(
                                      base, lanes, tytra::frontend::ParAnn::Par);
      const tytra::ir::Module m = lower.lower(v);
      worst = std::max(
          worst, est_err_pct(m, it->second.device(),
                             tytra::cost::cost_design(m, it->second)
                                 .throughput.cycles_per_instance));
    }
  }
  return worst;
}

std::map<std::string, std::string> add_presets(tytra::dse::Session& session) {
  std::map<std::string, std::string> names;
  for (const auto& name : preset_names()) {
    names[name] =
        session.add_device(*tytra::target::preset(name)).device().name;
  }
  return names;
}

std::string explore_request(const BuiltinJob& job, std::uint32_t max_lanes) {
  return "{\"cmd\": \"explore\", \"kernel\": \"" + job.kernel +
         "\", \"nd\": " + std::to_string(job.nd) + ", \"devices\": [\"" +
         job.device + "\"], \"max_lanes\": " + std::to_string(max_lanes) +
         ", \"json\": true}";
}

std::vector<std::uint32_t> draw_warm_nds(tytra::SplitMix64& rng,
                                         std::size_t count) {
  std::vector<std::uint32_t> pool = {32, 64, 128, 256, 512};
  std::vector<std::uint32_t> out = {16};
  while (out.size() < count && !pool.empty()) {
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
    out.push_back(pool[i]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(i));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::string, std::uint32_t>> novel_schedule(
    tytra::SplitMix64& rng) {
  constexpr std::uint32_t kMaxPrime = 10000;
  std::vector<bool> composite(kMaxPrime, false);
  std::vector<std::pair<std::string, std::uint32_t>> out;
  for (std::uint32_t p = 2; p < kMaxPrime; ++p) {
    if (composite[p]) continue;
    for (std::uint32_t q = p * p; q < kMaxPrime; q += p) composite[q] = true;
    if (p < 17) continue;
    for (std::uint32_t k = 4; k <= 7; ++k) {
      for (const char* kernel : {"sor", "hotspot", "lavamd"}) {
        out.emplace_back(kernel, p << k);
      }
    }
  }
  for (std::size_t i = out.size() - 1; i > 0; --i) {
    std::swap(out[i], out[static_cast<std::size_t>(
                          rng.uniform_int(0, static_cast<std::int64_t>(i)))]);
  }
  return out;
}

const std::vector<std::string>& preset_names() {
  static const std::vector<std::string> names = {"stratix-v-gsd8",
                                                 "virtex7-690t", "fig15"};
  return names;
}


std::vector<GenDesign> draw_gen_designs(tytra::SplitMix64& rng,
                                        std::size_t count,
                                        std::size_t variants,
                                        std::uint32_t lane_cap) {
  std::vector<GenDesign> out;
  std::set<std::uint64_t> seen;
  while (out.size() < count) {
    GenDesign g;
    g.seed = rng.next_u64();
    g.baseline = std::make_shared<const tytra::ir::Module>(
        tytra::kernels::generate_kernel(g.seed));
    if (variants != 0 &&
        tytra::frontend::enumerate_variants(g.baseline->meta.global_size,
                                            lane_cap)
                .size() != variants) {
      continue;
    }
    if (seen.insert(tytra::ir::structural_digest(*g.baseline).key).second) {
      g.lowerer = std::make_shared<tytra::dse::KeyedLowerer>(
          tytra::kernels::file_lowerer(g.baseline));
      out.push_back(std::move(g));
    }
  }
  return out;
}

void ProbeInput::add_gen_slice(std::uint64_t seed, std::uint32_t max_lanes) {
  tytra::SplitMix64 rng = seeded_rng(seed, 0x6e5);
  for (const auto& gen : draw_gen_designs(rng, 4)) {
    for (const auto& dev : preset_names()) {
      designs.push_back(
          {gen.lowerer, true, gen.baseline->meta.global_size, max_lanes, dev});
    }
  }
}

// ---------------------------------------------------------------------------
// Result line
// ---------------------------------------------------------------------------

void add_dist(Metrics& m, const std::string& name, const std::string& unit,
              const std::vector<double>& samples) {
  m[name + ".p50"] = {percentile(samples, 50), unit};
  m[name + ".p90"] = {percentile(samples, 90), unit};
  m[name + ".count"] = {static_cast<double>(samples.size()), "count"};
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char num[64];
    const double v = std::isfinite(metric.value) ? metric.value : 0.0;
    std::snprintf(num, sizeof num, "%.17g", v);
    line += first ? "" : ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
            metric.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
