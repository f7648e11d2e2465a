#include "tytra/dse/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "tytra/dse/explorer.hpp"
#include "tytra/dse/tuner.hpp"
#include "tytra/ir/lint.hpp"
#include "tytra/kernels/file_workload.hpp"
#include "tytra/kernels/lint_driver.hpp"
#include "tytra/kernels/registry.hpp"
#include "tytra/support/failpoint.hpp"
#include "tytra/support/framing.hpp"
#include "tytra/support/json.hpp"
#include "tytra/support/thread_annotations.hpp"
#include "tytra/target/device.hpp"

// Implementation map (see the header for the model):
//
//   serve() thread      accept loop + connection reaping + drain sequencing
//   reader threads      one per connection: read_frame -> json::parse ->
//                       enqueue a Setup unit; never touch the Session
//   scheduler thread    the ONLY thread that touches the Session and the
//                       kernels::Registry; pops units round-robin across
//                       connections and executes them
//
// Locking: `mu_` guards the unit queues / round-robin ring / drain flags;
// each connection's `write_mu` guards its fd for whole-frame writes and
// the `closed` latch. `mu_` is never held across a frame write or a
// Session call, and `write_mu` is never held while taking `mu_`, so the
// two levels cannot invert.
//
// Output contract: every request is answered with the exact bytes (and
// exit code) a standalone `tytra-cc` run of the same command would have
// produced — the final frame's "stdout"/"stderr" fields ARE that run's
// streams, composed from the same format_* renderers and banner
// printf formats. Keep the two in sync with tools/tytra_cc.cpp.

namespace tytra::dse {

namespace {

constexpr int kExitInterrupted = 130;

std::string preset_list() {
  std::string out;
  for (const auto& name : target::preset_names()) {
    if (!out.empty()) out += "|";
    out += name;
  }
  return out;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

/// Same resolution ladder as the CLI: preset name, a preset's device
/// name, or a .tgt file path (read from the daemon's filesystem).
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

/// format_*_json renderings end in '\n'; embedded as a frame field the
/// value must stand alone.
std::string chomp(std::string s) {
  while (!s.empty() && s.back() == '\n') s.pop_back();
  return s;
}

// -----------------------------------------------------------------------
// Connection + work units
// -----------------------------------------------------------------------

struct Connection {
  int fd{-1};
  std::uint64_t id{0};
  /// Flipped on disconnect (and on write failure): every job this
  /// connection queued carries `&cancel` as its Job::cancel, so a gone
  /// client stops costing evaluation within one variant.
  CancelToken cancel;
  tytra::Mutex write_mu;
  bool closed TYTRA_GUARDED_BY(write_mu){false};  ///< no more frames leave
  std::atomic<bool> done{false};  ///< reader thread has exited
  std::thread reader;
  std::uint64_t next_req{0};  ///< reader-thread only

  // Scheduler-side state, guarded by Impl::mu_.
  struct Unit;
  std::deque<Unit> units;
  bool in_rr{false};

  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
};

/// One admitted explore/tune/campaign request being streamed back.
struct RequestState {
  std::shared_ptr<Connection> conn;
  std::uint64_t req_id{0};
  enum class Kind { Explore, Tune, CampaignRun } kind{Kind::Explore};
  bool json{false};
  bool pareto{false};
  bool on_error_abort{true};
  std::string kernel;  ///< explore/tune banner label
  std::uint32_t nd{0};  ///< resolved dimension, for banners
  std::vector<Job> jobs;
  std::size_t kernel_count{0};  ///< campaign banner: kernels requested
  std::size_t device_count{0};  ///< campaign banner: distinct devices
  std::vector<CampaignJobResult> results;  ///< slot per job
  std::vector<char> filled;
  std::size_t completed{0};
  CacheStats stats;
  double seconds{0};
  bool interrupted{false};
};

/// One scheduler work item: either a whole request to validate + expand
/// (`setup`), or one job of an admitted request.
struct Connection::Unit {
  bool is_setup{false};
  std::uint64_t req_id{0};
  json::Value request;                 ///< setup payload
  std::shared_ptr<RequestState> req;   ///< job payload
  std::size_t job_index{0};
};

using Unit = Connection::Unit;

}  // namespace

// -----------------------------------------------------------------------
// Impl
// -----------------------------------------------------------------------

struct Server::Impl {
  explicit Impl(ServerOptions options) : opts_(std::move(options)) {
    if (opts_.socket_path.empty()) {
      throw std::invalid_argument("dse::Server: socket_path must be set");
    }
    sockaddr_un addr{};
    if (opts_.socket_path.size() >= sizeof(addr.sun_path)) {
      throw std::invalid_argument(
          "dse::Server: socket path '" + opts_.socket_path + "' exceeds the " +
          std::to_string(sizeof(addr.sun_path) - 1) + "-byte sun_path limit");
    }
    // A hung-up client must surface as a write error on its fd, never as
    // a process-killing signal.
    std::signal(SIGPIPE, SIG_IGN);

    opts_.session.cancel = &drain_cancel_;
    session_ = std::make_unique<Session>(opts_.session);

    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      throw std::runtime_error(std::string("dse::Server: socket: ") +
                               std::strerror(errno));
    }
    // Any file already at the path is assumed stale (a previous daemon
    // that died without cleanup); per-instance paths are the caller's job.
    ::unlink(opts_.socket_path.c_str());
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, opts_.socket_path.c_str(),
                opts_.socket_path.size() + 1);
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 64) != 0) {
      const std::string why = std::strerror(errno);
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw std::runtime_error("dse::Server: cannot listen on '" +
                               opts_.socket_path + "': " + why);
    }
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw std::runtime_error(std::string("dse::Server: pipe: ") +
                               std::strerror(errno));
    }
    wake_rd_ = pipe_fds[0];
    wake_wr_ = pipe_fds[1];
  }

  ~Impl() {
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      ::unlink(opts_.socket_path.c_str());
    }
    if (wake_rd_ >= 0) ::close(wake_rd_);
    if (wake_wr_ >= 0) ::close(wake_wr_);
  }

  // ---- frame plumbing ---------------------------------------------------

  /// Writes one frame under the connection's write lock. A failed write
  /// latches the connection closed and flips its cancel token — the
  /// reader wakes on the shutdown() and tears the connection down; the
  /// daemon itself is unaffected.
  bool send(Connection& c, const std::string& payload) {
    MutexLock lock(c.write_mu);
    if (c.closed) return false;
    std::string err;
    if (!framing::write_frame(c.fd, payload, err)) {
      std::fprintf(stderr,
                   "tytra-dsed: connection %llu: %s; dropping connection\n",
                   static_cast<unsigned long long>(c.id), err.c_str());
      c.closed = true;
      c.cancel.request_cancel();
      ::shutdown(c.fd, SHUT_RDWR);
      return false;
    }
    return true;
  }

  void send_error(Connection& c, std::uint64_t req_id, int exit_code,
                  const std::string& message) {
    std::ostringstream os;
    os << "{\"type\": \"error\", \"req\": " << req_id
       << ", \"exit\": " << exit_code << ", \"message\": \""
       << json::escape(message) << "\"}";
    send(c, os.str());
  }

  void send_result(Connection& c, std::uint64_t req_id, int exit_code,
                   const std::string& out, const std::string& err = {}) {
    std::ostringstream os;
    os << "{\"type\": \"result\", \"req\": " << req_id
       << ", \"exit\": " << exit_code << ", \"stdout\": \""
       << json::escape(out) << "\"";
    if (!err.empty()) os << ", \"stderr\": \"" << json::escape(err) << "\"";
    os << "}";
    send(c, os.str());
  }

  void send_job_frame(RequestState& req, std::size_t index,
                      const CampaignJobResult& jr,
                      const std::string& payload_key,
                      const std::string& payload_json) {
    std::ostringstream os;
    os << "{\"type\": \"job\", \"req\": " << req.req_id
       << ", \"job\": " << index << ", \"jobs\": " << req.jobs.size()
       << ", \"workload\": \"" << json::escape(jr.job.workload)
       << "\", \"nd\": " << jr.job.nd << ", \"device\": \""
       << json::escape(jr.job.device) << "\", \"status\": \""
       << job_state_name(jr.status.state) << "\"";
    if (!jr.status.ok()) {
      os << ", \"error\": \"" << json::escape(jr.status.error) << "\"";
    }
    if (!payload_json.empty()) {
      os << ", \"" << payload_key << "\": " << payload_json;
    }
    os << "}";
    send(*req.conn, os.str());
  }

  // ---- reader thread ----------------------------------------------------

  void reader_loop(const std::shared_ptr<Connection>& conn) {
    std::string payload;
    for (;;) {
      std::string err;
      const framing::ReadStatus st =
          framing::read_frame(conn->fd, payload, err);
      if (st == framing::ReadStatus::Eof) break;
      if (st == framing::ReadStatus::Error) {
        // A broken frame layer (truncation, oversized prefix, I/O error,
        // injected frame.read fault) leaves no way to resynchronize on a
        // stream: drop this connection, keep the daemon.
        frames_rejected_.fetch_add(1, std::memory_order_relaxed);
        std::fprintf(stderr, "tytra-dsed: connection %llu: %s\n",
                     static_cast<unsigned long long>(conn->id), err.c_str());
        break;
      }
      const std::uint64_t req_id = conn->next_req++;
      auto parsed = json::parse(payload);
      if (!parsed.ok() || !parsed.value().is_object()) {
        // A well-framed but malformed payload is answered in-band and the
        // connection survives — the client can fix its request and retry.
        frames_rejected_.fetch_add(1, std::memory_order_relaxed);
        send_error(*conn, req_id, 2,
                   parsed.ok() ? std::string("request: not a JSON object")
                               : parsed.diag().message);
        continue;
      }
      Unit unit;
      unit.is_setup = true;
      unit.req_id = req_id;
      unit.request = std::move(parsed).take();
      bool rejected = false;
      {
        MutexLock lock(mu_);
        if (!accepting_) {
          rejected = true;
        } else {
          conn->units.push_back(std::move(unit));
          ++pending_units_;
          if (!conn->in_rr) {
            rr_.push_back(conn);
            conn->in_rr = true;
          }
        }
      }
      if (rejected) {
        send_error(*conn, req_id, 1, "server is shutting down");
        continue;
      }
      sched_cv_.notify_one();
    }
    // Disconnect: cancel this client's in-flight work, drop its queued
    // units, and stop any further frames toward the dead fd.
    conn->cancel.request_cancel();
    {
      MutexLock lock(conn->write_mu);
      conn->closed = true;
      ::shutdown(conn->fd, SHUT_RDWR);
    }
    {
      MutexLock lock(mu_);
      pending_units_ -= conn->units.size();
      conn->units.clear();
      if (pending_units_ == 0 && !busy_) idle_cv_.notify_all();
    }
    conn->done.store(true, std::memory_order_release);
  }

  // ---- scheduler thread: setup ------------------------------------------

  /// Registers request-supplied IR workloads. Idempotent per (name,
  /// content): a name resubmitted with identical source is a no-op (the
  /// normal case — every client ships its --ir files), different source
  /// is an error (the registry cannot hold both).
  std::string register_irs(const json::Value& request) {
    const json::Value* irs = request.find("irs");
    if (irs == nullptr) return {};
    if (!irs->is_array()) return "request: \"irs\" must be an array";
    for (const json::Value& ir : irs->elements()) {
      if (!ir.is_object()) return "request: \"irs\" entries must be objects";
      const auto name = ir.get_string("name");
      const auto source = ir.get_string("source");
      if (!name || !source) {
        return "request: \"irs\" entries need \"name\" and \"source\"";
      }
      const auto it = ir_sources_.find(*name);
      if (it != ir_sources_.end()) {
        if (it->second != *source) {
          return "ir workload '" + *name +
                 "' is already registered with different content";
        }
        continue;
      }
      auto added = kernels::register_file_workload(
          kernels::Registry::instance(), *name, *name, *source);
      if (!added.ok()) return added.diag().message;
      ir_sources_.emplace(*name, *source);
    }
    return {};
  }

  /// Resolves one device spec against the shared session's device table,
  /// calibrating and adding it on first sight. Returns the resolved
  /// device-table name, or an error message.
  tytra::Result<std::string> ensure_device(const std::string& spec) {
    auto device = resolve_device(spec);
    if (!device.ok()) return device.diag();
    const std::string& name = device.value().name;
    if (session_->find_device(name) == nullptr) {
      session_->add_device(device.value());
    }
    return name;
  }

  /// Validates and expands one admitted request into its job units. Any
  /// validation failure is answered with the exact message a standalone
  /// run would have printed after "tytra-cc: " (same exit code), so the
  /// client's stderr is byte-identical.
  void process_setup(const std::shared_ptr<Connection>& conn, Unit&& unit) {
    const json::Value& request = unit.request;
    const auto cmd = request.get_string("cmd");
    if (!cmd) {
      send_error(*conn, unit.req_id, 2, "request: missing \"cmd\"");
      return;
    }
    requests_.fetch_add(1, std::memory_order_relaxed);

    if (*cmd == "ping") {
      std::ostringstream os;
      os << "{\"type\": \"pong\", \"req\": " << unit.req_id
         << ", \"requests\": " << requests_.load(std::memory_order_relaxed)
         << ", \"connections\": "
         << connections_.load(std::memory_order_relaxed)
         << ", \"jobs_ok\": " << jobs_ok_.load(std::memory_order_relaxed)
         << "}";
      send(*conn, os.str());
      return;
    }
    if (*cmd == "shutdown") {
      send_result(*conn, unit.req_id, 0, "");
      signal_shutdown();
      return;
    }
    if (*cmd == "list") {
      if (const std::string err = register_irs(request); !err.empty()) {
        send_error(*conn, unit.req_id, 1, err);
        return;
      }
      const auto& reg = kernels::Registry::instance();
      const bool json_out = request.get_bool("json").value_or(false);
      send_result(*conn, unit.req_id, 0,
                  json_out ? kernels::format_registry_json(reg)
                           : kernels::format_registry(reg));
      return;
    }
    if (*cmd == "lint") {
      if (const std::string err = register_irs(request); !err.empty()) {
        send_error(*conn, unit.req_id, 1, err);
        return;
      }
      // One device (the CLI sends exactly one spec), resolved against the
      // shared session table so a repeat lint reuses the calibration.
      std::string device_spec = "stratix-v-gsd8";
      if (const json::Value* devices = request.find("devices");
          devices != nullptr && devices->is_array() &&
          !devices->elements().empty() &&
          devices->elements().front().is_string()) {
        device_spec = devices->elements().front().str();
      }
      auto device_name = ensure_device(device_spec);
      if (!device_name.ok()) {
        send_error(*conn, unit.req_id, 1, device_name.diag().message);
        return;
      }
      kernels::LintDriverOptions opts;
      opts.db = session_->find_device(device_name.value());
      if (const json::Value* targets = request.find("targets");
          targets != nullptr && targets->is_array()) {
        for (const json::Value& t : targets->elements()) {
          if (t.is_string()) opts.targets.push_back(t.str());
        }
      }
      opts.nd = request.get_u32("nd").value_or(0);
      opts.json = request.get_bool("json").value_or(false);
      opts.fail_on =
          request.get_string("fail_on").value_or("error") == "warning"
              ? ir::lint::FailOn::Warning
              : ir::lint::FailOn::Error;
      const kernels::LintDriverResult result =
          kernels::run_lint_driver(kernels::Registry::instance(), opts);
      if (!result.err.empty()) {
        // The client renders "error" frames as `tytra-cc: <message>`,
        // exactly what a standalone run prints on its failure paths.
        send_error(*conn, unit.req_id, result.exit_code, result.err);
      } else {
        send_result(*conn, unit.req_id, result.exit_code, result.out);
      }
      return;
    }
    if (*cmd != "explore" && *cmd != "tune" && *cmd != "campaign") {
      send_error(*conn, unit.req_id, 2, "request: unknown cmd '" + *cmd + "'");
      return;
    }

    if (const std::string err = register_irs(request); !err.empty()) {
      send_error(*conn, unit.req_id, 1, err);
      return;
    }

    const auto& registry = kernels::Registry::instance();
    auto req = std::make_shared<RequestState>();
    req->conn = conn;
    req->req_id = unit.req_id;
    req->json = request.get_bool("json").value_or(false);
    req->pareto = request.get_bool("pareto").value_or(false);
    if (const auto policy = request.get_string("on_error")) {
      req->on_error_abort = *policy != "continue";
    }
    const std::uint32_t max_lanes =
        request.get_u32("max_lanes").value_or(16);
    if (max_lanes == 0) {
      send_error(*conn, unit.req_id, 1, "--max-lanes must be >= 1");
      return;
    }
    const double deadline_seconds =
        request.get_u32("deadline_ms").value_or(0) / 1000.0;

    // Devices: resolve each spec, dedupe by resolved name, keep request
    // order — the CLI's rule, against the shared device table.
    std::vector<std::string> device_names;
    std::vector<std::string> device_specs;
    if (const json::Value* devices = request.find("devices");
        devices != nullptr && devices->is_array()) {
      for (const json::Value& d : devices->elements()) {
        if (d.is_string()) device_specs.push_back(d.str());
      }
    }
    if (device_specs.empty()) device_specs.emplace_back("stratix-v-gsd8");
    for (const auto& spec : device_specs) {
      auto name = ensure_device(spec);
      if (!name.ok()) {
        send_error(*conn, unit.req_id, 1, name.diag().message);
        return;
      }
      if (std::find(device_names.begin(), device_names.end(), name.value()) ==
          device_names.end()) {
        device_names.push_back(name.value());
      }
    }

    if (*cmd == "explore" || *cmd == "tune") {
      const auto kernel = request.get_string("kernel");
      if (!kernel) {
        send_error(*conn, unit.req_id, 2, "request: missing \"kernel\"");
        return;
      }
      const kernels::WorkloadInfo* info = registry.find(*kernel);
      if (!info) {
        send_error(*conn, unit.req_id, 1,
                   "unknown kernel '" + *kernel + "' (" +
                       registry.names_joined() + ")");
        return;
      }
      const std::uint32_t nd =
          request.get_u32("nd").value_or(info->default_nd);
      auto job_r = registry.make_job(*kernel, nd);
      if (!job_r.ok()) {
        send_error(*conn, unit.req_id, 1, job_r.diag().message);
        return;
      }
      Job job = std::move(job_r).take();
      job.device = device_names.front();
      job.max_lanes = max_lanes;
      job.deadline_seconds = deadline_seconds;
      job.cancel = &conn->cancel;
      if (*cmd == "tune") {
        job.max_steps =
            static_cast<int>(request.get_u32("max_steps").value_or(12));
      }
      req->kind = *cmd == "tune" ? RequestState::Kind::Tune
                                 : RequestState::Kind::Explore;
      req->kernel = *kernel;
      req->nd = nd;
      req->jobs.push_back(std::move(job));
    } else {
      // Campaign: the {workload x size x device} fan-out, in the CLI's
      // enumeration order. The client sends its kernel list explicitly
      // (expanding "all registered" against ITS registry), so another
      // client's IR registrations never leak into this campaign.
      std::vector<std::string> kernels_to_run;
      if (const json::Value* ks = request.find("kernels");
          ks != nullptr && ks->is_array()) {
        for (const json::Value& k : ks->elements()) {
          if (k.is_string()) kernels_to_run.push_back(k.str());
        }
      }
      if (kernels_to_run.empty()) kernels_to_run = registry.names();
      std::vector<std::uint32_t> nds;
      if (const json::Value* sizes = request.find("nds");
          sizes != nullptr && sizes->is_array()) {
        for (const json::Value& n : sizes->elements()) {
          if (n.is_number()) {
            nds.push_back(static_cast<std::uint32_t>(n.number()));
          }
        }
      }
      for (const auto& kernel : kernels_to_run) {
        const kernels::WorkloadInfo* info = registry.find(kernel);
        if (!info) {
          send_error(*conn, unit.req_id, 1,
                     "unknown kernel '" + kernel + "' (" +
                         registry.names_joined() + ")");
          return;
        }
        const std::vector<std::uint32_t> sizes =
            nds.empty() ? std::vector<std::uint32_t>{info->default_nd} : nds;
        for (const std::uint32_t nd : sizes) {
          auto job_r = registry.make_job(kernel, nd);
          if (!job_r.ok()) {
            send_error(*conn, unit.req_id, 1, job_r.diag().message);
            return;
          }
          for (const auto& device : device_names) {
            Job job = job_r.value();
            job.device = device;
            job.max_lanes = max_lanes;
            job.deadline_seconds = deadline_seconds;
            job.cancel = &conn->cancel;
            req->jobs.push_back(std::move(job));
          }
        }
      }
      req->kind = RequestState::Kind::CampaignRun;
      req->kernel_count = kernels_to_run.size();
      req->device_count = device_names.size();
    }

    req->results.resize(req->jobs.size());
    req->filled.assign(req->jobs.size(), 0);

    // Admission: the whole request queues or none of it does.
    bool admitted = false;
    {
      MutexLock lock(mu_);
      if (conn->units.size() + req->jobs.size() <= opts_.queue_limit) {
        for (std::size_t i = 0; i < req->jobs.size(); ++i) {
          Unit ju;
          ju.req_id = unit.req_id;
          ju.req = req;
          ju.job_index = i;
          conn->units.push_back(std::move(ju));
        }
        pending_units_ += req->jobs.size();
        if (!conn->in_rr && !conn->units.empty()) {
          rr_.push_back(conn);
          conn->in_rr = true;
        }
        admitted = true;
      }
    }
    if (!admitted) {
      send_error(*conn, unit.req_id, 1,
                 "queue full (this connection already has pending jobs; "
                 "limit " + std::to_string(opts_.queue_limit) + ")");
    }
  }

  // ---- scheduler thread: job execution ----------------------------------

  static CampaignJobResult cancelled_result(const Job& job) {
    CampaignJobResult jr;
    jr.job = job;
    jr.status.state = JobState::Cancelled;
    jr.status.error = "cancelled";
    return jr;
  }

  void process_job(const std::shared_ptr<RequestState>& req,
                   std::size_t index) {
    Connection& conn = *req->conn;
    const Job& job = req->jobs[index];
    const bool dead = draining_.load(std::memory_order_relaxed) ||
                      conn.cancel.cancelled();

    if (req->kind == RequestState::Kind::Explore ||
        req->kind == RequestState::Kind::Tune) {
      const bool tune = req->kind == RequestState::Kind::Tune;
      const char* verb = tune ? "tune" : "explore";
      if (dead) {
        jobs_degraded_.fetch_add(1, std::memory_order_relaxed);
        send_error(conn, req->req_id, kExitInterrupted,
                   std::string(verb) + " interrupted");
        return;
      }
      try {
        if (tune) {
          const TuneResult result = session_->tune(job);
          CampaignJobResult jr;
          jr.job = job;
          send_job_frame(*req, index, jr, "tune",
                         chomp(format_tune_json(result)));
          std::string out;
          if (req->json) {
            out = format_tune_json(result);
          } else {
            char head[256];
            std::snprintf(head, sizeof head,
                          "tuning %s on %s (nd=%u, %llu work-items)\n",
                          req->kernel.c_str(), job.device.c_str(), req->nd,
                          static_cast<unsigned long long>(job.n));
            out = head;
            out += format_tune(result);
          }
          jobs_ok_.fetch_add(1, std::memory_order_relaxed);
          send_result(conn, req->req_id, 0, out);
        } else {
          const DseResult result = session_->explore(job);
          CampaignJobResult jr;
          jr.job = job;
          send_job_frame(*req, index, jr, "sweep",
                         chomp(format_sweep_json(result)));
          std::string out;
          if (req->json) {
            out = format_sweep_json(result);
          } else {
            char head[256];
            std::snprintf(head, sizeof head,
                          "exploring %s on %s: %zu variants in %.3f s\n",
                          req->kernel.c_str(), job.device.c_str(),
                          result.entries.size(), result.explore_seconds);
            out = head;
            out += format_sweep(result);
            if (req->pareto) {
              out += "\npareto frontier (EKIT vs utilization vs bandwidth "
                     "share):\n";
              out += format_pareto(result);
            }
          }
          jobs_ok_.fetch_add(1, std::memory_order_relaxed);
          send_result(conn, req->req_id, 0, out);
        }
      } catch (const CancelledError&) {
        jobs_degraded_.fetch_add(1, std::memory_order_relaxed);
        send_error(conn, req->req_id, kExitInterrupted,
                   std::string(verb) + " interrupted");
      } catch (const std::exception& e) {
        jobs_degraded_.fetch_add(1, std::memory_order_relaxed);
        send_error(conn, req->req_id, 1,
                   std::string(verb) + " failed: " + e.what());
      }
      return;
    }

    // Campaign job: one single-job Campaign through the shared cache —
    // documented byte-identical to the CLI's batched run (Session::run's
    // enumeration-order merge), while giving the daemon a frame boundary
    // and a fairness interleave point per job.
    CampaignJobResult jr;
    if (dead) {
      jr = cancelled_result(job);
      req->interrupted = true;
    } else {
      try {
        Campaign one;
        one.jobs.push_back(job);
        CampaignResult r = session_->run(one);
        jr = std::move(r.jobs[0]);
        req->stats.hits += r.cache_stats.hits;
        req->stats.misses += r.cache_stats.misses;
        req->stats.variant_hits += r.cache_stats.variant_hits;
        req->seconds += r.campaign_seconds;
        if (jr.status.state == JobState::Cancelled) req->interrupted = true;
      } catch (const std::exception& e) {
        jr.job = job;
        jr.status.state = JobState::Failed;
        jr.status.error = e.what();
      }
    }
    (jr.status.ok() ? jobs_ok_ : jobs_degraded_)
        .fetch_add(1, std::memory_order_relaxed);
    send_job_frame(*req, index, jr, "sweep",
                   jr.status.ok() ? chomp(format_sweep_json(jr.result))
                                  : std::string());
    req->results[index] = std::move(jr);
    req->filled[index] = 1;
    if (++req->completed == req->jobs.size()) finalize_campaign(*req);
  }

  void finalize_campaign(RequestState& req) {
    CampaignResult out;
    for (std::size_t i = 0; i < req.results.size(); ++i) {
      if (!req.filled[i]) req.results[i] = cancelled_result(req.jobs[i]);
      out.jobs.push_back(std::move(req.results[i]));
    }
    out.cache_stats = req.stats;
    out.campaign_seconds = req.seconds;

    // Merged frontier over the per-job frontiers — Session::run's exact
    // assembly, over the same candidates in the same order.
    std::vector<ParetoPoint> candidates;
    std::vector<CampaignParetoPoint> mapping;
    for (std::size_t j = 0; j < out.jobs.size(); ++j) {
      for (const ParetoPoint& p : out.jobs[j].result.pareto) {
        candidates.push_back(p);
        mapping.push_back(CampaignParetoPoint{j, p});
      }
    }
    const std::vector<bool> keep = detail::skyline_keep(candidates);
    for (std::size_t i = 0; i < mapping.size(); ++i) {
      if (keep[i]) out.pareto.push_back(mapping[i]);
    }

    if (!req.interrupted && req.on_error_abort && out.degraded() > 0) {
      for (const auto& jr : out.jobs) {
        if (jr.status.ok()) continue;
        std::ostringstream why;
        why << "campaign: job '" << jr.job.workload << "' (nd=" << jr.job.nd
            << ", " << jr.job.device << ") "
            << job_state_name(jr.status.state) << ": " << jr.status.error
            << " (use --on-error continue to keep surviving jobs)";
        send_error(*req.conn, req.req_id, 1, why.str());
        return;
      }
    }

    std::string stdout_text;
    if (req.json) {
      stdout_text = format_campaign_json(out);
    } else {
      char head[160];
      std::snprintf(head, sizeof head,
                    "campaign: %zu jobs (%zu kernels x %zu device(s)) in "
                    "%.3f s\n",
                    out.jobs.size(), req.kernel_count, req.device_count,
                    out.campaign_seconds);
      stdout_text = head;
      stdout_text += format_campaign(out);
      if (req.pareto) {
        stdout_text += "\nmerged pareto frontier across all jobs:\n";
        stdout_text += format_campaign_pareto(out);
      }
    }
    std::string stderr_text;
    if (req.interrupted) {
      std::size_t cancelled = 0;
      for (const auto& jr : out.jobs) {
        if (jr.status.state == JobState::Cancelled) ++cancelled;
      }
      std::ostringstream why;
      why << "tytra-cc: campaign interrupted (" << cancelled << " of "
          << out.jobs.size() << " jobs cancelled; completed results above)\n";
      stderr_text = why.str();
    }
    send_result(*req.conn, req.req_id, req.interrupted ? kExitInterrupted : 0,
                stdout_text, stderr_text);
  }

  // ---- scheduler loop ----------------------------------------------------

  void scheduler_loop() {
    for (;;) {
      std::shared_ptr<Connection> conn;
      Unit unit;
      {
        MutexLock lock(mu_);
        while (!stop_ && rr_.empty()) sched_cv_.wait(mu_);
        if (rr_.empty()) {
          if (stop_) return;
          continue;
        }
        conn = rr_.front();
        rr_.pop_front();
        conn->in_rr = false;
        if (conn->units.empty()) continue;  // purged by a disconnect
        unit = std::move(conn->units.front());
        conn->units.pop_front();
        if (!conn->units.empty()) {
          // Round-robin: this connection re-queues BEHIND every other
          // waiting connection, so job-level interleaving is fair.
          rr_.push_back(conn);
          conn->in_rr = true;
        }
        busy_ = true;
      }
      if (unit.is_setup) {
        process_setup(conn, std::move(unit));
      } else {
        process_job(unit.req, unit.job_index);
      }
      {
        MutexLock lock(mu_);
        busy_ = false;
        --pending_units_;
        if (pending_units_ == 0) idle_cv_.notify_all();
      }
    }
  }

  // ---- accept loop + drain -----------------------------------------------

  void serve() {
    std::thread scheduler([this] { scheduler_loop(); });

    std::vector<std::shared_ptr<Connection>> conns;
    std::uint64_t next_id = 1;
    while (!shutdown_flag_.load(std::memory_order_acquire)) {
      pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_rd_, POLLIN, 0}};
      const int n = ::poll(fds, 2, 200);
      // Reap finished connections so reader threads don't pile up.
      for (auto it = conns.begin(); it != conns.end();) {
        if ((*it)->done.load(std::memory_order_acquire)) {
          (*it)->reader.join();
          it = conns.erase(it);
        } else {
          ++it;
        }
      }
      if (shutdown_flag_.load(std::memory_order_acquire)) break;
      if (n <= 0 || (fds[0].revents & POLLIN) == 0) continue;
      if (failpoint::fire("server.accept")) {
        std::fprintf(stderr, "tytra-dsed: injected fault at failpoint "
                             "'server.accept'; retrying\n");
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      const int cfd = ::accept(listen_fd_, nullptr, nullptr);
      if (cfd < 0) {
        if (errno != EINTR && errno != ECONNABORTED) {
          std::fprintf(stderr, "tytra-dsed: accept: %s\n",
                       std::strerror(errno));
        }
        continue;
      }
      auto conn = std::make_shared<Connection>();
      conn->fd = cfd;
      conn->id = next_id++;
      connections_.fetch_add(1, std::memory_order_relaxed);
      conn->reader = std::thread([this, conn] { reader_loop(conn); });
      conns.push_back(std::move(conn));
    }

    // Drain. Step 1: no new connections, no new requests.
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(opts_.socket_path.c_str());
    {
      MutexLock lock(mu_);
      accepting_ = false;
    }

    // Step 2: give in-flight and queued work the grace period. The
    // server.drain failpoint skips it — the "drain budget already spent"
    // worst case, on demand for tests.
    {
      MutexLock lock(mu_);
      bool drained = false;
      if (failpoint::fire("server.drain")) {
        std::fprintf(stderr, "tytra-dsed: injected fault at failpoint "
                             "'server.drain'; cancelling in-flight work\n");
      } else {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(opts_.drain_ms);
        while (!(pending_units_ == 0 && !busy_)) {
          if (idle_cv_.wait_until(mu_, deadline) == std::cv_status::timeout) {
            break;
          }
        }
        drained = pending_units_ == 0 && !busy_;
      }
      if (!drained && !(pending_units_ == 0 && !busy_)) {
        // Step 3: the budget is spent. Cancel cooperatively — the
        // session-wide token stops evaluation at the next variant, and
        // draining_ makes the scheduler finalize queued jobs as
        // Cancelled (clients see the standalone interrupt contract:
        // completed results, exit 130) instead of running them.
        draining_.store(true, std::memory_order_relaxed);
        drain_cancel_.request_cancel();
        while (!(pending_units_ == 0 && !busy_)) idle_cv_.wait(mu_);
      }
    }

    // Step 4: stop the scheduler.
    {
      MutexLock lock(mu_);
      stop_ = true;
    }
    sched_cv_.notify_all();
    scheduler.join();

    // Step 5: tear down the connections.
    for (const auto& conn : conns) {
      {
        MutexLock lock(conn->write_mu);
        conn->closed = true;
        ::shutdown(conn->fd, SHUT_RDWR);
      }
      conn->reader.join();
    }
    conns.clear();

    // Step 6: persist the warm state for the next boot. A session that
    // learned nothing since it loaded the file leaves it untouched.
    if (!opts_.session.snapshot_path.empty()) {
      bool wrote = false;
      const auto written = session_->save_snapshot({}, &wrote);
      if (written.ok()) {
        std::fprintf(stderr,
                     wrote ? "tytra-dsed: saved snapshot %s (%llu bytes)\n"
                           : "tytra-dsed: snapshot %s unchanged (%llu bytes)\n",
                     opts_.session.snapshot_path.c_str(),
                     static_cast<unsigned long long>(written.value()));
      } else {
        std::fprintf(stderr, "tytra-dsed: snapshot save failed: %s\n",
                     written.diag().message.c_str());
      }
    }
  }

  void signal_shutdown() noexcept {
    shutdown_flag_.store(true, std::memory_order_release);
    const char byte = 'x';
    [[maybe_unused]] const ssize_t n = ::write(wake_wr_, &byte, 1);
  }

  ServerOptions opts_;
  std::unique_ptr<Session> session_;
  CancelToken drain_cancel_;
  int listen_fd_{-1};
  int wake_rd_{-1};
  int wake_wr_{-1};
  std::atomic<bool> shutdown_flag_{false};

  /// Scheduler-queue lock. condition_variable_any waits on the annotated
  /// Mutex directly, keeping the capability visible to -Wthread-safety
  /// across the wait (see thread_annotations.hpp).
  tytra::Mutex mu_;
  std::condition_variable_any sched_cv_;
  std::condition_variable_any idle_cv_;
  std::deque<std::shared_ptr<Connection>> rr_ TYTRA_GUARDED_BY(mu_);
  std::size_t pending_units_ TYTRA_GUARDED_BY(mu_){0};
  bool busy_ TYTRA_GUARDED_BY(mu_){false};
  bool accepting_ TYTRA_GUARDED_BY(mu_){true};
  bool stop_ TYTRA_GUARDED_BY(mu_){false};
  std::atomic<bool> draining_{false};

  /// Daemon-side IR registration memory: name -> source text, for the
  /// identical-content idempotency check. Scheduler thread only.
  std::map<std::string, std::string> ir_sources_;

  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> jobs_ok_{0};
  std::atomic<std::uint64_t> jobs_degraded_{0};
  std::atomic<std::uint64_t> frames_rejected_{0};
};

// -----------------------------------------------------------------------
// Public surface
// -----------------------------------------------------------------------

Server::Server(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() = default;

void Server::serve() { impl_->serve(); }

void Server::signal_shutdown() noexcept { impl_->signal_shutdown(); }

const std::string& Server::socket_path() const {
  return impl_->opts_.socket_path;
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections = impl_->connections_.load(std::memory_order_relaxed);
  s.requests = impl_->requests_.load(std::memory_order_relaxed);
  s.jobs_ok = impl_->jobs_ok_.load(std::memory_order_relaxed);
  s.jobs_degraded = impl_->jobs_degraded_.load(std::memory_order_relaxed);
  s.frames_rejected = impl_->frames_rejected_.load(std::memory_order_relaxed);
  return s;
}

Session& Server::session() { return *impl_->session_; }

}  // namespace tytra::dse
