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
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "tytra/dse/request.hpp"
#include "tytra/support/failpoint.hpp"
#include "tytra/support/framing.hpp"
#include "tytra/support/json.hpp"
#include "tytra/support/thread_annotations.hpp"

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
// produced. Both go through dse/request.hpp: the same decode/prepare/plan
// steps, and the same renderers compose the final frame's "stdout" and
// "stderr" fields.

namespace tytra::dse {

namespace {

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
  Request request;
  Plan plan;
  std::vector<CampaignJobResult> results;  ///< campaign: slot per job
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

  /// Sends a response the way the client prints it back: a failure with
  /// no stdout as an "error" frame, anything else as a "result" frame
  /// carrying both streams.
  void respond(Connection& c, std::uint64_t req_id, const Response& r) {
    const bool error = r.out.empty() && !r.diag.empty();
    std::string frame = std::string("{\"type\": \"") +
                        (error ? "error" : "result") + "\", \"req\": " +
                        std::to_string(req_id) +
                        ", \"exit\": " + std::to_string(r.exit);
    if (error) {
      frame += ", \"message\": \"" + json::escape(r.diag) + "\"";
    } else {
      frame += ", \"stdout\": \"" + json::escape(r.out) + "\"";
      if (!r.diag.empty()) {
        frame += ", \"stderr\": \"" + json::escape(r.err()) + "\"";
      }
    }
    send(c, frame + "}");
  }

  void send_job_frame(RequestState& req, std::size_t index,
                      const CampaignJobResult& jr,
                      const std::string& payload_key,
                      const std::string& payload_json) {
    std::ostringstream os;
    os << "{\"type\": \"job\", \"req\": " << req.req_id
       << ", \"job\": " << index << ", \"jobs\": " << req.plan.jobs.size()
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
        respond(*conn, req_id,
                {2, {}, parsed.ok() ? "request: not a JSON object"
                                    : parsed.diag().message});
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
        respond(*conn, req_id, {1, {}, "server is shutting down"});
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

  /// Decodes, prepares and plans one request (dse/request.hpp — the same
  /// steps a standalone run takes, so every failure is answered with the
  /// message and exit code that run would have printed), then runs list
  /// and lint at once and queues explore/tune/campaign as job units.
  void process_setup(const std::shared_ptr<Connection>& conn, Unit&& unit) {
    auto decoded = decode(unit.request);
    if (!decoded.ok()) {
      respond(*conn, unit.req_id, {2, {}, decoded.diag().message});
      return;
    }
    requests_.fetch_add(1, std::memory_order_relaxed);
    Request& request = decoded.value();

    if (request.cmd == Command::Ping) {
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
    if (request.cmd == Command::Shutdown) {
      respond(*conn, unit.req_id, {});
      signal_shutdown();
      return;
    }
    const auto prepared = prepare(request, ir_sources_);
    if (!prepared.ok()) {
      respond(*conn, unit.req_id, {1, {}, prepared.diag().message});
      return;
    }
    auto planned = plan(request, *session_);
    if (!planned.ok()) {
      respond(*conn, unit.req_id, {1, {}, planned.diag().message});
      return;
    }
    if (request.cmd == Command::List || request.cmd == Command::Lint) {
      respond(*conn, unit.req_id,
              execute(request, planned.value(), *session_));
      return;
    }

    auto req = std::make_shared<RequestState>();
    req->conn = conn;
    req->req_id = unit.req_id;
    req->request = std::move(request);
    req->plan = std::move(planned).take();
    const std::size_t jobs = req->plan.jobs.size();
    for (Job& job : req->plan.jobs) job.cancel = &conn->cancel;
    req->results.resize(jobs);
    req->filled.assign(jobs, 0);

    // Admission: the whole request queues or none of it does.
    bool admitted = false;
    {
      MutexLock lock(mu_);
      if (conn->units.size() + jobs <= opts_.queue_limit) {
        for (std::size_t i = 0; i < jobs; ++i) {
          Unit ju;
          ju.req_id = unit.req_id;
          ju.req = req;
          ju.job_index = i;
          conn->units.push_back(std::move(ju));
        }
        pending_units_ += jobs;
        if (!conn->in_rr && !conn->units.empty()) {
          rr_.push_back(conn);
          conn->in_rr = true;
        }
        admitted = true;
      }
    }
    if (!admitted) {
      respond(*conn, unit.req_id,
              {1, {}, "queue full (this connection already has pending jobs; "
                      "limit " + std::to_string(opts_.queue_limit) + ")"});
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
    const Request& request = req->request;
    const Job& job = req->plan.jobs[index];
    const bool dead = draining_.load(std::memory_order_relaxed) ||
                      conn.cancel.cancelled();

    if (request.cmd != Command::Campaign) {
      // explore / tune: one job, answered as soon as it finishes.
      Response response = render_failure(request, CancelledError());
      if (!dead) {
        CampaignJobResult jr;
        jr.job = job;
        try {
          if (request.cmd == Command::Tune) {
            const TuneResult result = session_->tune(job);
            send_job_frame(*req, index, jr, "tune",
                           chomp(format_tune_json(result)));
            response = render(request, req->plan, result);
          } else {
            const DseResult result = session_->explore(job);
            send_job_frame(*req, index, jr, "sweep",
                           chomp(format_sweep_json(result)));
            response = render(request, req->plan, result);
          }
        } catch (const std::exception& e) {
          response = render_failure(request, e);
        }
      }
      (response.exit == 0 ? jobs_ok_ : jobs_degraded_)
          .fetch_add(1, std::memory_order_relaxed);
      respond(conn, req->req_id, response);
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
        CampaignResult r = session_->run(Campaign{{job}});
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
    if (++req->completed == req->plan.jobs.size()) finalize_campaign(*req);
  }

  void finalize_campaign(RequestState& req) {
    CampaignResult out;
    for (std::size_t i = 0; i < req.results.size(); ++i) {
      if (!req.filled[i]) req.results[i] = cancelled_result(req.plan.jobs[i]);
      out.jobs.push_back(std::move(req.results[i]));
    }
    out.cache_stats = req.stats;
    out.campaign_seconds = req.seconds;
    out.pareto = merged_frontier(out.jobs);
    respond(*req.conn, req.req_id,
            render(req.request, req.plan, out, req.interrupted));
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
  IrSources ir_sources_;

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
