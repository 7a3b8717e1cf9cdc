#include "net/net_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "lang/journal.h"
#include "server/journal_feed.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "wm/wme.h"

namespace dbps {
namespace net {

namespace {

// epoll_event.data.u64 sentinels for the two non-connection fds.
constexpr uint64_t kListenTag = ~uint64_t{0};
constexpr uint64_t kWakeTag = ~uint64_t{0} - 1;

Status Errno(const std::string& what) {
  return Status::Unavailable(what + ": " + std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

void MaxPeak(std::atomic<size_t>& peak, size_t value) {
  size_t seen = peak.load(std::memory_order_relaxed);
  while (value > seen &&
         !peak.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

NetServer::NetServer(SessionManager* manager, NetServerOptions options)
    : manager_(manager), options_(std::move(options)) {
  DBPS_CHECK(manager_ != nullptr);
  if (options_.num_loops == 0) options_.num_loops = 1;
  if (options_.num_dispatchers == 0) options_.num_dispatchers = 1;
}

NetServer::~NetServer() { Stop(); }

Status NetServer::Start() {
  if (running_.load()) return Status::InvalidArgument("already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("bad bind address '" +
                                   options_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Errno("bind");
  }
  if (::listen(listen_fd_, options_.listen_backlog) < 0) {
    return Errno("listen");
  }
  DBPS_RETURN_NOT_OK(SetNonBlocking(listen_fd_));
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    return Errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  loops_.clear();
  for (size_t i = 0; i < options_.num_loops; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (loop->epoll_fd < 0) return Errno("epoll_create1");
    loop->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (loop->wake_fd < 0) return Errno("eventfd");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake_fd, &ev);
    loops_.push_back(std::move(loop));
  }
  {
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET;
    ev.data.u64 = kListenTag;
    if (::epoll_ctl(loops_[0]->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev) <
        0) {
      return Errno("epoll_ctl(listen)");
    }
  }

  stopping_.store(false);
  running_.store(true);
  for (size_t i = 0; i < loops_.size(); ++i) {
    loops_[i]->thread = std::thread([this, i] { LoopMain(i); });
  }
  dispatchers_.clear();
  for (size_t i = 0; i < options_.num_dispatchers; ++i) {
    dispatchers_.emplace_back([this] { DispatcherMain(); });
  }
  return Status::OK();
}

void NetServer::Stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  for (auto& loop : loops_) {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(loop->wake_fd, &one, sizeof(one));
  }
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  {
    std::lock_guard<std::mutex> lock(dispatch_mu_);
    dispatch_queue_.clear();
  }
  dispatch_cv_.notify_all();
  for (auto& t : dispatchers_) {
    if (t.joinable()) t.join();
  }
  dispatchers_.clear();

  // No threads left: tear down every remaining connection directly.
  std::unordered_map<uint64_t, ConnPtr> leftover;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    leftover.swap(conns_);
  }
  for (auto& [id, conn] : leftover) {
    (void)id;
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->fd >= 0) {
      ::close(conn->fd);
      conn->fd = -1;
      connections_closed_.fetch_add(1, std::memory_order_relaxed);
    }
    if (conn->session) {
      conn->session->Close();
      conn->session.reset();
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& loop : loops_) {
    if (loop->epoll_fd >= 0) ::close(loop->epoll_fd);
    if (loop->wake_fd >= 0) ::close(loop->wake_fd);
  }
  loops_.clear();
}

size_t NetServer::open_connections() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return conns_.size();
}

NetStats NetServer::GetStats() const {
  NetStats out;
  out.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  out.connections_closed = connections_closed_.load(std::memory_order_relaxed);
  out.frames_in = frames_in_.load(std::memory_order_relaxed);
  out.frames_out = frames_out_.load(std::memory_order_relaxed);
  out.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  out.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  out.busy_frames = busy_frames_.load(std::memory_order_relaxed);
  out.error_frames = error_frames_.load(std::memory_order_relaxed);
  out.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  out.partial_writes = partial_writes_.load(std::memory_order_relaxed);
  out.dispatch_runs = dispatch_runs_.load(std::memory_order_relaxed);
  out.injected_accept_drops =
      injected_accept_drops_.load(std::memory_order_relaxed);
  out.injected_read_errors =
      injected_read_errors_.load(std::memory_order_relaxed);
  out.injected_conn_drops =
      injected_conn_drops_.load(std::memory_order_relaxed);
  out.peak_connections = peak_connections_.load(std::memory_order_relaxed);
  out.pipeline_peak = pipeline_peak_.load(std::memory_order_relaxed);
  out.open_connections = open_connections();
  for (const auto& loop : loops_) {
    NetLoopStats ls;
    ls.wakeups = loop->wakeups.load(std::memory_order_relaxed);
    ls.accepts = loop->accepts.load(std::memory_order_relaxed);
    ls.reads = loop->reads.load(std::memory_order_relaxed);
    ls.flushes = loop->flushes.load(std::memory_order_relaxed);
    out.loops.push_back(ls);
  }
  return out;
}

// --- event loops --------------------------------------------------------

void NetServer::LoopMain(size_t index) {
  Loop& loop = *loops_[index];
  constexpr int kMaxEvents = 128;
  epoll_event events[kMaxEvents];
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(loop.epoll_fd, events, kMaxEvents, 200);
    if (n <= 0) continue;
    loop.wakeups.fetch_add(1, std::memory_order_relaxed);
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kWakeTag) {
        uint64_t junk;
        while (::read(loop.wake_fd, &junk, sizeof(junk)) > 0) {
        }
        continue;
      }
      if (tag == kListenTag) {
        AcceptReady(loop);
        continue;
      }
      ConnPtr conn;
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        auto it = conns_.find(tag);
        if (it == conns_.end()) continue;  // already finalized
        conn = it->second;
      }
      const uint32_t ev = events[i].events;
      if (ev & (EPOLLERR | EPOLLHUP)) {
        BeginClose(conn);
        continue;
      }
      if (ev & EPOLLOUT) {
        bool io_error = false, do_goodbye = false;
        {
          std::lock_guard<std::mutex> lock(conn->mu);
          if (!conn->closing && conn->fd >= 0) {
            const bool drained = FlushLocked(conn);
            io_error = conn->closing;  // FlushLocked flags fatal errors
            do_goodbye = drained && conn->goodbye;
            if (drained) {
              loop.flushes.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
        if (io_error || do_goodbye) BeginClose(conn);
      }
      if (ev & (EPOLLIN | EPOLLRDHUP)) ReadReady(conn);
    }
  }
}

void NetServer::AcceptReady(Loop& loop) {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error: wait for next edge
    // Chaos site: the server "loses" the connection right after accept —
    // clients must treat a vanished server connection as retryable.
    if (DBPS_FAILPOINT("net.accept.drop")) {
      injected_accept_drops_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    loop.accepts.fetch_add(1, std::memory_order_relaxed);
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);

    auto conn = std::make_shared<Connection>();
    conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
    conn->fd = fd;
    conn->loop =
        next_loop_.fetch_add(1, std::memory_order_relaxed) % loops_.size();
    size_t open;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.emplace(conn->id, conn);
      open = conns_.size();
    }
    MaxPeak(peak_connections_, open);
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(loops_[conn->loop]->epoll_fd, EPOLL_CTL_ADD, fd, &ev) <
        0) {
      BeginClose(conn);
    }
  }
}

void NetServer::ReadReady(const ConnPtr& conn) {
  // Chaos site: a readable event turns into a connection error (torn
  // cable, reset) — everything pipelined on the connection dies with it.
  if (DBPS_FAILPOINT("net.read.error")) {
    injected_read_errors_.fetch_add(1, std::memory_order_relaxed);
    BeginClose(conn);
    return;
  }
  // read() runs with conn->mu dropped; `reading` keeps Finalize from
  // closing the fd under it.
  int fd;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->fd < 0) return;  // already finalized
    conn->reading = true;
    fd = conn->fd;
  }
  char buf[65536];
  bool eof = false;
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      loops_[conn->loop]->reads.fetch_add(1, std::memory_order_relaxed);
      bytes_in_.fetch_add(static_cast<uint64_t>(n),
                          std::memory_order_relaxed);
      conn->reader.Feed(std::string_view(buf, static_cast<size_t>(n)));
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    eof = true;  // hard error
    break;
  }
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->reading = false;
    if (conn->close_pending) CloseFdLocked(conn);
  }
  DrainParsed(conn);
  if (eof) BeginClose(conn);
}

void NetServer::DrainParsed(const ConnPtr& conn) {
  Frame frame;
  size_t parsed = 0;
  for (;;) {
    auto got_or = conn->reader.Next(&frame);
    if (!got_or.ok()) {
      // Framing violation: the byte stream is unrecoverable.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      BeginClose(conn);
      return;
    }
    if (!got_or.ValueOrDie()) break;
    ++parsed;
    frames_in_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closing) return;
    conn->pending.push_back(std::move(frame));
    MaxPeak(pipeline_peak_, conn->pending.size());
  }
  if (parsed > 0) {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (!conn->closing && !conn->scheduled && !conn->pending.empty()) {
      ScheduleDispatch(conn);
    }
  }
}

void NetServer::ScheduleDispatch(const ConnPtr& conn) {
  conn->scheduled = true;
  {
    std::lock_guard<std::mutex> lock(dispatch_mu_);
    dispatch_queue_.push_back(conn);
  }
  dispatch_cv_.notify_one();
}

// --- dispatchers --------------------------------------------------------

void NetServer::DispatcherMain() {
  for (;;) {
    ConnPtr conn;
    {
      std::unique_lock<std::mutex> lock(dispatch_mu_);
      dispatch_cv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_acquire) ||
               !dispatch_queue_.empty();
      });
      if (stopping_.load(std::memory_order_acquire) &&
          dispatch_queue_.empty()) {
        return;
      }
      conn = std::move(dispatch_queue_.front());
      dispatch_queue_.pop_front();
    }
    dispatch_runs_.fetch_add(1, std::memory_order_relaxed);
    ProcessConnection(conn);
  }
}

void NetServer::ProcessConnection(const ConnPtr& conn) {
  for (;;) {
    std::deque<Frame> batch;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->pending.empty() || conn->closing) {
        conn->scheduled = false;
        if (conn->closing) break;  // we were the last owner: finalize
        return;
      }
      batch.swap(conn->pending);
    }
    for (Frame& frame : batch) {
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (conn->closing) break;
      }
      std::string response = HandleFrame(conn, frame);
      if (response.empty()) {
        // Injected mid-commit connection drop: no response, no further
        // processing — the client sees the connection die with the
        // transaction outcome unknown (the classic ambiguous commit).
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->closing = true;
        conn->close_begun = true;  // this pass finalizes below
        break;
      }
      SendBytes(conn, response);
    }
  }
  // Fell out because closing: release ownership and finalize.
  Finalize(conn);
}

std::string NetServer::HandleFrame(const ConnPtr& conn, const Frame& frame) {
  const uint64_t id = frame.request_id;
  auto error = [&](const Status& status) {
    error_frames_.fetch_add(1, std::memory_order_relaxed);
    return EncodeError(id, status);
  };
  auto busy = [&](const Status& status) {
    busy_frames_.fetch_add(1, std::memory_order_relaxed);
    return EncodeBusy(
        id, static_cast<uint32_t>(options_.busy_retry_hint.count()),
        status.message());
  };

  switch (frame.type) {
    case FrameType::kPing:
      return EncodeFrame(FrameType::kPong, id);

    case FrameType::kGoodbye: {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->goodbye = true;
      return EncodeFrame(FrameType::kOk, id);
    }

    case FrameType::kCheckpoint: {
      // Admin verb, no session needed: schedule a snapshot checkpoint at
      // the next commit-batch boundary of the durable journal.
      JournalFeed* feed = manager_->options().durable_feed;
      if (feed == nullptr) {
        return error(Status::Unavailable(
            "server has no durable journal; checkpointing is unavailable"));
      }
      Status status = feed->RequestCheckpoint();
      if (!status.ok()) return error(status);
      return EncodeFrame(FrameType::kOk, id);
    }

    case FrameType::kHello: {
      if (conn->session) {
        return error(Status::InvalidArgument("session already open"));
      }
      BodyReader reader(frame.body);
      auto name_or = reader.String();
      if (!name_or.ok()) return error(name_or.status());
      SessionOptions session_options = options_.session;
      session_options.txn_admission_timeout = options_.txn_gate_timeout;
      auto session_or = manager_->Connect(
          std::move(name_or).ValueOrDie(), session_options);
      if (!session_or.ok()) {
        // Session-table admission rejection IS the backpressure frame —
        // the client backs off instead of the server growing a queue.
        if (session_or.status().IsResourceExhausted()) {
          return busy(session_or.status());
        }
        return error(session_or.status());
      }
      conn->session = std::move(session_or).ValueOrDie();
      conn->peer = conn->session->name();
      return EncodeHelloOk(id, conn->session->id());
    }

    default:
      break;
  }

  if (!conn->session) {
    return error(Status::InvalidArgument(
        std::string("'") + FrameTypeToString(frame.type) +
        "' before Hello"));
  }
  Session& session = *conn->session;

  switch (frame.type) {
    case FrameType::kBegin: {
      Status st = session.Begin();
      if (st.ok()) return EncodeFrame(FrameType::kOk, id);
      // Admission-gate pressure (too many open transactions) surfaces as
      // a Busy frame after the short bounded gate wait.
      if (st.IsResourceExhausted()) return busy(st);
      return error(st);
    }

    case FrameType::kRead: {
      BodyReader reader(frame.body);
      auto rel_or = reader.String();
      if (!rel_or.ok()) return error(rel_or.status());
      auto rows_or = session.Read(rel_or.ValueOrDie());
      if (!rows_or.ok()) return error(rows_or.status());
      std::string text;
      for (const WmePtr& wme : rows_or.ValueOrDie()) {
        text += wme->ToString();
        text += '\n';
      }
      return EncodeRows(id,
                        static_cast<uint32_t>(rows_or.ValueOrDie().size()),
                        text);
    }

    case FrameType::kQuery: {
      BodyReader reader(frame.body);
      auto lhs_or = reader.String();
      if (!lhs_or.ok()) return error(lhs_or.status());
      auto rows_or = session.Query(lhs_or.ValueOrDie());
      if (!rows_or.ok()) return error(rows_or.status());
      std::string text;
      for (const QueryRow& row : rows_or.ValueOrDie()) {
        for (size_t i = 0; i < row.size(); ++i) {
          if (i > 0) text += '\t';
          text += row[i]->ToString();
        }
        text += '\n';
      }
      return EncodeRows(id,
                        static_cast<uint32_t>(rows_or.ValueOrDie().size()),
                        text);
    }

    case FrameType::kWrite: {
      BodyReader reader(frame.body);
      auto line_or = reader.String();
      if (!line_or.ok()) return error(line_or.status());
      auto delta_or = DeltaFromJournalLine(line_or.ValueOrDie());
      if (!delta_or.ok()) return error(delta_or.status());
      Status st = session.Write(delta_or.ValueOrDie());
      if (!st.ok()) return error(st);
      return EncodeFrame(FrameType::kOk, id);
    }

    case FrameType::kCommit: {
      auto seq_or = session.Commit();
      // Chaos site: the connection dies INSTEAD of delivering the commit
      // verdict (which may be a success the client will never see).
      if (DBPS_FAILPOINT("net.conn.drop")) {
        injected_conn_drops_.fetch_add(1, std::memory_order_relaxed);
        return std::string();
      }
      if (!seq_or.ok()) {
        if (seq_or.status().IsResourceExhausted()) {
          return busy(seq_or.status());
        }
        return error(seq_or.status());
      }
      return EncodeCommitOk(id, seq_or.ValueOrDie());
    }

    case FrameType::kAbortTxn:
      session.Abort();
      return EncodeFrame(FrameType::kOk, id);

    default:
      return error(Status::InvalidArgument(
          std::string("unexpected frame '") +
          FrameTypeToString(frame.type) + "'"));
  }
}

// --- writes -------------------------------------------------------------

void NetServer::SendBytes(const ConnPtr& conn, std::string_view bytes) {
  frames_out_.fetch_add(1, std::memory_order_relaxed);
  bool io_error = false, do_goodbye = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closing || conn->fd < 0) return;
    conn->outbuf.append(bytes);
    const bool drained = FlushLocked(conn);
    io_error = conn->closing;
    do_goodbye = drained && conn->goodbye;
  }
  if (io_error || do_goodbye) BeginClose(conn);
}

bool NetServer::FlushLocked(const ConnPtr& conn) {
  while (conn->out_off < conn->outbuf.size()) {
    size_t want = conn->outbuf.size() - conn->out_off;
    bool injected_partial = false;
    // Chaos site: the kernel "accepts" one byte — exercises the parked-
    // buffer + EPOLLOUT resumption path that real short writes take.
    if (DBPS_FAILPOINT("net.write.partial")) {
      want = 1;
      injected_partial = true;
    }
    const ssize_t n = ::send(conn->fd, conn->outbuf.data() + conn->out_off,
                             want, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        partial_writes_.fetch_add(1, std::memory_order_relaxed);
        UpdateEpollInterest(conn, /*want_write=*/true);
        return false;
      }
      conn->closing = true;  // fatal socket error; caller closes
      return false;
    }
    bytes_out_.fetch_add(static_cast<uint64_t>(n),
                         std::memory_order_relaxed);
    conn->out_off += static_cast<size_t>(n);
    if (injected_partial && conn->out_off < conn->outbuf.size()) {
      partial_writes_.fetch_add(1, std::memory_order_relaxed);
      UpdateEpollInterest(conn, /*want_write=*/true);
      return false;
    }
  }
  conn->outbuf.clear();
  conn->out_off = 0;
  if (conn->want_write) UpdateEpollInterest(conn, /*want_write=*/false);
  return true;
}

void NetServer::UpdateEpollInterest(const ConnPtr& conn, bool want_write) {
  if (conn->want_write == want_write || conn->fd < 0) {
    conn->want_write = want_write;
    return;
  }
  conn->want_write = want_write;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET |
              (want_write ? EPOLLOUT : 0u);
  ev.data.u64 = conn->id;
  ::epoll_ctl(loops_[conn->loop]->epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
}

// --- teardown -----------------------------------------------------------

void NetServer::BeginClose(const ConnPtr& conn) {
  bool finalize_now;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->close_begun) return;  // someone is already driving the close
    conn->close_begun = true;
    conn->closing = true;
    // If a dispatcher owns the connection it finalizes at pass end;
    // otherwise it is on us.
    finalize_now = !conn->scheduled;
  }
  if (finalize_now) Finalize(conn);
}

void NetServer::CloseFdLocked(const ConnPtr& conn) {
  ::epoll_ctl(loops_[conn->loop]->epoll_fd, EPOLL_CTL_DEL, conn->fd,
              nullptr);
  ::close(conn->fd);
  conn->fd = -1;
  conn->close_pending = false;
  connections_closed_.fetch_add(1, std::memory_order_relaxed);
}

void NetServer::Finalize(const ConnPtr& conn) {
  SessionPtr session;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->fd >= 0) {
      if (conn->reading) {
        conn->close_pending = true;  // the reader closes it when done
      } else {
        CloseFdLocked(conn);
      }
    }
    session = std::move(conn->session);
    conn->session.reset();
  }
  // Close the session outside conn->mu: it aborts any open transaction
  // (lock-manager traffic) and detaches from the manager.
  if (session) session->Close();
  std::lock_guard<std::mutex> lock(conns_mu_);
  conns_.erase(conn->id);
}

}  // namespace net
}  // namespace dbps
