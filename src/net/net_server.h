// NetServer: the async socket front-end of the database server.
//
// An epoll-based, edge-triggered, non-blocking TCP server that speaks the
// binary wire protocol (net/wire.h) and maps frames onto the in-process
// Session/SessionManager API — the scale-out step the ROADMAP names:
// multiplex tens of thousands of connections onto a small worker pool.
//
// Architecture (three thread roles, N + D + 0 extra):
//
//   * N event-loop threads, each owning one epoll instance. Loop 0 also
//     owns the listen socket; accepted connections are spread round-robin
//     across loops. Edge-triggered: every readable event drains the
//     socket to EAGAIN, parses complete frames off the connection's
//     FrameReader, and appends them to the connection's pending queue.
//   * D dispatcher threads pull connections (not frames) off one shared
//     ready queue and execute that connection's pending frames IN ORDER
//     against its Session. A connection is on the queue at most once and
//     processed by at most one dispatcher at a time — the Session's
//     single-threaded contract — while different connections' frames run
//     concurrently on the pool. Blocking inside a frame (lock waits, the
//     commit sequencer, the group-commit fsync) blocks one dispatcher,
//     never an event loop, so sockets keep draining while commits wait.
//   * Responses are written by the dispatcher that produced them; short
//     writes park the remainder on the connection's out-buffer and arm
//     EPOLLOUT so the owning loop finishes the flush.
//
// Backpressure is explicit, never silent queue growth: a full session
// table rejects Hello with Busy, a full transaction admission gate turns
// Begin into Busy after a very short bounded wait (the gate timeout is a
// server option, default single-digit ms), and clients are expected to
// back off per the frame's retry hint.
//
// Failpoint sites (chaos profile, util/failpoint.h):
//   net.accept.drop   accepted connection closed immediately
//   net.read.error    a readable event treated as a connection error
//   net.write.partial a flush writes one byte then pretends EAGAIN
//   net.conn.drop     connection dropped instead of sending a Commit
//                     response — the client never learns the outcome
//
// Shutdown order: Stop() the server (connections die, sessions close),
// then Close() the SessionManager, then join the engine thread.

#ifndef DBPS_NET_NET_SERVER_H_
#define DBPS_NET_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/wire.h"
#include "server/session_manager.h"
#include "util/status.h"

namespace dbps {
namespace net {

struct NetServerOptions {
  /// Loopback by default: this is a front-end for benches/tests, not an
  /// exposed service.
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back with port() after Start().
  uint16_t port = 0;
  size_t num_loops = 2;        ///< epoll event-loop threads
  size_t num_dispatchers = 4;  ///< session-executing worker threads
  int listen_backlog = 512;
  /// Sessions opened by this server wait at most this long on the
  /// transaction admission gate before Begin is answered with Busy —
  /// backpressure as a frame, not as a parked connection.
  std::chrono::milliseconds txn_gate_timeout{2};
  /// Retry hint carried in Busy frames.
  std::chrono::milliseconds busy_retry_hint{5};
  /// Base session options for connections admitted by this server
  /// (txn_gate_timeout overrides the admission timeout within).
  SessionOptions session;
};

/// \brief Per-event-loop counters (relaxed atomics; read racily).
struct NetLoopStats {
  uint64_t wakeups = 0;   ///< epoll_wait returns with >= 1 event
  uint64_t accepts = 0;   ///< connections this loop accepted (loop 0)
  uint64_t reads = 0;     ///< read() calls that returned data
  uint64_t flushes = 0;   ///< EPOLLOUT-driven flush completions
};

/// \brief Aggregate front-end counters.
struct NetStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  /// Busy frames sent — the backpressure the AdmissionGate produced.
  uint64_t busy_frames = 0;
  uint64_t error_frames = 0;
  uint64_t protocol_errors = 0;  ///< connections killed by framing errors
  uint64_t partial_writes = 0;   ///< flushes that left bytes parked
  uint64_t dispatch_runs = 0;    ///< dispatcher passes over a connection
  // Injected faults (zero unless chaos is armed):
  uint64_t injected_accept_drops = 0;
  uint64_t injected_read_errors = 0;
  uint64_t injected_conn_drops = 0;
  size_t open_connections = 0;
  size_t peak_connections = 0;
  /// Most request frames ever waiting on one connection — achieved
  /// pipelining depth.
  size_t pipeline_peak = 0;
  std::vector<NetLoopStats> loops;
};

class NetServer {
 public:
  NetServer(SessionManager* manager, NetServerOptions options = {});
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens, and spawns the loop + dispatcher threads.
  Status Start();

  /// Closes the listen socket and every connection, then joins all
  /// threads. Idempotent.
  void Stop();

  /// The bound port (valid after Start()).
  uint16_t port() const { return port_; }

  size_t open_connections() const;
  NetStats GetStats() const;

 private:
  struct Connection {
    uint64_t id = 0;
    int fd = -1;
    size_t loop = 0;
    FrameReader reader;  ///< owned by the event loop thread
    /// The session, owned by whichever dispatcher is processing the
    /// connection (serialized by `scheduled`).
    SessionPtr session;
    std::string peer;  ///< client name from Hello (log/debug)

    std::mutex mu;  ///< guards everything below
    std::deque<Frame> pending;
    bool scheduled = false;  ///< queued for / owned by a dispatcher
    bool closing = false;    ///< no more reads; finalize when unscheduled
    /// Latch: some thread has taken responsibility for finalization
    /// (directly or via the owning dispatcher). `closing` alone is not
    /// enough — FlushLocked sets it on fatal send errors before
    /// BeginClose runs, and the close must still be driven to Finalize.
    bool close_begun = false;
    bool goodbye = false;    ///< close gracefully after flushing
    /// The event loop is in read() on `fd` with `mu` dropped. Finalize
    /// then leaves the fd open and sets `close_pending`; the reader
    /// closes it when it clears `reading`, so no read ever sees a closed
    /// (or reused) descriptor.
    bool reading = false;
    bool close_pending = false;
    std::string outbuf;
    size_t out_off = 0;
    bool want_write = false;  ///< EPOLLOUT armed
  };
  using ConnPtr = std::shared_ptr<Connection>;

  struct Loop {
    int epoll_fd = -1;
    int wake_fd = -1;  ///< eventfd: Stop() and cross-thread nudges
    std::thread thread;
    // Owner-written relaxed atomics (GetStats reads them live).
    std::atomic<uint64_t> wakeups{0};
    std::atomic<uint64_t> accepts{0};
    std::atomic<uint64_t> reads{0};
    std::atomic<uint64_t> flushes{0};
  };

  void LoopMain(size_t index);
  void DispatcherMain();

  void AcceptReady(Loop& loop);
  void ReadReady(const ConnPtr& conn);
  /// Parses every complete frame buffered on `conn` and schedules it.
  void DrainParsed(const ConnPtr& conn);
  /// Runs one dispatcher pass over `conn`'s pending frames.
  void ProcessConnection(const ConnPtr& conn);
  /// Handles one request frame; returns the encoded response ("" when the
  /// connection should drop without answering — injected net.conn.drop).
  std::string HandleFrame(const ConnPtr& conn, const Frame& frame);

  /// Appends `bytes` to the out-buffer and flushes as much as the socket
  /// accepts; arms EPOLLOUT for the rest. Called by dispatchers.
  void SendBytes(const ConnPtr& conn, std::string_view bytes);
  /// Flushes the out-buffer (conn->mu held by caller). True if drained.
  bool FlushLocked(const ConnPtr& conn);
  void UpdateEpollInterest(const ConnPtr& conn, bool want_write);

  /// Marks the connection dead and unregisters it; the session closes
  /// when no dispatcher owns it (immediately, or at pass end).
  void BeginClose(const ConnPtr& conn);
  /// Deregisters and closes conn->fd (conn->mu held, fd open).
  void CloseFdLocked(const ConnPtr& conn);
  /// Releases fd + session + table entry. Called once, by whichever side
  /// (loop or dispatcher) turned off `scheduled` last.
  void Finalize(const ConnPtr& conn);

  void ScheduleDispatch(const ConnPtr& conn);  ///< conn->mu held by caller

  SessionManager* manager_;
  NetServerOptions options_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::vector<std::unique_ptr<Loop>> loops_;
  std::atomic<uint64_t> next_conn_id_{1};
  std::atomic<size_t> next_loop_{0};  ///< round-robin accept assignment

  mutable std::mutex conns_mu_;
  std::unordered_map<uint64_t, ConnPtr> conns_;

  std::mutex dispatch_mu_;
  std::condition_variable dispatch_cv_;
  std::deque<ConnPtr> dispatch_queue_;
  std::vector<std::thread> dispatchers_;

  // Aggregate counters (relaxed; exact enough for stats).
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_closed_{0};
  std::atomic<uint64_t> frames_in_{0};
  std::atomic<uint64_t> frames_out_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> bytes_out_{0};
  std::atomic<uint64_t> busy_frames_{0};
  std::atomic<uint64_t> error_frames_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> partial_writes_{0};
  std::atomic<uint64_t> dispatch_runs_{0};
  std::atomic<uint64_t> injected_accept_drops_{0};
  std::atomic<uint64_t> injected_read_errors_{0};
  std::atomic<uint64_t> injected_conn_drops_{0};
  std::atomic<size_t> peak_connections_{0};
  std::atomic<size_t> pipeline_peak_{0};
};

}  // namespace net
}  // namespace dbps

#endif  // DBPS_NET_NET_SERVER_H_
