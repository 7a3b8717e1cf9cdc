#include "server/session_manager.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace dbps {

SessionManager::SessionManager(const WorkingMemory* wm, ServerOptions options)
    : wm_(wm),
      options_(options),
      txn_gate_(options.max_concurrent_txns) {
  DBPS_CHECK(wm_ != nullptr);
}

SessionManager::~SessionManager() {
  // Not Close(): that would notify the engine, which has stopped by now
  // (it reads this manager as its external source while it runs) and may
  // already be destroyed.
  closed_.store(true, std::memory_order_release);
  // Sessions hold a raw pointer back to the manager; outliving them is
  // the caller's contract (they are shared_ptrs the caller owns).
  DBPS_CHECK_EQ(live_sessions_.load(), 0u)
      << "SessionManager destroyed with live sessions";
}

void SessionManager::BindEngine(ParallelEngine* engine) {
  DBPS_CHECK(engine != nullptr);
  DBPS_CHECK(engine_ == nullptr || engine_ == engine);
  engine_ = engine;
}

StatusOr<SessionPtr> SessionManager::Connect(std::string name) {
  return Connect(std::move(name), options_.session);
}

StatusOr<SessionPtr> SessionManager::Connect(std::string name,
                                             SessionOptions session_options) {
  DBPS_CHECK(engine_ != nullptr) << "BindEngine before Connect";
  if (closed()) return Status::Unavailable("session manager is closed");
  if (!engine_->WaitUntilAccepting(options_.connect_timeout)) {
    return Status::Unavailable("engine is not serving");
  }

  // Admission: atomically reserve a session slot against max_sessions.
  size_t live = live_sessions_.load(std::memory_order_acquire);
  for (;;) {
    if (live >= options_.max_sessions) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.sessions_rejected;
      return Status::ResourceExhausted(
          "server full (" + std::to_string(options_.max_sessions) +
          " sessions)");
    }
    if (live_sessions_.compare_exchange_weak(live, live + 1,
                                             std::memory_order_acq_rel)) {
      break;
    }
  }
  if (closed()) {  // lost the race with Close()
    live_sessions_.fetch_sub(1, std::memory_order_acq_rel);
    return Status::Unavailable("session manager is closed");
  }

  uint64_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_session_id_++;
    ++stats_.sessions_admitted;
    stats_.peak_sessions =
        std::max(stats_.peak_sessions,
                 live_sessions_.load(std::memory_order_acquire));
  }
  return SessionPtr(
      new Session(this, std::move(name), id, session_options));
}

void SessionManager::Close() {
  closed_.store(true, std::memory_order_release);
  // Existing sessions keep transacting (graceful drain) — the txn gate
  // stays open. If no sessions were live the manager is drained right
  // now; wake the engine's sleeping workers so the run can finish.
  if (engine_ != nullptr && Drained()) engine_->NotifyExternalActivity();
}

void SessionManager::Disconnect(Session* session) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const SessionStats& s = session->stats();
    stats_.closed_sessions.begins += s.begins;
    stats_.closed_sessions.commits += s.commits;
    stats_.closed_sessions.aborts += s.aborts;
    stats_.closed_sessions.rc_victim_aborts += s.rc_victim_aborts;
    stats_.closed_sessions.reads += s.reads;
    stats_.closed_sessions.queries += s.queries;
    stats_.closed_sessions.write_ops += s.write_ops;
    stats_.closed_sessions.durable_ack_failures += s.durable_ack_failures;
  }
  live_sessions_.fetch_sub(1, std::memory_order_acq_rel);
  if (Drained()) engine_->NotifyExternalActivity();
}

ServerStats SessionManager::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServerStats out = stats_;
  out.txn_gate = txn_gate_.GetStats();
  return out;
}

}  // namespace dbps
