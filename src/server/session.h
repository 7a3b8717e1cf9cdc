// Session: one external client's handle onto the shared working memory.
//
// A session issues external transactions against a running
// ParallelEngine:
//
//   auto session = manager.Connect("alice").ValueOrDie();
//   DBPS_CHECK_OK(session->Begin());
//   auto rows = session->Read("order");          // relation-level Rc
//   Delta delta;
//   delta.Create(Sym("order"), {...});
//   DBPS_CHECK_OK(session->Write(delta));        // Wa / insert-intent
//   auto seq = session->Commit();                // engine commit path
//
// Locks come from the engine's own Rc/Ra/Wa LockManager, so client
// transactions obey the same protocol as rule firings: under kTwoPhase
// every conflict blocks; under kRcRaWa a client writer is granted Wa over
// outstanding Rc locks and its *commit* aborts the Rc holders — client
// readers and in-flight rule firings alike (the §4.3 conflict). A
// victimized session sees its next operation or Commit fail with
// kAborted; retry the whole transaction.
//
// With SessionOptions::repeatable_reads (default) Read/Query take
// relation-level Rc locks held to commit, giving repeatable reads at the
// price of victimization; without it reads are read-committed snapshots
// and take no locks.
//
// A Session is NOT thread-safe — one session per client thread.
// Server-side concurrency comes from many sessions.

#ifndef DBPS_SERVER_SESSION_H_
#define DBPS_SERVER_SESSION_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "engine/parallel_engine.h"
#include "lang/query.h"
#include "util/random.h"
#include "util/statusor.h"
#include "wm/delta.h"
#include "wm/wme.h"

namespace dbps {

class SessionManager;

/// \brief Per-session behavior knobs (defaults come from ServerOptions).
struct SessionOptions {
  /// Take relation-level Rc locks on Read/Query targets, held to commit.
  bool repeatable_reads = true;
  /// Serve every Read from one CSN snapshot pinned at Begin(): the
  /// session sees a frozen, transaction-consistent state no matter how
  /// many commit batches pass while it is open, and takes NO Rc locks
  /// (so it cannot be victimized by writers — nor are its reads
  /// revalidated; writes it commits are still Wa-locked as usual). The
  /// long-running-analytics read mode CSN snapshots make cheap.
  /// Overrides repeatable_reads for Read(); Query() is rejected in this
  /// mode (queries evaluate against live WM).
  bool snapshot_reads = false;
  /// How long Begin() may wait on the transaction admission gate.
  std::chrono::milliseconds txn_admission_timeout{10000};
  /// Perform(): how many times a transaction body is attempted before its
  /// transient failure (kAborted, kDeadlock, kLockTimeout,
  /// kResourceExhausted) is surfaced to the caller.
  int max_txn_retries = 16;
  /// Perform(): capped exponential backoff between attempts, scaled by
  /// the consecutive-failure streak (plus seeded jitter) — mirrors the
  /// engine's per-firing backoff so client retry storms die out too.
  std::chrono::microseconds retry_backoff_base{100};
  std::chrono::microseconds retry_backoff_max{50000};
};

/// \brief Per-session counters.
struct SessionStats {
  uint64_t begins = 0;
  uint64_t commits = 0;
  uint64_t aborts = 0;
  /// Aborts caused by a conflicting commit victimizing this session's Rc
  /// locks (subset of `aborts`).
  uint64_t rc_victim_aborts = 0;
  uint64_t reads = 0;
  uint64_t queries = 0;
  uint64_t write_ops = 0;  ///< delta operations buffered via Write()
  /// Commits that applied but whose durable (fsync) acknowledgement
  /// failed or timed out — only possible with a durable JournalFeed.
  uint64_t durable_ack_failures = 0;
  // --- Perform() retry loop ---------------------------------------------
  uint64_t retries = 0;           ///< re-attempts after transient failures
  uint64_t max_abort_streak = 0;  ///< worst consecutive-failure streak
  uint64_t backoff_micros = 0;    ///< total backoff sleep between attempts
};

class Session {
 public:
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const std::string& name() const { return name_; }
  uint64_t id() const { return id_; }
  bool in_txn() const { return in_txn_; }
  const SessionStats& stats() const { return stats_; }

  /// Opens a transaction: takes a slot on the manager's transaction
  /// admission gate (backpressure; ResourceExhausted on timeout) and
  /// begins against the engine's lock manager.
  Status Begin();

  /// All live WMEs of `relation` (snapshot). Under repeatable_reads the
  /// relation-level Rc lock is acquired first and held to commit.
  StatusOr<std::vector<WmePtr>> Read(std::string_view relation);

  /// Evaluates a rule-language LHS against working memory. Under
  /// repeatable_reads every relation the query touches is Rc-locked.
  StatusOr<std::vector<QueryRow>> Query(std::string_view lhs);

  /// Buffers `delta` into the transaction's write set after acquiring its
  /// Wa / insert-intent locks. Nothing is applied until Commit(). Fails
  /// (aborting the transaction) if a lock cannot be granted or the delta
  /// names a dead WME.
  Status Write(const Delta& delta);

  /// Commits the buffered write set through the engine's commit path: the
  /// delta is applied atomically, propagated to the matcher, appended to
  /// the replayable log under this session's client key, and Rc-holding
  /// victims are settled. Returns the commit sequence number; a commit
  /// with an empty write set logs nothing and returns the seq the next
  /// logged commit will take. With a durable feed it returns only once
  /// its record is durable, or, for an empty write set, once every commit
  /// before it is. On failure the transaction is aborted.
  StatusOr<uint64_t> Commit();

  /// Rolls back the open transaction (no-op without one).
  void Abort();

  /// Runs `body` as one transaction with bounded retry: on a transient
  /// failure (kAborted — Rc victimization or injected fault — kDeadlock,
  /// kLockTimeout, kResourceExhausted) the open transaction is rolled
  /// back and `body` re-runs after capped exponential backoff with
  /// seeded jitter, up to SessionOptions::max_txn_retries attempts.
  /// Non-transient statuses and exhausted retries surface to the caller;
  /// either way no transaction is left open. `body` should contain the
  /// whole transaction, Begin() through Commit().
  Status Perform(const std::function<Status(Session&)>& body);

  /// Aborts any open transaction and detaches from the manager. Called by
  /// the destructor; idempotent.
  void Close();

 private:
  friend class SessionManager;

  Session(SessionManager* manager, std::string name, uint64_t id,
          SessionOptions options);

  /// Aborts the open transaction because `cause` made it unusable;
  /// classifies victimization and returns `cause`.
  Status FailTxn(Status cause);

  SessionManager* manager_;
  ParallelEngine* engine_;
  const WorkingMemory* wm_;
  std::string name_;
  uint64_t id_;
  SessionOptions options_;
  InstKey client_key_;

  bool open_ = true;
  bool in_txn_ = false;
  TxnId txn_ = 0;
  Delta pending_;
  /// Versions observed by Read/Query this transaction, handed to
  /// CommitExternal as audit evidence (audit/txn_audit.h).
  TxnReadSet read_set_;
  /// Pinned at Begin() when options_.snapshot_reads; released on
  /// Commit/Abort (live snapshots hold back version pruning).
  WmSnapshot snapshot_;
  SessionStats stats_;
  Random rng_;  ///< Perform() backoff jitter (seeded by session id)
};

using SessionPtr = std::shared_ptr<Session>;

}  // namespace dbps

#endif  // DBPS_SERVER_SESSION_H_
