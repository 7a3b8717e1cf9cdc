#include "server/session.h"

#include <algorithm>
#include <utility>

#include "analysis/lock_sets.h"
#include "server/journal_feed.h"
#include "engine/busy_work.h"
#include "server/session_manager.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "wm/working_memory.h"

namespace dbps {

Session::Session(SessionManager* manager, std::string name, uint64_t id,
                 SessionOptions options)
    : manager_(manager),
      engine_(manager->engine()),
      wm_(manager->wm()),
      name_(std::move(name)),
      id_(id),
      options_(options),
      client_key_(MakeClientKey(name_)),
      rng_(id) {
  DBPS_CHECK(engine_ != nullptr);
}

Session::~Session() { Close(); }

Status Session::Begin() {
  if (!open_) return Status::Unavailable("session is closed");
  if (in_txn_) {
    return Status::InvalidArgument("transaction already open");
  }
  DBPS_RETURN_NOT_OK(
      manager_->txn_gate().Enter(options_.txn_admission_timeout));
  auto txn_or = engine_->BeginExternal();
  if (!txn_or.ok()) {
    manager_->txn_gate().Leave();
    return txn_or.status();
  }
  txn_ = txn_or.ValueOrDie();
  pending_ = Delta();
  read_set_ = TxnReadSet();
  read_set_.snapshot = options_.snapshot_reads;
  if (options_.snapshot_reads) {
    snapshot_ = wm_->SnapshotAt();
    read_set_.read_csn = snapshot_.csn();
  }
  in_txn_ = true;
  ++stats_.begins;
  return Status::OK();
}

StatusOr<std::vector<WmePtr>> Session::Read(std::string_view relation) {
  if (!in_txn_) return Status::InvalidArgument("no open transaction");
  const SymbolId rel = Sym(relation);
  if (!wm_->catalog().HasRelation(rel)) {
    return Status::NotFound("unknown relation '" + std::string(relation) +
                            "'");
  }
  if (options_.snapshot_reads) {
    // Serve from the CSN snapshot pinned at Begin() — no locks, stable
    // across any number of concurrent commit batches.
    std::vector<WmePtr> rows = snapshot_.Scan(rel);
    for (const WmePtr& row : rows) {
      read_set_.reads.emplace_back(row->id(), row->tag());
    }
    ++stats_.reads;
    return rows;
  }
  if (options_.repeatable_reads) {
    Status st = engine_->AcquireExternal(
        txn_, LockObjectId{rel, kRelationLevel}, LockMode::kRc);
    if (!st.ok()) return FailTxn(std::move(st));
  }
  ++stats_.reads;
  std::vector<WmePtr> rows = wm_->Scan(rel);
  if (options_.repeatable_reads) {
    // Rc-protected reads are audit evidence: record the exact versions so
    // the offline auditor can check they were still current at commit.
    for (const WmePtr& row : rows) {
      read_set_.reads.emplace_back(row->id(), row->tag());
    }
  }
  return rows;
}

StatusOr<std::vector<QueryRow>> Session::Query(std::string_view lhs) {
  if (!in_txn_) return Status::InvalidArgument("no open transaction");
  if (options_.snapshot_reads) {
    return Status::InvalidArgument(
        "Query is unavailable in snapshot_reads mode (queries evaluate "
        "against live working memory); use Read");
  }
  if (options_.repeatable_reads) {
    // Lock every relation the query touches before evaluating, so the
    // answer stays valid until commit (or we become a §4.3 victim).
    DBPS_ASSIGN_OR_RETURN(std::vector<SymbolId> relations,
                          QueryRelations(*wm_, lhs));
    for (SymbolId rel : relations) {
      Status st = engine_->AcquireExternal(
          txn_, LockObjectId{rel, kRelationLevel}, LockMode::kRc);
      if (!st.ok()) return FailTxn(std::move(st));
    }
  }
  ++stats_.queries;
  auto rows_or = ExecuteQuery(*wm_, lhs);
  if (rows_or.ok() && options_.repeatable_reads) {
    for (const QueryRow& row : rows_or.ValueOrDie()) {
      for (const WmePtr& wme : row) {
        read_set_.reads.emplace_back(wme->id(), wme->tag());
      }
    }
  }
  return rows_or;
}

Status Session::Write(const Delta& delta) {
  if (!in_txn_) return Status::InvalidArgument("no open transaction");
  auto locks_or = DeltaActionLocks(*wm_, delta, txn_);
  if (!locks_or.ok()) return FailTxn(locks_or.status());
  for (const LockRequest& request : locks_or.ValueOrDie()) {
    Status st = engine_->AcquireExternal(txn_, request.object, request.mode);
    if (!st.ok()) return FailTxn(std::move(st));
  }
  pending_.Append(delta);
  stats_.write_ops += delta.ops().size();
  return Status::OK();
}

StatusOr<uint64_t> Session::Commit() {
  if (!in_txn_) return Status::InvalidArgument("no open transaction");
  // Chaos site: the connection drops mid-transaction, right at commit.
  // Surfaced as kAborted so Perform() treats it as transient.
  if (DBPS_FAILPOINT("server.session.drop")) {
    return FailTxn(Status::Aborted("injected session drop"));
  }
  const bool had_writes = !pending_.empty();
  // Deduplicate the observed versions before handing them to the commit
  // as audit evidence (repeated Reads of the same relation re-observe the
  // same (id, tag) pairs).
  std::sort(read_set_.reads.begin(), read_set_.reads.end());
  read_set_.reads.erase(
      std::unique(read_set_.reads.begin(), read_set_.reads.end()),
      read_set_.reads.end());
  if (!read_set_.snapshot) {
    // Locking reads are valid up to the commit itself; the engine stamps
    // read_csn with the commit CSN. 0 here means "commit-time".
    read_set_.read_csn = 0;
  }
  auto seq_or = engine_->CommitExternal(txn_, client_key_, pending_,
                                        &read_set_);
  if (!seq_or.ok()) return FailTxn(seq_or.status());
  in_txn_ = false;
  txn_ = 0;
  pending_ = Delta();
  snapshot_ = WmSnapshot();
  manager_->txn_gate().Leave();
  ++stats_.commits;
  // Ack-after-fsync: with a durable feed attached, the commit is only
  // acknowledged once its journal record is fsynced (under group commit
  // the feed's flusher thread does that after the engine released us).
  // The commit has applied either way; a failure here means durability —
  // not atomicity — was lost, and the caller must not report the
  // transaction as safely committed.
  //
  // The engine released this transaction's locks before anything was
  // durable, so what it read may come from commits a crash would still
  // lose. A commit without writes therefore waits until every commit
  // ahead of its commit point (seqs below the one it returns) is durable:
  // Aether's rule for early lock release.
  JournalFeed* feed = manager_->options().durable_feed;
  const uint64_t seq = seq_or.ValueOrDie();
  if (feed != nullptr && (had_writes || seq > 0)) {
    Status durable = feed->WaitDurable(
        had_writes ? seq : seq - 1, manager_->options().durable_wait_timeout);
    if (!durable.ok()) {
      ++stats_.durable_ack_failures;
      return durable;
    }
  }
  return seq_or;
}

void Session::Abort() {
  if (!in_txn_) return;
  engine_->AbortExternal(txn_);
  in_txn_ = false;
  txn_ = 0;
  pending_ = Delta();
  snapshot_ = WmSnapshot();
  manager_->txn_gate().Leave();
  ++stats_.aborts;
}

Status Session::Perform(const std::function<Status(Session&)>& body) {
  int streak = 0;
  for (int attempt = 0;; ++attempt) {
    Status st = body(*this);
    // A body that errored out mid-transaction must not leak it into the
    // next attempt (or past Perform).
    if (in_txn_) Abort();
    const bool transient = st.IsAborted() || st.IsDeadlock() ||
                           st.IsLockTimeout() || st.IsResourceExhausted();
    if (st.ok() || !transient || attempt + 1 >= options_.max_txn_retries) {
      return st;
    }
    ++streak;
    ++stats_.retries;
    stats_.max_abort_streak = std::max(stats_.max_abort_streak,
                                       static_cast<uint64_t>(streak));
    // Capped exponential backoff + jitter, mirroring the engine's
    // per-firing retry policy (see ParallelEngineOptions).
    const int shift = std::min(streak, 8);
    const int64_t backoff_us =
        std::min(options_.retry_backoff_base.count() << shift,
                 options_.retry_backoff_max.count()) +
        static_cast<int64_t>(rng_.Uniform(100));
    SleepMicros(backoff_us);
    stats_.backoff_micros += static_cast<uint64_t>(backoff_us);
  }
}

Status Session::FailTxn(Status cause) {
  if (cause.IsAborted()) ++stats_.rc_victim_aborts;
  Abort();
  return cause;
}

void Session::Close() {
  if (!open_) return;
  Abort();
  open_ = false;
  manager_->Disconnect(this);
}

}  // namespace dbps
