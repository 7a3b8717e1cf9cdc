// The lock manager (§4.2, §4.3): one lock table behind one mutex.
//
// One manager instance serves one parallel engine run. It implements both
// protocols behind the same interface:
//
//  * kTwoPhase — all conflicts block; strict 2PL (locks released only at
//    Release, i.e. commit/abort time).
//  * kRcRaWa  — Table 4.1: a Wa request is granted even while other
//    transactions hold Rc on the object. The debt is settled at commit:
//    CollectRcVictims() returns every transaction whose outstanding Rc
//    lock conflicts with the committer's Wa set, and the engine aborts
//    (or revalidates) them — the paper's rules (i)/(ii) of §4.3.
//
// Like the paper's, the manager is centralized. One mutex guards the
// whole state: the lock table (object -> txn -> granted mode counts), the
// per-relation summary of tuple-level holds, each transaction's holds and
// aborted/blocking flags, and the waits-for graph. Blocked requests park
// on one condition variable. Marking a transaction aborted and releasing
// locks both happen under the mutex and then notify_all, so a waiter
// that re-checks its predicate under the mutex cannot miss either.
//
// Hierarchy: a tuple-level request also checks the relation-level bucket
// of its relation, and a relation-level request checks the per-relation
// summary of tuple-level holds, so escalated (negation) locks conflict
// correctly with tuple writes and insert intents.
//
// Deadlocks: a waits-for graph is maintained while transactions block;
// under kDetect the requester that would close a cycle is the victim and
// gets kDeadlock. (The non-exclusive Rc lock introduces no new deadlock
// kinds — §4.3 — so this standard scheme suffices for both protocols.)

#ifndef DBPS_LOCK_LOCK_MANAGER_H_
#define DBPS_LOCK_LOCK_MANAGER_H_

#include <array>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "lock/lock_types.h"
#include "util/status.h"

namespace dbps {

/// \brief Observable lock-manager events (used by the figure-4.2 trace
/// bench and by tests).
struct LockEvent {
  enum class Kind : uint8_t {
    kGrant,
    kBlock,     // request found a conflict and is waiting
    kDeadlock,  // requester chosen as deadlock victim
    kAbortMark, // transaction marked aborted (Rc–Wa commit rule)
    kRelease,   // all locks of a transaction released
  };
  Kind kind;
  TxnId txn;
  LockObjectId object;  // meaningless for kRelease
  LockMode mode;        // meaningless for kRelease / kAbortMark
  std::string ToString() const;
};

/// \brief How lock-wait cycles are handled (§4.3: "the deadlock
/// prevention, avoidance, detection or resolution schemes for standard
/// 2-phase locking can be applied to our scheme as well").
enum class DeadlockPolicy : uint8_t {
  /// Detection: maintain the waits-for graph; a requester whose wait
  /// would close a cycle is the victim (gets kDeadlock).
  kDetect = 0,
  /// Avoidance, wound-wait: an older requester wounds (marks aborted)
  /// every younger conflicting holder and then waits; a younger
  /// requester simply waits. Waits only ever target older transactions,
  /// so cycles cannot form.
  kWoundWait = 1,
  /// Prevention, no-wait: any conflict immediately returns kDeadlock
  /// (the engine treats it as an abort-and-retry).
  kNoWait = 2,
};

const char* DeadlockPolicyToString(DeadlockPolicy policy);

class LockManager {
 public:
  struct Options {
    LockProtocol protocol = LockProtocol::kRcRaWa;
    DeadlockPolicy deadlock_policy = DeadlockPolicy::kDetect;
    /// Upper bound on a single wait; expiring yields kLockTimeout.
    std::chrono::milliseconds wait_timeout{10000};
    /// Optional event sink. Events are buffered while the manager's
    /// mutex is held and emitted only after it has been dropped, so the
    /// sink may block, take its own locks, and even call back into the
    /// manager. It may be invoked concurrently from different threads;
    /// events of one thread arrive in that thread's order, but there is
    /// no total order across threads. Sinks shared by concurrent
    /// transactions must synchronize internally.
    std::function<void(const LockEvent&)> trace;
  };

  /// Lock-table mutex time. perfbench is its only reader.
  struct ShardStats {
    /// Total mutex hold time of non-blocking acquires, nanoseconds.
    /// (Blocking acquires park on the condvar and are excluded; they are
    /// counted in Stats::blocked instead.)
    uint64_t hold_ns = 0;
  };

  struct Stats {
    uint64_t acquired = 0;
    uint64_t blocked = 0;    // requests that waited at least once
    uint64_t deadlocks = 0;  // kDetect cycles + kNoWait refusals
    uint64_t wounds = 0;     // kWoundWait victims
    uint64_t timeouts = 0;
    uint64_t aborts_marked = 0;
    /// Release calls naming an unknown (never begun or already released)
    /// transaction — tolerated as no-ops but counted, since a nonzero
    /// value usually means a caller double-released.
    uint64_t unknown_releases = 0;
    /// Transactions escalated to blocking (2PL-style) acquisition.
    uint64_t blocking_txns = 0;
    /// Always zero: there is no lock-free grant path. perfbench is the
    /// only reader of these two.
    uint64_t fast_path_grants = 0;
    uint64_t fast_path_cas_retries = 0;
    /// Exactly one entry, for the one lock table. perfbench is its only
    /// reader.
    std::vector<ShardStats> shards;
  };

  explicit LockManager(Options options);

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  LockProtocol protocol() const { return options_.protocol; }

  /// Starts a transaction (one production firing).
  TxnId Begin();

  /// Acquires `mode` on `object` for `txn`; blocks on conflicts.
  /// Returns kDeadlock if the wait would close a waits-for cycle,
  /// kAborted if the transaction was marked aborted (now or while
  /// waiting), kLockTimeout on wait-timeout. Re-acquiring a mode already
  /// held is cheap and always succeeds.
  Status Acquire(TxnId txn, LockObjectId object, LockMode mode);

  /// The Rc–Wa settlement (kRcRaWa commit): every other live transaction
  /// holding an Rc lock that conflicts with `txn`'s Wa set —
  ///   * Rc on the same tuple a Wa names,
  ///   * relation-level Rc in a relation where `txn` holds any Wa
  ///     (tuple write or insert intent),
  ///   * tuple-level Rc in a relation where `txn` holds relation-level Wa.
  /// Under kTwoPhase this is always empty (conflicts blocked earlier).
  /// The result is stable until `txn` releases its Wa locks (Rc-vs-Wa is
  /// incompatible, so no new conflicting Rc can be granted meanwhile).
  std::vector<TxnId> CollectRcVictims(TxnId txn) const;

  /// Marks `txn` aborted: its blocked and future Acquires fail with
  /// kAborted. The engine decides when to actually roll back (discard the
  /// delta) and Release. Safe to call from a trace sink (sinks run
  /// outside the manager's mutex).
  void MarkAborted(TxnId txn);

  bool IsAborted(TxnId txn) const;

  /// Starvation escalation (the progress guarantee behind the Rc/Ra/Wa
  /// scheme's known livelock: an Rc holder can be victimized by
  /// committing writers forever). A blocking transaction acquires and
  /// holds its locks under the kTwoPhase compatibility matrix even when
  /// the manager runs kRcRaWa: a Wa is no longer granted over its Rc (the
  /// writer waits instead), it waits behind outstanding Wa holders, and
  /// CollectRcVictims never names it. Call right after Begin, before the
  /// transaction acquires any lock.
  void SetBlocking(TxnId txn);

  bool IsBlocking(TxnId txn) const;

  /// Releases every lock of `txn` and forgets it. Wakes waiters. Calling
  /// it for an unknown or already-released transaction is a safe no-op
  /// (counted in Stats::unknown_releases).
  void Release(TxnId txn);

  /// True iff `txn` currently holds `mode` on `object` (tests).
  bool Holds(TxnId txn, LockObjectId object, LockMode mode) const;

  /// Number of live (begun, unreleased) transactions.
  size_t live_transactions() const;

  Stats GetStats() const;

 private:
  using ModeCounts = std::array<uint32_t, kNumLockModes>;
  /// Granted mode counts per holding transaction.
  using Holders = std::unordered_map<TxnId, ModeCounts>;

  struct TxnState {
    /// Set by conflicting committers (Rc–Wa rule) and wound-wait; read on
    /// every Acquire and after every wake-up.
    bool aborted = false;
    /// 2PL-style acquisition (starvation escalation); see SetBlocking.
    bool blocking = false;
    std::unordered_map<LockObjectId, ModeCounts, LockObjectIdHash> holds;
  };

  /// Buffers trace events while mu_ is held; flushes to the sink at
  /// destruction, after the caller has dropped mu_. Declare one *before*
  /// the lock guard so it flushes after unlock.
  class TraceBuffer {
   public:
    explicit TraceBuffer(const LockManager* lm) : lm_(lm) {}
    TraceBuffer(const TraceBuffer&) = delete;
    TraceBuffer& operator=(const TraceBuffer&) = delete;
    ~TraceBuffer() {
      for (const LockEvent& event : events_) lm_->options_.trace(event);
    }
    void Add(LockEvent::Kind kind, TxnId txn, const LockObjectId& object,
             LockMode mode) {
      if (lm_->options_.trace) {
        events_.push_back(LockEvent{kind, txn, object, mode});
      }
    }

   private:
    const LockManager* lm_;
    std::vector<LockEvent> events_;
  };

  // Every helper below requires mu_ held.

  /// The live transaction `txn`, or null.
  TxnState* FindTxn(TxnId txn);
  const TxnState* FindTxn(TxnId txn) const;

  /// True iff `txn` is live and escalated to blocking.
  bool IsBlockingTxn(TxnId txn) const;

  /// True iff a (requester holds-conflict holder) pair conflicts, given
  /// the holder's per-mode counts.
  bool ConflictsWithHolder(bool requester_blocking, LockMode mode,
                           TxnId holder, const ModeCounts& counts) const;

  /// Appends every holder in `holders` other than `txn` that conflicts
  /// with (txn, mode).
  void CollectConflicts(const Holders& holders, TxnId txn,
                        bool requester_blocking, LockMode mode,
                        std::vector<TxnId>* out) const;

  /// All transactions (other than `txn`) whose holds conflict with
  /// (object, mode), sorted and unique.
  std::vector<TxnId> FindConflicts(TxnId txn, bool requester_blocking,
                                   const LockObjectId& object,
                                   LockMode mode) const;

  /// True iff adding edge txn -> blockers closes a cycle.
  bool WouldDeadlock(TxnId txn, const std::vector<TxnId>& blockers) const;

  /// Records one more grant of `mode` on `object` to `txn`.
  void Grant(TxnId txn, TxnState* state, const LockObjectId& object,
             LockMode mode);

  /// Marks `state` aborted and wakes every waiter (it may be one of
  /// them). False if `state` is null or already aborted.
  bool MarkAbortedTxn(TxnId txn, TxnState* state, TraceBuffer* events);

  Options options_;

  mutable std::mutex mu_;
  /// Every blocked Acquire parks here.
  std::condition_variable cv_;
  /// The lock table: object -> holders.
  std::unordered_map<LockObjectId, Holders, LockObjectIdHash> buckets_;
  /// Per relation: tuple/insert-level holds summed over the relation, for
  /// relation-level conflict checks and victim sweeps.
  std::unordered_map<SymbolId, Holders> relation_summaries_;
  std::unordered_map<TxnId, TxnState> txns_;
  /// Waits-for edges of currently blocked requesters.
  std::unordered_map<TxnId, std::vector<TxnId>> waits_for_;
  TxnId next_txn_ = 1;
  /// Counters; `shards` is filled in by GetStats.
  Stats stats_;
  uint64_t hold_ns_ = 0;
};

}  // namespace dbps

#endif  // DBPS_LOCK_LOCK_MANAGER_H_
