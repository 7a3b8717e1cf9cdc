// ParallelEngine: the multiple-execution-thread mechanism (§4.2 / §4.3).
//
// Np worker threads each repeatedly claim an active instantiation and run
// it as a transaction against the centralized lock manager:
//
//   1. acquire Rc locks on the matched tuples (+ escalated relation-level
//      Rc for each negated condition element)                [Figure 4.2]
//   2. validate the claim is still active (the match may have been
//      invalidated between selection and lock grant)
//   3. evaluate the RHS into a Delta (pure), acquire Ra/Wa action locks
//   4. busy-spin the rule's synthetic cost
//   5. commit through the pipelined commit sequencer (below)
//
// Under LockProtocol::kTwoPhase the lock manager blocks every conflict,
// so no Rc–Wa victims ever arise (§4.2, Theorem 2). Under kRcRaWa a Wa is
// granted over outstanding Rc locks and the *committer* settles the
// conflict (§4.3): policy kAbort is the paper's rule (ii) — abort every
// conflicting Rc holder — and kRevalidate is the paper's refinement —
// abort only those whose instantiation the commit actually invalidated.
//
// The commit sequencer replaces the old engine-mutex commit. A committer
// (a) takes a ticket (one atomic increment), (b) sweeps the lock table
// for Rc–Wa victims while earlier tickets are still applying — the
// sweep is stable outside any global section because the committer holds
// its Wa locks, so no NEW conflicting Rc can be granted — then (c)
// submits its delta to the sequencer. The committer holding the turn is
// the *head*: it folds its commit together with adjacent already-
// submitted tickets whose write sets are disjoint (and that don't
// victimize each other) and executes them as ONE ordered batch — the
// deltas apply in ticket order, matcher propagation runs once for the
// whole batch, and the log records each commit at its ticket position,
// byte-identical to an unbatched run. Only the head stage is serialized,
// so the committed sequence is still totally ordered — it is the
// execution string the semantics validator replays — while victim
// collection and lock release overlap between commits, and batching
// amortizes the remaining per-commit apply/propagate cost. No engine-wide
// mutex is held anywhere on the commit path; mu_ only guards worker
// scheduling state and is taken briefly for bookkeeping. DESIGN.md §4.1
// has the batching soundness argument.
//
// External transactions (src/server/): when an ExternalSource is attached,
// the engine doubles as a database server — client sessions run
// Begin/Acquire/Commit transactions against the same lock manager and
// commit through the same sequencer, so client writes interleave with
// rule firings in one totally-ordered, replayable log. Under kRcRaWa
// a client writer's commit victimizes rule firings holding conflicting Rc
// locks (the §4.3 conflict), and vice versa. Workers do not declare the
// run finished while the source still has clients attached or a client
// commit is in flight; they sleep until a client commit activates new
// instantiations or the source drains.

#ifndef DBPS_ENGINE_PARALLEL_ENGINE_H_
#define DBPS_ENGINE_PARALLEL_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "engine/engine.h"
#include "lock/lock_manager.h"
#include "rules/rule.h"
#include "util/statusor.h"
#include "wm/working_memory.h"

namespace dbps {

class PartitionedMatcher;

/// \brief How a committer treats transactions holding conflicting Rc
/// locks (kRcRaWa only).
enum class AbortPolicy : uint8_t {
  kAbort,       ///< paper rule (ii): always abort them
  kRevalidate,  ///< abort only if the commit invalidated their match
};

const char* AbortPolicyToString(AbortPolicy policy);

/// \brief A source of external (client) transactions attached to a
/// running ParallelEngine — implemented by server::SessionManager.
///
/// Workers poll Drained() (with the engine mutex held) when deciding
/// whether the run may terminate: while it returns false the engine stays
/// alive waiting for client commits even though the conflict set is
/// empty. Implementations must be lock-free (atomics only) and must not
/// call back into the engine from Drained().
class ExternalSource {
 public:
  virtual ~ExternalSource() = default;

  /// True once no further external transactions can arrive (e.g. the
  /// session manager is closed and every session has disconnected).
  virtual bool Drained() const = 0;
};

struct ParallelEngineOptions {
  EngineOptions base;
  size_t num_workers = 4;  ///< the paper's Np
  /// Most commits the head-of-ticket-order committer may fold into one
  /// ordered batch (apply + matcher propagation amortized across the
  /// batch; the log keeps the per-ticket order either way). 1 disables
  /// batching; clamped to at least 1.
  size_t commit_batch_limit = 8;
  LockProtocol protocol = LockProtocol::kRcRaWa;
  AbortPolicy abort_policy = AbortPolicy::kAbort;
  DeadlockPolicy deadlock_policy = DeadlockPolicy::kDetect;
  /// Escalate a firing's tuple-level Rc locks to one relation-level Rc
  /// when it holds more than this many in a relation (0 = never) — §4.3.
  size_t rc_escalation_threshold = 0;
  std::chrono::milliseconds lock_timeout{10000};
  /// Starvation guarantee: once the SAME instantiation has been aborted
  /// this many times in a row (Rc victimization, deadlock, wound...), its
  /// next attempt acquires locks in blocking (2PL-style) mode, so
  /// committing writers wait behind its Rc instead of victimizing it
  /// again — repeatedly-victimized firings eventually commit. kRcRaWa
  /// only; 0 disables escalation.
  int escalate_after_aborts = 4;
  /// Capped exponential backoff applied by a worker after an aborted
  /// firing, scaled by that instantiation's abort streak (plus jitter).
  std::chrono::microseconds retry_backoff_base{50};
  std::chrono::microseconds retry_backoff_max{20000};
  /// When non-null, Run() keeps serving until the source is drained (and
  /// the conflict set has emptied). Not owned; must outlive Run().
  ExternalSource* external_source = nullptr;
  /// First commit sequence this run assigns. Non-zero after crash
  /// recovery (server/recovery.h): the journal already holds seqs
  /// [0, start_seq), and the restarted engine's commits must extend that
  /// numbering without a gap or overlap.
  uint64_t start_seq = 0;
  /// Relation-hash match partitions (match/partitioned_matcher.h). 0 or 1
  /// = the serial matcher exactly as before; >1 partitions the matcher by
  /// Mix64(relation) % N and propagates each commit batch's delta
  /// partition by partition, inline on the committing thread. Ignored for
  /// kNaive (the oracle stays serial by design).
  size_t num_match_partitions = 0;
  /// Debug/differential aid: shadow every partitioned-matcher batch with
  /// a full serial matcher and fail the run on the first conflict-set
  /// divergence. Expensive; chaos/differential tests only.
  bool match_shadow_check = false;
  // --- Skew adaptation (partitioned matcher only) -----------------------
  /// Split a hot partition's alpha memories by value-hash of the tested
  /// first-CE attribute into `match_split_ways` sub-partitions, each with
  /// its own inner matcher, once its share of routed WMEs stays >=
  /// `match_split_share` for `match_split_streak` consecutive batches.
  /// Canonical (partition, sub-partition, call-order) merge keeps
  /// journals byte-identical. Ignored when matching runs serial.
  bool match_split = false;
  size_t match_split_ways = 4;
  size_t match_split_streak = 4;
  double match_split_share = 0.6;
  /// Emit full audit evidence (`;a(...)`) only on every Nth commit
  /// (0/1 = every commit, the default). Sampled journals stay replayable
  /// and order-checkable; the auditor treats unaudited lines as
  /// order-only evidence and stitches the victim ledger across gaps.
  uint64_t audit_every = 1;
};

class ParallelEngine {
 public:
  ParallelEngine(WorkingMemory* wm, RuleSetPtr rules,
                 ParallelEngineOptions options = {});

  /// Runs to completion (empty conflict set with nothing in flight — and,
  /// with an external source attached, the source drained — halt, or
  /// max_firings) and returns stats plus the committed log.
  StatusOr<RunResult> Run();

  const LockManager::Stats& lock_stats() const { return lock_stats_; }

  /// Transactions still live in the lock manager — 0 after a clean run
  /// (the chaos harness's leak check). 0 before Run().
  size_t live_lock_transactions() const {
    return lock_manager_ == nullptr ? 0
                                    : lock_manager_->live_transactions();
  }

  // --- External transactions (the src/server/ front door) -----------------
  //
  // All of these are thread-safe and may be called from client threads
  // concurrently with Run(). They fail with Unavailable outside the
  // window in which the engine is serving (after Run() set up the lock
  // manager, before the run finished).

  /// True while external transactions are being admitted.
  bool accepting_external() const {
    return accepting_.load(std::memory_order_acquire);
  }

  /// Blocks until the engine accepts external transactions; false on
  /// timeout (e.g. Run() was never called or already finished).
  bool WaitUntilAccepting(std::chrono::milliseconds timeout) const;

  /// Starts an external transaction against the engine's lock manager.
  StatusOr<TxnId> BeginExternal();

  /// Acquires `mode` on `object` for external transaction `txn`; blocks
  /// on conflicts exactly like a rule firing's lock request.
  Status AcquireExternal(TxnId txn, const LockObjectId& object,
                         LockMode mode);

  /// True iff a conflicting commit marked `txn` aborted (Rc–Wa rule).
  bool IsExternalAborted(TxnId txn) const;

  /// Commits `delta` through the commit sequencer: settles Rc–Wa victims
  /// (aborting conflicting rule firings and client readers), applies the
  /// delta atomically in ticket order, propagates it to the matcher,
  /// appends a client-keyed record to the commit log, and releases
  /// `txn`'s locks. `key` must be a client key (MakeClientKey). Returns
  /// the commit seq. On failure no state changed and the caller still
  /// owns the transaction — call AbortExternal. `reads`, when non-null,
  /// is the transaction's observed read set (alive until return); it is
  /// recorded in the commit's TxnAudit for the offline auditor.
  StatusOr<uint64_t> CommitExternal(TxnId txn, const InstKey& key,
                                    const Delta& delta,
                                    const TxnReadSet* reads = nullptr);

  /// Rolls back `txn`: discards nothing (writes were never applied),
  /// releases its locks, counts a client abort.
  void AbortExternal(TxnId txn);

  /// Wakes sleeping workers so they re-check termination — call after the
  /// external source's Drained() may have flipped to true.
  void NotifyExternalActivity();

 private:
  /// RAII containment for one claimed firing: unless dismissed by a
  /// normal completion path, its destructor rolls the transaction back
  /// (release locks, unclaim, decrement in_flight_, notify) — so an
  /// exception or injected failure anywhere inside ProcessFiring can
  /// never leave in_flight_ undecremented and hang Run().
  class FiringGuard {
   public:
    FiringGuard(ParallelEngine* engine, TxnId txn, const InstKey& key)
        : engine_(engine), txn_(txn), key_(key) {}
    FiringGuard(const FiringGuard&) = delete;
    FiringGuard& operator=(const FiringGuard&) = delete;
    ~FiringGuard() {
      if (!dismissed_) engine_->FinishAborted(txn_, key_, /*deadlock=*/false);
    }
    void Dismiss() { dismissed_ = true; }

   private:
    ParallelEngine* engine_;
    TxnId txn_;
    const InstKey& key_;
    bool dismissed_ = false;
  };

  void WorkerLoop(size_t worker_index);
  /// Runs one claimed instantiation as a transaction. Must be called
  /// outside mu_; decrements in_flight_ and notifies before returning
  /// (via its FiringGuard even if it throws). Returns the instantiation's
  /// consecutive-abort streak — 0 for commit/stale/retired, >0 when the
  /// firing was aborted (the caller backs off proportionally before
  /// reclaiming, to break retry storms).
  int ProcessFiring(const InstPtr& inst, Random* rng);

  /// Abort/skip paths; each re-enters mu_, cleans up, and notifies.
  /// FinishAborted returns the instantiation's new abort streak.
  int FinishAborted(TxnId txn, const InstKey& key, bool deadlock);
  void FinishStale(TxnId txn, const InstKey& key);
  void FinishRetired(TxnId txn, const InstKey& key);  // RHS error

  /// One commit submitted to the sequencer: everything the head of the
  /// ticket order needs to apply it on the submitter's behalf, plus the
  /// result fields the head reports back. The submitter stack-allocates
  /// it and blocks inside AwaitTurn until `executed`, so the pointed-to
  /// key/delta stay alive for the executing head.
  struct PendingCommit {
    TxnId txn = 0;
    const InstKey* key = nullptr;
    const Delta* delta = nullptr;
    /// Rc–Wa victims collected pre-turn (while the Wa locks pin them).
    std::vector<TxnId> victims;
    /// Sorted modify/delete WME targets (DeltaWriteSet) — the batch
    /// disjointness check.
    std::vector<WmeId> write_set;
    /// Client-only: what the transaction read (Session's read set), for
    /// the commit's TxnAudit. Null for rule firings (their reads are the
    /// key's matched versions) and for clients that recorded none.
    const TxnReadSet* reads = nullptr;
    bool is_client = false;
    /// The ticket was abandoned (exception before submission): fold
    /// through the pipeline as a no-op.
    bool cancelled = false;
    // --- Filled by the executing head, read after `executed`. ----------
    /// Set under the sequencer mutex by FinishBatch; the happens-before
    /// edge that publishes the result fields below to the submitter.
    bool executed = false;
    /// The commit happened (delta applied + logged). False: the txn was
    /// aborted/skipped — or, for clients, the apply failed (see
    /// apply_status).
    bool committed = false;
    Status apply_status = Status::OK();  ///< client-only apply failure
    uint64_t seq = 0;                    ///< assigned commit sequence
  };

  /// Batching commit sequencer: commit order = ticket order. A committer
  /// takes a ticket with NextTicket() (one relaxed atomic increment),
  /// overlaps its victim sweep with earlier commits still applying, then
  /// submits its PendingCommit to AwaitTurn(). The committer whose ticket
  /// holds the turn becomes the *head*: it gathers its own commit plus up
  /// to `max_batch - 1` already-submitted, contiguous successors whose
  /// write sets are disjoint and that do not victimize each other
  /// (CanFold), executes the whole batch in ticket order, and advances
  /// the turn past it with FinishBatch(). Followers return from
  /// AwaitTurn with their result filled in. Every ticket taken MUST be
  /// submitted exactly once — use SequencedCommit.
  class CommitSequencer {
   public:
    uint64_t NextTicket() {
      return next_.fetch_add(1, std::memory_order_relaxed);
    }
    /// Submits `pending` for `ticket` and blocks. Returns empty when a
    /// prior head executed `pending` (its result fields are valid), or
    /// the batch (front() == pending, ticket order) when this committer
    /// is the head — the caller must execute it and call FinishBatch.
    std::vector<PendingCommit*> AwaitTurn(uint64_t ticket,
                                          PendingCommit* pending,
                                          size_t max_batch,
                                          uint64_t* stall_ns);
    /// Marks every batch member executed and advances the turn past the
    /// batch. The caller must be the head that gathered `batch` at
    /// `ticket`.
    void FinishBatch(uint64_t ticket,
                     const std::vector<PendingCommit*>& batch);
    uint64_t tickets_issued() const {
      return next_.load(std::memory_order_relaxed);
    }

   private:
    /// May `next` join a batch currently holding `batch`? Yes iff its
    /// write set is disjoint from every member's and no victimization
    /// crosses the batch (members must not abort each other mid-batch).
    static bool CanFold(const std::vector<PendingCommit*>& batch,
                        const PendingCommit& next);

    std::atomic<uint64_t> next_{0};
    uint64_t turn_ = 0;  ///< under mu_
    /// Submitted-but-not-executed commits, by ticket; under mu_.
    std::unordered_map<uint64_t, PendingCommit*> submitted_;
    std::mutex mu_;
    std::condition_variable cv_;
  };

  /// RAII for one commit ticket: guarantees the ticket is submitted (and,
  /// if this committer becomes the head, its batch executed and finished)
  /// exactly once on every path — abort, exception, success — so one
  /// failed committer can never stall the pipeline behind it. If Commit()
  /// is never reached, the destructor folds a cancelled no-op through.
  class SequencedCommit {
   public:
    explicit SequencedCommit(ParallelEngine* engine)
        : engine_(engine), ticket_(engine->sequencer_.NextTicket()) {}
    SequencedCommit(const SequencedCommit&) = delete;
    SequencedCommit& operator=(const SequencedCommit&) = delete;
    ~SequencedCommit() {
      if (submitted_) return;
      PendingCommit cancelled;
      cancelled.cancelled = true;
      Commit(&cancelled);
    }
    /// Runs the submit → (execute batch, if head) → finish protocol for
    /// `pending`; on return pending->executed is true and its result
    /// fields are valid. Call at most once.
    void Commit(PendingCommit* pending);

   private:
    ParallelEngine* engine_;
    uint64_t ticket_;
    bool submitted_ = false;
  };

  /// Applies a gathered batch in ticket order: per-member abort checks,
  /// WM applies, one matcher propagation pass (Matcher::ApplyChanges),
  /// victim settlement, and log/observer emission — producing exactly the
  /// log bytes a batch-of-one pipeline would. Only the head of the ticket
  /// order runs this, one head at a time, so it owns commit_seq_/log_.
  void ExecuteBatch(const std::vector<PendingCommit*>& batch);

  /// The §4.3 commit-time settlement, shared by rule and client commits:
  /// marks aborted every still-live transaction in `victims` (under
  /// kRevalidate, rule firings whose match survived — instantiation still
  /// active and every matched version still current at a pinned post-
  /// commit snapshot — are spared; client readers cannot be revalidated
  /// and are always aborted). `victims` must have been collected while
  /// `committer` held its Wa locks: Rc–Wa incompatibility then guarantees
  /// the sweep is stable with no global section. Runs in the ordered
  /// commit stage after matcher propagation; takes mu_ only briefly for
  /// the txn-key lookup. Returns how many victims were actually marked
  /// aborted (the commit's TxnAudit victim count).
  size_t SettleVictims(TxnId committer, const std::vector<TxnId>& victims);

  WorkingMemory* wm_;
  RuleSetPtr rules_;
  ParallelEngineOptions options_;
  std::unique_ptr<Matcher> matcher_;
  /// Non-null iff matcher_ is a PartitionedMatcher (num_match_partitions
  /// > 1 on a partitionable algorithm); used for stats harvest and the
  /// shadow-check verdict at the end of the run.
  PartitionedMatcher* partitioned_matcher_ = nullptr;
  std::unique_ptr<LockManager> lock_manager_;

  /// Worker-scheduling mutex: guards in_flight_, done_, halted_, stats_,
  /// txn_keys_, abort_streaks_, ext_inflight_. NOT held across the commit
  /// apply stage — commit ordering is the sequencer's job. Lock order:
  /// never wait for a sequencer turn while holding mu_.
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<int> executing_{0};       // firings currently in phase 3/4
  std::atomic<int> peak_executing_{0};  // high-water mark (stats)
  size_t in_flight_ = 0;
  /// External commits past their done_ check but not yet finished; the
  /// run does not terminate while nonzero.
  size_t ext_inflight_ = 0;
  bool done_ = false;
  bool halted_ = false;
  /// Whether external transactions are currently admitted; true from
  /// Run()'s setup until the run finishes.
  std::atomic<bool> accepting_{false};
  EngineStats stats_;
  CommitSequencer sequencer_;
  std::atomic<uint64_t> sequencer_stall_ns_{0};
  /// Batch limit the sequencer folds to: commit_batch_limit, clamped to
  /// at least 1.
  const size_t effective_batch_limit_;
  /// Only the ordered commit stage (one thread at a time, by ticket)
  /// touches these; Run() reads them after the pipeline drains.
  uint64_t commit_seq_ = 0;  ///< total commits (firings + client txns)
  /// Running count of victims charged to LOGGED commits — the ledger the
  /// auditor cross-checks ((vt N) in each record's audit suffix).
  uint64_t victims_total_ = 0;
  std::vector<FiringRecord> log_;
  /// Live transactions' claimed instantiation (for kRevalidate).
  std::unordered_map<TxnId, InstKey> txn_keys_;
  /// Consecutive aborts per instantiation (cleared on commit/stale/
  /// retire) — drives per-firing backoff and blocking escalation.
  std::unordered_map<InstKey, int, InstKeyHash> abort_streaks_;
  std::atomic<uint64_t> backoff_micros_{0};

  LockManager::Stats lock_stats_;
};

}  // namespace dbps

#endif  // DBPS_ENGINE_PARALLEL_ENGINE_H_
