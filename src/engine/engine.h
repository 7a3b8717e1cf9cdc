// Common engine vocabulary: options, statistics, the firing log.
//
// Every engine executes the match–select–execute cycle over a
// WorkingMemory + RuleSet and produces a RunResult whose `log` is the
// committed firing sequence — the string ...p_i p_j p_k... of §3.2. The
// semantics module replays that log against single-thread execution to
// check Definition 3.2 (semantic consistency).

#ifndef DBPS_ENGINE_ENGINE_H_
#define DBPS_ENGINE_ENGINE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "audit/txn_audit.h"
#include "engine/busy_work.h"
#include "match/conflict_resolution.h"
#include "match/instantiation.h"
#include "match/matcher.h"
#include "wm/delta.h"

namespace dbps {

/// \brief Engine lifecycle events, observable via EngineOptions::observer.
/// Callbacks fire on engine threads; for parallel engines, kCommit events
/// are delivered under the commit lock (in commit order), the others
/// concurrently. Keep observers fast and do not call back into the engine.
struct EngineEvent {
  enum class Kind : uint8_t {
    kCommit,    ///< a firing committed
    kAbort,     ///< a firing was rolled back (Rc–Wa victim, deadlock, wound)
    kStale,     ///< a claim was invalidated before execution began
    /// The commit batch that contained the preceding kCommit events is
    /// complete (key/delta null). Parallel engines emit one per executed
    /// sequencer batch; serial engines after every commit (batches of
    /// one). Durability sinks (JournalFeed's group-commit mode) fsync
    /// here — once per batch instead of once per commit — and must do so
    /// before returning, because commit acks are released afterwards.
    kBatchEnd,
  };
  Kind kind;
  const InstKey* key;  ///< the firing's identity (valid during the call)
  /// The committed changes; non-null for kCommit, null otherwise (valid
  /// during the call). Lets observers journal every commit — rule firings
  /// and external client transactions alike — in commit order.
  const Delta* delta = nullptr;
  /// For kCommit: this commit's sequence number (== FiringRecord::seq,
  /// dense from 0). For kBatchEnd: the post-batch sequence high-water —
  /// every commit with seq below it has been delivered.
  uint64_t seq = 0;
  /// For kCommit: the transaction's audit evidence (read/write versions,
  /// CSN, victimization counts — see audit/txn_audit.h). Null when the
  /// engine recorded none; valid only during the call.
  const TxnAudit* audit = nullptr;
};

using EngineObserver = std::function<void(const EngineEvent&)>;

/// \brief Options shared by all engines.
struct EngineOptions {
  ConflictResolution strategy = ConflictResolution::kPriority;
  MatcherKind matcher = MatcherKind::kRete;
  uint64_t seed = 42;            ///< PRNG seed (kRandom strategy, workers)
  uint64_t max_firings = 100000; ///< safety net against non-terminating rules
  bool record_log = true;        ///< keep the commit log (needed for replay)
  bool simulate_cost = true;     ///< honour each rule's :cost microseconds
  /// How :cost occupies a "processor" (see busy_work.h). kSleep simulates
  /// one dedicated processor per worker on any host; kBusySpin burns real
  /// CPU and needs >= num_workers physical cores to show speedup.
  CostModel cost_model = CostModel::kSleep;
  /// Optional lifecycle event sink (see EngineEvent).
  EngineObserver observer;
};

/// \brief One committed firing — or one committed external (client)
/// transaction, whose key carries the kClientRulePrefix and no WMEs.
struct FiringRecord {
  uint64_t seq = 0;       ///< commit order, starting at 0
  InstKey key;            ///< rule + matched WME versions
  Delta delta;            ///< the changes this firing applied
  TxnAudit audit;         ///< read/write evidence (audit/txn_audit.h)
};

/// External transactions appear in the commit log under a pseudo rule name
/// "@client/<session>". '@' cannot start a rule-language identifier, so
/// these never collide with real rules.
inline constexpr const char kClientRulePrefix[] = "@client/";

/// True iff `key` records an external client transaction rather than a
/// production firing.
bool IsClientFiring(const InstKey& key);

/// The log identity of one client session's commits.
InstKey MakeClientKey(const std::string& session_name);

/// \brief Per-partition counters of the partitioned match phase,
/// mirrored from PartitionedMatcher at the end of a parallel run.
struct MatchPartitionCounters {
  uint64_t rules = 0;         ///< rules homed in this partition
  uint64_t morsels = 0;       ///< non-empty sub-batches propagated
  uint64_t wmes_routed = 0;   ///< WME add/remove versions routed here
  uint64_t handoffs = 0;      ///< routed WMEs homed in another partition
  uint64_t propagate_ns = 0;  ///< inner propagation time in this partition
  uint64_t subs = 0;          ///< value-hash sub-partitions (1 = unsplit)
};

/// \brief Aggregate counters of one run.
struct EngineStats {
  uint64_t firings = 0;      ///< committed productions
  uint64_t aborts = 0;       ///< firings rolled back (Rc–Wa rule, deadlock)
  uint64_t deadlocks = 0;    ///< aborts caused by deadlock victimization
  uint64_t stale_skips = 0;  ///< claims invalidated before execution began
  uint64_t rhs_errors = 0;   ///< firings skipped due to RHS evaluation errors
  uint64_t cycles = 0;       ///< production cycles (cycle-structured engines)
  /// External (client session) transactions committed through the engine's
  /// commit path — these interleave with rule firings in the log.
  uint64_t client_commits = 0;
  uint64_t client_aborts = 0;  ///< external transactions rolled back
  // --- Robustness counters (parallel engines) ---------------------------
  /// Failpoint fires observed during the run (process-global delta; see
  /// util/failpoint.h). Zero unless fault injection is armed.
  uint64_t injected_faults = 0;
  /// Claims of an instantiation that had already been aborted at least
  /// once — the retry traffic behind `aborts`.
  uint64_t firing_retries = 0;
  /// Worst per-instantiation consecutive-abort streak seen.
  uint64_t max_abort_streak = 0;
  /// Starving firings escalated to blocking (2PL-style) Rc acquisition.
  uint64_t escalations = 0;
  /// Total worker backoff sleep after aborted firings, microseconds.
  uint64_t backoff_micros = 0;
  /// Exceptions that escaped ProcessFiring (injected or real); each is
  /// contained by the worker's in-flight guard and counted as an abort.
  uint64_t worker_exceptions = 0;
  /// High-water mark of firings simultaneously in their execute phase
  /// (parallel engines only) — the achieved degree of parallelism.
  int peak_parallel_executions = 0;
  // --- Commit sequencer (parallel engines) ------------------------------
  /// Commit tickets issued by the pipelined commit sequencer (every
  /// commit attempt that reached the ordered apply stage).
  uint64_t commit_tickets = 0;
  /// Total time committers spent waiting for their ticket's turn,
  /// microseconds — the pipeline's ordering cost.
  uint64_t sequencer_stall_micros = 0;
  /// Batches executed by the head-of-ticket-order committer (every head
  /// execution counts, including batches of one).
  uint64_t commit_batches = 0;
  /// Commits that rode a multi-commit batch (applied + propagated with at
  /// least one sibling in a single ordered pass).
  uint64_t batched_commits = 0;
  /// Histogram of live commits per executed batch: index i counts batches
  /// that committed i members (index 0: batches whose members all turned
  /// out cancelled/aborted); the last bucket absorbs larger batches.
  std::array<uint64_t, 9> batch_size_histogram{};
  // --- Partitioned match phase (parallel engines, when enabled) ---------
  /// Per-partition match counters, mirrored from the partitioned matcher
  /// at the end of the run (empty when matching ran serial).
  std::vector<MatchPartitionCounters> match_partitions;
  /// Parallel propagation passes (one per non-empty commit batch).
  uint64_t match_batches = 0;
  /// Morsels executed (one per partition touched per batch).
  uint64_t match_morsels = 0;
  /// Routed WME versions consumed by a partition other than the one
  /// homing their relation (rules whose conditions span partitions).
  uint64_t match_handoffs = 0;
  /// Wall time of the partition-by-partition propagate phase,
  /// microseconds.
  uint64_t match_propagate_micros = 0;
  /// Canonical conflict-set merge time on the committer, microseconds.
  uint64_t match_merge_micros = 0;
  /// Per-batch max partition share of routed WMEs, 10% bins (bin 9 = one
  /// partition received ~everything: the skew diagnostic).
  std::array<uint64_t, 10> match_skew_histogram{};
  // --- Skew adaptation (hot-partition splitting) ------------------------
  /// Hot partitions split into value-hash sub-partitions during the run.
  uint64_t match_splits = 0;
  bool halted = false;       ///< a (halt) action committed
  bool hit_max_firings = false;
  double elapsed_seconds = 0.0;

  std::string ToString() const;
};

/// \brief Result of an engine run. `status` is non-OK only for setup or
/// internal failures; rule-level aborts are normal operation and are
/// reported in `stats`.
struct RunResult {
  EngineStats stats;
  std::vector<FiringRecord> log;
};

}  // namespace dbps

#endif  // DBPS_ENGINE_ENGINE_H_
