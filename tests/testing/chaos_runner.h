// ChaosRunner: seeded fault-injection trials for the robustness suite.
//
// One trial = one full engine run (rule-only, or multi-user with client
// sessions attached) executed with the failpoint registry armed from a
// deterministic seed (util/failpoint.h, ApplyChaosProfile). After the run
// the trial asserts the paper's safety property survived the faults:
//
//   (a) the run terminated (we only get here if it did; ctest timeouts
//       catch hangs),
//   (b) the committed log replay-validates single-threaded (Definition
//       3.2, extended to external client records),
//   (c) no transaction leaked — live_lock_transactions() == 0, and
//   (d) the replayed database equals the parallel run's final database.
//
// The verdict is a Status: OK, or the first violated check. Failpoints
// are always disarmed before the trial returns (RAII), so trials cannot
// perturb each other or the rest of the test binary.

#ifndef DBPS_TESTS_TESTING_CHAOS_RUNNER_H_
#define DBPS_TESTS_TESTING_CHAOS_RUNNER_H_

#include <cstdint>
#include <string>

#include "dbps.h"

namespace dbps {
namespace testing {

/// Which workload a trial runs under fault injection.
enum class ChaosWorkload : uint8_t {
  kMultiUser,   ///< rule firings + concurrent client sessions (server)
  kRulesOnly,   ///< the logistics program, no external transactions
  /// Clients drive the engine through the socket front-end (src/net/)
  /// with the network chaos profile layered on: dropped connections
  /// mid-commit, injected read errors, one-byte partial writes, delayed
  /// group-commit fsyncs (ApplyNetworkChaosProfile). Clients reconnect
  /// and retry like real ones; the trial then replay-validates.
  kNetwork,
  /// Kill-and-recover: clients commit against a file-backed durable
  /// journal (journal_path) until a seed-chosen crash failpoint
  /// (CrashChaosSites) kills the journal device mid-sync — after all
  /// staged frames landed, or mid-frame (torn tail). The trial then
  /// recovers the journal (server/recovery.h) into a fresh program
  /// working memory and asserts (a) every ACKED client commit survived,
  /// (b) nothing durable was lost (next_seq >= the durable horizon),
  /// (c) the recovered log scans clean, (d) checkpoint-based
  /// recovery equals an independent full replay of the same log, and
  /// (e) the recovered WAL passes the offline consistency audit.
  kCrashRecover,
  /// Hot-key OLTP skew: every client transaction Zipfian-picks an
  /// account (theta 0.99 — roughly half of all draws hit the hottest few
  /// keys), Rc-reads the relation, and increments that account's
  /// balance. Maximum read-write contention on one tuple; the trial
  /// additionally asserts conservation (total balance == committed
  /// increments) on top of replay + audit.
  kZipfian,
  /// Long-running snapshot readers: writer sessions stream increments
  /// while snapshot_reads sessions pin a CSN at Begin and re-Read the
  /// relation across many commit batches, asserting every re-read is
  /// IDENTICAL (same (id, tag) versions); each reader then commits a
  /// summary row so its snapshot evidence lands in the log for the
  /// auditor's visibility-window check.
  kSnapshotScan,
  /// Rule firings and external OLTP in one engine: the logistics program
  /// runs to quiescence while clients hammer a disjoint `ticket`
  /// relation — firing commits and client commits interleave in one
  /// commit order, which the audit checks end to end.
  kMixedOltp,
};

/// DBPS_CHAOS_TRIALS: multiplies every suite's per-combination trial
/// count (default 1; the chaos/audit tiers scale 10-100x for soak runs).
size_t ChaosTrialMultiplier();

/// DBPS_CHAOS_SEED: offsets every trial seed (default 0), so soak runs
/// explore fresh schedules. Failing trials print the effective seed.
uint64_t ChaosSeedBase();

struct ChaosOptions {
  ChaosWorkload workload = ChaosWorkload::kMultiUser;
  LockProtocol protocol = LockProtocol::kRcRaWa;
  AbortPolicy abort_policy = AbortPolicy::kAbort;
  DeadlockPolicy deadlock_policy = DeadlockPolicy::kDetect;
  /// Seeds the failpoint registry AND the engine/workload PRNGs, so a
  /// failing trial reproduces from its printed seed alone.
  uint64_t seed = 1;
  /// Base failpoint probability (see ApplyChaosProfile).
  double fail_rate = 0.05;
  size_t num_workers = 4;
  // Partitioned match phase (0/1 = the serial matcher):
  size_t match_partitions = 0;
  /// Run the serial shadow matcher alongside the partitioned one and
  /// byte-compare conflict-set dumps after every batch — the differential
  /// gate. Any divergence fails the engine run, which fails the trial.
  bool match_shadow_check = false;
  // Skew adaptation + pipelining (partitioned matcher only). The streak
  // knobs below are deliberately aggressive so short chaos trials
  // actually split mid-run.
  bool match_split = false;
  size_t match_split_ways = 3;
  size_t match_split_streak = 2;
  double match_split_share = 0.5;
  /// Sample audit evidence onto every Nth journal line (1 = every line).
  uint64_t audit_every = 1;
  /// Commit-sequencer fold limit (1 disables batching). The chaos
  /// profile stalls the engine.commit.batch_window site and crashes
  /// members at engine.commit.crash_in_batch, so trials with a limit
  /// above 1 exercise partial-batch failure ordering.
  size_t commit_batch_limit = 8;
  // Multi-user workload shape:
  size_t client_sessions = 3;
  uint64_t txns_per_session = 8;
  // kCrashRecover workload shape:
  /// Journal file for the trial (the trial truncates it at start).
  std::string journal_path;
  /// Fsync once per commit batch instead of once per commit.
  bool group_commit = false;
  /// Auto-checkpoint cadence (records); 0 = no checkpoints.
  size_t checkpoint_every = 0;
  // kZipfian / kSnapshotScan workload shape:
  /// Distinct hot-key accounts.
  size_t zipfian_keys = 16;
  /// Zipfian skew parameter (in (0, 1); higher = hotter head).
  double zipfian_theta = 0.99;
  /// kSnapshotScan: long-running snapshot reader sessions (writers come
  /// from client_sessions).
  size_t snapshot_readers = 2;
  /// kSnapshotScan: re-reads each snapshot reader performs per txn.
  size_t snapshot_rereads = 6;
};

struct ChaosReport {
  /// OK iff every check passed; otherwise describes the first violation.
  Status verdict = Status::OK();
  EngineStats stats;
  uint64_t committed_client_txns = 0;
  /// Client transactions whose Perform() exhausted its retry budget —
  /// allowed under faults (bounded retry is the point), but reported.
  uint64_t client_give_ups = 0;
  /// kNetwork only: commits whose connection died before the response —
  /// the client never learned the outcome (ambiguous; allowed).
  uint64_t unknown_outcomes = 0;
  /// kNetwork only: times a client had to re-Connect mid-workload.
  uint64_t reconnects = 0;
  size_t live_transactions = 0;
  // kCrashRecover only:
  /// Client commits acknowledged (fsync-durable) before the crash.
  uint64_t acked_commits = 0;
  /// Crashes the journal failpoints injected (0 if the workload finished
  /// before the armed crash point — still a valid recovery trial).
  uint64_t injected_crashes = 0;
  /// What recovery scanned/truncated/replayed.
  RecoveryStats recovery;
  /// The offline consistency audit of the run's commit log (every
  /// workload; kCrashRecover additionally audits the recovered WAL).
  AuditReport audit;

  std::string ToString() const;
};

class ChaosRunner {
 public:
  /// Runs one seeded trial; never leaves failpoints armed.
  static ChaosReport RunTrial(const ChaosOptions& options);
};

}  // namespace testing
}  // namespace dbps

#endif  // DBPS_TESTS_TESTING_CHAOS_RUNNER_H_
