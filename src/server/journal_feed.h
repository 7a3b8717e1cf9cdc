// JournalFeed: the durability fan-out of the server.
//
// One feed accumulates every committed delta — rule firings and external
// client transactions alike — as journal lines (lang/journal.h format),
// in commit order. Install MakeObserver() as the engine's observer:
// commit events are delivered under the engine's commit lock, so the
// feed's order IS the commit order, and replaying its text against the
// initial working memory reproduces the final database exactly.
//
// Sessions subscribe by keeping a cursor (an index into the line
// sequence) and draining LinesFrom(cursor) — e.g. to ship lines to disk
// or a replica. The feed never drops lines; bound its growth by draining.
//
// Durability / group commit: EnableDurability() turns the feed into the
// engine's write-ahead log. Every kCommit event's line is wrapped in a
// checksummed frame (lang/wal.h: [u32 len][u32 crc32][u64 seq][u8 type]
// [payload]) and written to the log file (or an in-memory simulated
// device when no path is given), then made durable with an fsync; a
// commit is acknowledged to its client (Session::Commit returns) only
// once WaitDurable says its record is durable. The in-memory feed
// (LinesFrom/TextFrom) stays plain text — the frame exists only on disk,
// where recovery (server/recovery.h) needs checksums and sequence numbers
// to tell a crash-torn tail from valid history.
//
// Per-commit mode (group_commit=false) writes and fsyncs each record
// synchronously on the engine's commit stage. Group-commit mode pipelines
// the flush (Aether's flush pipelining): records accumulate across one
// engine commit batch, and the kBatchEnd boundary only hands them, in log
// order, to one flusher thread and returns, so the sequencer's next batch
// never waits for the disk. The flusher writes and fsyncs everything
// handed over so far as one group, with mu_ dropped, and then advances
// durable_seq(). Groups therefore grow with fsync latency; the journal
// payload bytes and order are identical in both modes. Both modes go
// through one write routine, with the same failpoint sites. A failed
// fsync fails the whole group: none of its commits becomes durable,
// WaitDurable reports the failure for every member, and the feed stays
// failed (a write-ahead log with a hole must not ack anything later,
// either). The kRunEnd event blocks until everything handed over is
// durable or the feed has failed, and the destructor drains the same way
// before it joins the flusher.
//
// Engine locks are released before a commit is durable. A client
// transaction that read what an earlier commit wrote therefore waits, at
// its own commit, until every commit before it is durable, even when it
// wrote nothing (Session::Commit).
//
// Checkpoints: EnableCheckpoints() lets the feed write snapshot
// checkpoint records (printer.h CheckpointToSource) into the same log.
// A checkpoint is only rendered at a kBatchEnd boundary, on the engine
// thread — the one point where the working memory is exactly the replay
// of every record already handed over (the engine's head thread has
// applied all earlier commits and released none of the next batch) — so
// the checkpoint's fence seq is precise by construction. The rendered
// record joins the flusher's queue behind that batch's deltas and ahead
// of the next batch's. Request one explicitly (RequestCheckpoint, the
// admin verb) or automatically every checkpoint_every records.

#ifndef DBPS_SERVER_JOURNAL_FEED_H_
#define DBPS_SERVER_JOURNAL_FEED_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "lang/wal.h"
#include "util/status.h"
#include "wm/delta.h"

namespace dbps {

class WorkingMemory;

/// \brief How EnableDurability treats an existing file at `path`.
enum class JournalOpenMode : uint8_t {
  /// Open for append, creating if absent. The default: a restarted
  /// server must extend its journal, not destroy the history recovery
  /// depends on.
  kAppend,
  /// Truncate any existing file (fresh runs, tests, benches).
  kTruncate,
  /// Fail with AlreadyExists if the file exists — for callers that must
  /// never clobber and never silently continue someone else's log.
  kFailIfExists,
};

const char* JournalOpenModeToString(JournalOpenMode mode);

/// \brief How EnableDurability persists the journal.
struct DurabilityOptions {
  /// Log file path. Empty: no real file — writes and fsyncs are simulated
  /// in memory, which keeps the ack protocol and counters exact without
  /// disk I/O (benches, loopback smoke).
  std::string path;
  JournalOpenMode open_mode = JournalOpenMode::kAppend;
  /// Hand each engine commit batch (at kBatchEnd) to the flusher thread,
  /// which fsyncs everything handed over so far as one group, instead of
  /// fsyncing every commit on the commit stage. Requires the observer to
  /// receive kBatchEnd and kRunEnd events (all engines emit them).
  bool group_commit = false;
  /// Added to every (real or simulated) fsync — models device latency so
  /// group-commit amortization is measurable on fast filesystems.
  std::chrono::microseconds simulated_fsync_cost{0};
  /// First commit seq this feed will observe — non-zero after recovery,
  /// when the reopened journal already holds seqs [.., start_seq).
  /// Initializes the durable horizon, so WaitDurable on an already-
  /// recovered seq returns immediately.
  uint64_t start_seq = 0;
  /// Write a checkpoint record automatically once this many delta
  /// records accumulated since the last one (0 = only on request).
  /// Requires EnableCheckpoints.
  size_t checkpoint_every = 0;
};

/// \brief Durability counters (all zero until EnableDurability).
struct DurabilityStats {
  uint64_t fsyncs = 0;          ///< successful fsync calls (real or simulated)
  uint64_t records_synced = 0;  ///< journal records made durable
  uint64_t sync_failures = 0;   ///< failed fsyncs (each fails a whole group)
  uint64_t max_group = 0;       ///< most records covered by one fsync
  uint64_t bytes_written = 0;   ///< framed bytes written to the device
  uint64_t checkpoints_written = 0;  ///< checkpoint records made durable
  /// Checkpoints skipped because the state would not serialize (printer
  /// limits). Nothing reaches the disk, so skipping is safe.
  uint64_t checkpoint_render_failures = 0;
  /// Simulated crashes injected by the server.journal.crash_* failpoints
  /// (the device "died" mid-group; the feed is failed thereafter).
  uint64_t injected_crashes = 0;
  /// Time spent writing and fsyncing the groups that became durable
  /// (including simulated_fsync_cost and injected fsync delays): the
  /// total and the longest group. Mean per fsync = sync_ns / fsyncs.
  uint64_t sync_ns = 0;
  uint64_t max_sync_ns = 0;
  /// Mean records per fsync — the group-commit amortization factor; its
  /// inverse is the bench's fsyncs-per-commit figure.
  double MeanGroup() const {
    return fsyncs == 0 ? 0.0 : static_cast<double>(records_synced) / fsyncs;
  }
};

class JournalFeed {
 public:
  JournalFeed() = default;
  /// Writes every released record (the flusher drains, then is joined)
  /// and closes the log.
  ~JournalFeed();
  JournalFeed(const JournalFeed&) = delete;
  JournalFeed& operator=(const JournalFeed&) = delete;

  /// An engine observer that appends every kCommit delta to this feed and
  /// then forwards the event to `next` (chain a user observer through).
  /// With durability enabled it also writes/fsyncs per the configured
  /// mode: kBatchEnd hands the batch (and any due checkpoint) to the
  /// flusher, and kRunEnd waits until the flusher has made it durable.
  EngineObserver MakeObserver(EngineObserver next = nullptr);

  /// Appends one committed delta as a journal line. Serialization
  /// failures are counted, not propagated (the commit already happened).
  void Append(const Delta& delta);

  size_t size() const;

  /// Lines [cursor, size()). The caller owns and advances its cursor.
  std::vector<std::string> LinesFrom(size_t cursor) const;

  /// Newline-joined text of lines [cursor, size()); TextFrom(0) is the
  /// whole journal, directly replayable via ReplayJournal().
  std::string TextFrom(size_t cursor) const;

  /// Blocks until size() >= target or `timeout` elapses; returns the
  /// current size either way.
  size_t WaitForSize(size_t target, std::chrono::milliseconds timeout) const;

  uint64_t serialize_errors() const;

  // --- Durability / group commit ----------------------------------------

  /// Arms the durability path (before the run starts). Opens
  /// `options.path` when given, honouring options.open_mode (default:
  /// append — restarts extend history). Not idempotent; call once per
  /// feed.
  Status EnableDurability(DurabilityOptions options);

  bool durable_enabled() const;

  /// Blocks until the commit with engine sequence `seq` is fsync-durable,
  /// the feed reports a sync failure, or `timeout` elapses. OK only on
  /// durable; Internal("journal sync failed...") after a failed fsync —
  /// the caller must not acknowledge the commit. With group commit the
  /// verdict comes from the flusher thread, usually shortly after the
  /// engine released the commit.
  Status WaitDurable(uint64_t seq, std::chrono::milliseconds timeout) const;

  /// Engine commit sequences strictly below this are durable.
  uint64_t durable_seq() const;

  DurabilityStats durability() const;

  // --- Checkpoints -------------------------------------------------------

  /// Arms checkpoint capture: `wm` is the engine's working memory (not
  /// owned; must outlive the run). Call before the run, after
  /// EnableDurability. Checkpoints are captured only at batch
  /// boundaries, where `wm` equals the exact replay of the log so far.
  Status EnableCheckpoints(const WorkingMemory* wm);

  /// Schedules a checkpoint at the NEXT commit-batch boundary (the admin
  /// verb). Returns InvalidArgument when durability or checkpoints are
  /// not enabled. The state is rendered on the engine thread and written
  /// like any other record; a request on an idle engine waits for the
  /// next commit.
  Status RequestCheckpoint();

 private:
  /// Appends under mu_ and, when durability is armed, stages the record
  /// for sync; `seq` is the engine commit sequence (dense; equals the
  /// line index plus start_seq for a feed observing from the start).
  /// `audit` (nullable) is the commit's audit evidence; when present the
  /// line carries it as an audit comment (audit/audit_record.h) — the
  /// SAME rendered string goes to lines_ and to the WAL payload, so the
  /// in-memory feed, the disk log, and the offline auditor all see one
  /// representation.
  void AppendLine(const Delta& delta, uint64_t seq, const TxnAudit* audit);

  /// kBatchEnd: moves staged_ onto released_, renders a due checkpoint
  /// at fence `seq` behind it, and lets the flusher (or, per-commit, this
  /// thread) write them.
  void ReleaseBatch(uint64_t seq);

  /// kRunEnd: blocks until every released record is durable or the feed
  /// has failed.
  void Drain();

  /// Takes every released record and writes + fsyncs it as one group,
  /// with mu_ dropped across the device I/O (WriteGroup), then publishes
  /// the verdict: durable_seq_ advances past a fully synced group only;
  /// a failure marks the feed sync-failed for good. Requires mu_ held
  /// via `lock`. A failed feed drops the group unwritten.
  void FlushReleased(std::unique_lock<std::mutex>& lock);

  struct GroupOutcome {
    bool failed = false;
    bool crashed = false;
    uint64_t bytes = 0;
  };

  /// The device I/O of one group, called without mu_. Evaluates every
  /// journal failpoint: fsync_fail (the device fails the flush),
  /// crash_after_write / crash_mid_record (simulated process death:
  /// bytes may reach the file, the ack never happens) and fsync_delay;
  /// then models simulated_fsync_cost.
  GroupOutcome WriteGroup(const std::vector<WalRecord>& group) const;

  /// The group-commit flusher thread: flushes released records until
  /// destruction, draining the queue before it exits.
  void RunFlusher();

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::vector<std::string> lines_;
  uint64_t serialize_errors_ = 0;

  // Durability state (all under mu_).
  bool durable_enabled_ = false;
  DurabilityOptions durable_options_;
  int fd_ = -1;                       ///< -1: simulated device
  std::vector<WalRecord> staged_;     ///< this batch's records
  std::vector<WalRecord> released_;   ///< handed over, in log order
  bool flushing_ = false;             ///< a group is at the device
  std::thread flusher_;               ///< group_commit only
  std::condition_variable flusher_cv_;
  bool flusher_stop_ = false;
  uint64_t durable_seq_ = 0;          ///< commits below this are durable
  bool sync_failed_ = false;          ///< sticky: a group failed or crashed
  DurabilityStats durability_stats_;

  // Checkpoint state.
  const WorkingMemory* checkpoint_wm_ = nullptr;  ///< armed when non-null
  std::atomic<bool> checkpoint_requested_{false};
  uint64_t records_since_checkpoint_ = 0;  ///< under mu_
};

}  // namespace dbps

#endif  // DBPS_SERVER_JOURNAL_FEED_H_
