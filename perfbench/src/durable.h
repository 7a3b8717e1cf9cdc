// What every workload does around its measured phase: load the program
// and database, attach the durable journal, and afterwards recover the
// journal into a fresh working memory, audit it, and (traced runs only)
// replay it layer by layer.

#ifndef PERFBENCH_DURABLE_H_
#define PERFBENCH_DURABLE_H_

#include <sched.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "metrics.h"
#include "rules/rule.h"
#include "server/journal_feed.h"
#include "trace.h"
#include "util/statusor.h"
#include "wm/working_memory.h"

namespace perfbench {

/// The flush policy every workload runs under, stated in the output.
inline constexpr const char kFlushPolicy[] =
    "group commit, real fsync per commit batch, one WAL file per run";

/// A compiled program with its database preloaded.
struct Database {
  std::unique_ptr<dbps::WorkingMemory> wm;
  dbps::RuleSetPtr rules;
  double compile_s = 0;  ///< lang: parse + compile
  double preload_s = 0;  ///< wm: relations + facts
};

/// Parses and compiles `program` and inserts its facts into a fresh
/// working memory — LoadProgram, split at the lang/wm boundary.
dbps::StatusOr<Database> LoadDatabase(const std::string& program,
                                      Tracer* tracer, int64_t parent);

/// Arms `feed` as a group-commit WAL at `path` (truncated). With
/// `checkpoint_every` > 0 the feed also checkpoints `wm` that often.
dbps::Status EnableJournal(dbps::JournalFeed* feed, const std::string& path,
                           size_t checkpoint_every,
                           const dbps::WorkingMemory* wm);

/// Counts the commits of the measured phase and times the journal's
/// batch syncs. The engine observer calls OnCommit and OnBatchSynced
/// (serialized: commits are delivered in commit order); commits() may be
/// read from any thread.
class CommitClock {
 public:
  explicit CommitClock(bool record_gaps) : record_gaps_(record_gaps) {}
  void OnCommit();
  /// The feed's kBatchEnd handling (WAL write + fsync) took `ns`.
  void OnBatchSynced(int64_t ns) { sync_us_.Add(ns * 1e-3); }
  uint64_t commits() const { return commits_.load(std::memory_order_acquire); }
  /// Gaps between consecutive commits, microseconds (record_gaps only).
  const Samples& gaps_us() const { return gaps_us_; }
  const Samples& sync_us() const { return sync_us_; }

 private:
  bool record_gaps_;
  std::atomic<uint64_t> commits_{0};
  int64_t last_ns_ = 0;
  Samples gaps_us_;
  Samples sync_us_;
};

/// Pins the calling thread to one of the CPUs it may use, in turn, and
/// restores its affinity when destroyed. On a shared host each CPU has its
/// own slow stretches, seconds long; repeated single-threaded measurements
/// rotate over the CPUs so that no one CPU's stretch sets their result.
/// Threads started while pinned inherit the pin, so nothing that outlives
/// the rotation may be started under it.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins to the `turn`-th allowed CPU, round robin.
  void PinTo(size_t turn);

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
};

/// Steady-clock nanoseconds (shared time base of CommitClock and loadgen).
int64_t NowNs();

/// Recovery of one journal, repeated into fresh working memories: one
/// untimed warm-up, then `reps` timed recoveries.
struct RecoveryResult {
  double recover_s = 0;  ///< mean RecoveryManager::Recover time
  double recover_min_s = 0, recover_max_s = 0;
  double scan_s = 0;     ///< mean RecoveryManager::Validate time
  uint64_t next_seq = 0;
  uint64_t delta_records = 0;
  bool used_checkpoint = false;
  std::unique_ptr<dbps::WorkingMemory> recovered;  ///< the last rep's WM
  std::string error;  ///< empty when every rep matched `final_dump`
};

RecoveryResult RecoverRepeatedly(const std::string& path,
                                 const dbps::WorkingMemory& initial,
                                 const std::string& final_dump, int reps,
                                 Tracer* tracer, int64_t parent);

/// Journal size accounting: framed bytes (header + payload) of the delta
/// records — one per commit, audit evidence included — and of the
/// checkpoint records, kept apart so that neither hides the other.
struct WalBytes {
  uint64_t delta_bytes = 0;
  uint64_t delta_records = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t checkpoint_records = 0;
};

dbps::StatusOr<WalBytes> MeasureWal(const std::string& path);

/// Per-layer split of the journal, from replaying it outside the engine:
/// lang parse, wm apply and a standalone Rete matcher per record, with
/// ConflictSet::Claim sampled on the standalone conflict set.
struct LayerReplay {
  Samples parse_us;
  Samples apply_us;
  Samples match_us;
  Samples select_us;
  size_t conflict_set_peak = 0;
  double parse_s = 0, apply_s = 0, match_s = 0;
  double checkpoint_restore_ms = 0;  ///< newest checkpoint alone, 0 if none
};

dbps::StatusOr<LayerReplay> ReplayLayers(const std::string& path,
                                         const std::string& work_dir,
                                         const dbps::WorkingMemory& initial,
                                         const dbps::RuleSetPtr& rules,
                                         Tracer* tracer, int64_t parent);

}  // namespace perfbench

#endif  // PERFBENCH_DURABLE_H_
