// Match/commit pipelining: a single-threaded propagation stage that
// overlaps batch N's match-network propagation with batch N+1's lock
// acquisition and victim collection.
//
// The commit sequencer already splits a commit into stage A (ordered
// working-memory apply, under the ticket) and stage B (propagation into
// the partitioned matcher, previously inline in ExecuteBatch). Stage B
// is the expensive half and needs nothing from the committing worker
// once the WM deltas and a pinned snapshot exist — so the head hands
// {changes, snapshot} to this pipeline and returns to claiming the next
// firing while the pipeline thread propagates.
//
// Ordering: the queue is FIFO and there is exactly one pipeline thread,
// so batches reach PartitionedMatcher::ApplyChangesAt in commit-ticket
// order — the same total order the inline path used. Canonical merge
// inside the matcher then keeps journals byte-identical to the
// unpipelined run (proved by the differential suite).
//
// Synchronization points (Drain):
//  * before a worker claims the next firing — the conflict set must
//    reflect every committed batch before selection (this is what keeps
//    single-worker journals byte-identical to serial);
//  * before revalidate-mode victim settling — SettleVictims consults
//    matcher-backed state via the conflict set;
//  * at shutdown — Run() drains before harvesting matcher stats.
// Drain time is accounted as stall_ns: time the engine spent waiting on
// propagation it failed to overlap.

#ifndef DBPS_ENGINE_MATCH_PIPELINE_H_
#define DBPS_ENGINE_MATCH_PIPELINE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "match/partitioned_matcher.h"
#include "wm/delta.h"
#include "wm/working_memory.h"

namespace dbps {

class MatchPipeline {
 public:
  struct Stats {
    uint64_t batches = 0;   ///< jobs propagated by the pipeline thread
    uint64_t drains = 0;    ///< Drain() calls that found work in flight
    uint64_t stall_ns = 0;  ///< time Drain() spent blocked
  };

  /// Spawns the propagation thread. `matcher` must outlive the pipeline.
  explicit MatchPipeline(PartitionedMatcher* matcher);

  /// Drains outstanding work, then stops and joins the thread.
  ~MatchPipeline();

  MatchPipeline(const MatchPipeline&) = delete;
  MatchPipeline& operator=(const MatchPipeline&) = delete;

  /// Enqueues one committed batch for propagation. `changes` must be the
  /// caller's own copy (the pipeline consumes it after the caller
  /// returns); `snap` pins the post-apply CSN used for any split
  /// rebuild triggered by this batch. Callers must Submit in
  /// commit-ticket order — FIFO dispatch preserves that order.
  void Submit(std::vector<WmChange> changes, WmSnapshot snap);

  /// Blocks until every submitted batch has finished propagating.
  void Drain();

  /// True when no job is queued or in flight. Callers that also hold
  /// their own scheduling lock use this to skip an expensive Drain().
  bool Idle() const;

  Stats stats() const;

  /// Zeroes the counters (stats windows between engine runs).
  void ResetStats();

 private:
  struct Job {
    std::vector<WmChange> changes;
    WmSnapshot snap;
  };

  void Loop();

  PartitionedMatcher* const matcher_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // signals the pipeline thread
  std::condition_variable idle_cv_;   // signals Drain() waiters
  std::deque<Job> queue_;
  bool busy_ = false;                 // a job is out of the queue, running
  bool stop_ = false;
  Stats stats_;
  std::thread thread_;
};

}  // namespace dbps

#endif  // DBPS_ENGINE_MATCH_PIPELINE_H_
