// PartitionedMatcher: delta propagation over relation-hash-partitioned
// match state, made skew-adaptive: hot partitions split their match
// state by value hash. Partitioning is a data-structure choice, not a
// threading one — every partition runs inline on the calling thread;
// the win is smaller per-partition networks and join scans.
//
// Structure
//   * Rules are partitioned by the relation hash of their first condition
//     element: home(rule) = Mix64(first CE's relation) % P. Each partition
//     owns one or more complete, unmodified serial matchers (Rete or
//     TREAT) built over just its rule subset:
//     alpha memories, beta/join state and conflict-set insertion work for
//     those rules live entirely inside the partition.
//   * A WME change is routed to every partition whose rules consume its
//     relation. A rule whose conditions span relations homed in other
//     partitions receives those relations' WMEs as a cross-partition
//     handoff (counted in stats; the join itself still runs entirely
//     partition-locally, against the partition's own alpha memories).
//   * Propagation: each non-empty (partition, sub-partition) routed
//     sub-batch is one morsel, run in canonical order by the inner
//     matcher's ApplyChanges against sub-partition-local state.
//
// Skew adaptation (DESIGN §4.6)
//   * Hot-partition value-hash splitting (`Options::split_hot`): when one
//     partition's share of routed WMEs stays above `split_share` for
//     `split_streak` consecutive batches, and the partition's rule subset
//     is *split-eligible*, its match state is rebuilt as `split_ways`
//     sub-partitions. Eligibility (AnalyzeSplittability): every multi-CE
//     rule's later CEs must carry a direct equality join test against one
//     agreed field f0 of the first CE, inducing one split field per
//     consumed relation that is globally consistent across the
//     partition's rules. Routing then sends each WME to sub-partition
//     Mix64(ValueHash(wme[split_field[rel]])) % S; the join key equality
//     guarantees every instantiation's WMEs (and every negated-CE
//     blocker) land in exactly one sub-partition, so the union over subs
//     equals the unsplit partition's matches. Because the inner Rete
//     joins are linear scans over alpha/beta memories, a split partition
//     does ~S× less join-scan work per routed WME.
//   * Rebuild soundness: a split rebuild at a quiescent point re-derives
//     exactly the instantiations whose LHS holds at the pinned CSN.
//     Replaying those activations into the shared conflict set is a
//     no-op for keys already active; keys that FIRED but still hold
//     would wrongly re-enter, so arming split enables the conflict set's
//     refraction memory (fired tombstones, erased again on Deactivate —
//     see ConflictSet::EnableRefractionMemory).
//
// Canonical merge order / equivalence with the serial matcher
//   Partition-local matchers never mutate a shared conflict set directly:
//   their Activate/Deactivate calls are captured as per-sub-partition
//   event buffers (ConflictSet::SetEventSink) while the morsels run.
//   Afterwards the buffers are replayed onto the shared engine-facing
//   set in canonical (partition ascending, sub-partition ascending,
//   per-sub call order) order. Because the rule partition is disjoint and
//   the value split is disjoint per key, every conflict-set key is
//   produced by exactly one (partition, sub), and that sub emits the
//   key's events in the same relative order as the serial matcher
//   processing the same change stream restricted to its rules and key
//   share; the union therefore reaches the same final set contents as
//   the serial matcher after every batch (time tags in instantiation
//   keys come from the WMEs, not from match order). The differential
//   tests assert byte-identical CanonicalDump()s; the optional shadow
//   check re-asserts it in-process on every batch.
//
// Threading: ApplyChange/ApplyChanges must be called from one thread at
// a time (the engine's commit sequencer stage); the shared conflict_set() remains safe for
// concurrent Claim/Contains from engine workers because all mutation
// happens in the merge phase through the ConflictSet's own mutex.

#ifndef DBPS_MATCH_PARTITIONED_MATCHER_H_
#define DBPS_MATCH_PARTITIONED_MATCHER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "match/matcher.h"

namespace dbps {

class PartitionedMatcher : public Matcher {
 public:
  struct Options {
    /// Number of relation-hash partitions.
    size_t num_partitions = 8;
    /// Inner per-partition algorithm. kNaive is unsupported: the naive
    /// oracle rematches against live WM and reads its own conflict set,
    /// which a partition does not own.
    MatcherKind inner = MatcherKind::kRete;
    /// When set, a full-ruleset serial matcher of the same kind shadows
    /// every Initialize/ApplyChanges call and the merged event stream is
    /// replayed into a mirror set; after every batch the mirror and
    /// shadow conflict sets must dump byte-identically. First mismatch
    /// is sticky in shadow_status(). Differential-test / chaos aid.
    bool shadow_check = false;

    /// Arms hot-partition value-hash splitting (see file comment).
    bool split_hot = false;
    /// Sub-partitions a hot partition splits into (S).
    size_t split_ways = 4;
    /// Partition share of a batch's routed WMEs that counts as hot.
    double split_share = 0.6;
    /// Consecutive hot batches before a split-eligible partition splits.
    uint64_t split_streak = 4;
  };

  struct PartitionCounters {
    uint64_t rules = 0;        ///< rules homed in this partition
    uint64_t subs = 0;         ///< current sub-partitions (1 = unsplit)
    uint64_t morsels = 0;      ///< non-empty sub-batches propagated
    uint64_t wmes_routed = 0;  ///< WME add/remove versions routed here
    uint64_t handoffs = 0;     ///< routed WMEs homed in another partition
    uint64_t propagate_ns = 0; ///< inner ApplyChanges time, this partition
  };

  struct Stats {
    std::vector<PartitionCounters> partitions;
    uint64_t batches = 0;           ///< propagation passes (ApplyChanges calls)
    uint64_t morsels = 0;           ///< total morsels across partitions
    uint64_t handoffs = 0;          ///< total cross-partition handoffs
    uint64_t propagate_wall_ns = 0; ///< wall time of the propagate phase
    uint64_t merge_ns = 0;          ///< canonical merge into the shared set
    uint64_t splits = 0;            ///< hot-partition value-hash splits
    /// Per-batch max partition share of routed WMEs, 10% bins: bin 9 ≈
    /// one partition got everything (skew), bin ~1/P ≈ perfectly spread.
    std::array<uint64_t, 10> skew_histogram{};
  };

  explicit PartitionedMatcher(Options options);
  ~PartitionedMatcher() override;

  Status Initialize(RuleSetPtr rules, const WorkingMemory& wm) override;
  void ApplyChange(const WmChange& change) override;
  void ApplyChanges(const std::vector<WmChange>& changes) override;

  /// Home partition of `relation`: Mix64(relation) % num_partitions.
  size_t PartitionOfRelation(SymbolId relation) const;

  size_t num_partitions() const { return partitions_.size(); }

  /// Current sub-partition count of partition `i` (1 = unsplit).
  size_t num_subpartitions(size_t i) const { return partitions_[i].subs.size(); }

  /// Counters; call between batches (not thread-safe vs ApplyChanges).
  Stats GetStats() const { return stats_; }

  /// OK until the first shadow-check divergence, then the sticky error.
  Status shadow_status() const { return shadow_status_; }

 private:
  struct SubPartition {
    // `events` is the matcher's event sink and must outlive it: matcher
    // teardown deactivates live tokens, which writes into the sink.
    std::vector<ConflictEvent> events;     // captured mutations, call order
    // Schema-only WM husk the matcher was snapshot-initialized against
    // (split rebuilds start empty and are fed their routed share).
    std::unique_ptr<WorkingMemory> schema_wm;
    std::unique_ptr<Matcher> matcher;
    std::vector<WmChange> queue;           // this batch's routed sub-changes
  };

  struct Partition {
    std::shared_ptr<RuleSet> rules;        // subset homed here (may be null)
    std::vector<SubPartition> subs;        // size >= 1 iff rules non-null
    /// Value-split routing field per consumed relation (valid iff
    /// splittable; routing consults it only when subs.size() > 1).
    std::unordered_map<SymbolId, size_t> split_field;
    bool splittable = false;
    uint64_t hot_streak = 0;               // consecutive >=split_share batches
    PartitionCounters counters;
  };

  /// Homes every rule in the partition of its first CE's relation and
  /// builds consumers_.
  Status HomeRules(const RuleSet& rules);

  /// Computes split eligibility + per-relation split fields for `part`
  /// (see file comment for the analysis).
  void AnalyzeSplittability(Partition& part);

  /// Creates every non-empty partition's sub 0 matcher and snapshot-
  /// initializes it at `snap`. Does not merge events.
  Status BuildPartitionMatchers(const WmSnapshot& snap);

  /// Rebuilds partition `i` as split_ways value-hash sub-partitions,
  /// each snapshot-fed its routed share of `snap`. Quiescent point only.
  Status SplitPartition(size_t i, const WmSnapshot& snap);

  /// Replays every sub-partition's event buffer onto the shared set (and
  /// the shadow mirror) in canonical (partition, sub, call) order;
  /// clears buffers and queues.
  void MergeEvents();

  /// Shadow check: compares mirror vs shadow canonical dumps; sticky.
  void CheckShadow(const char* where);

  Options options_;
  std::vector<Partition> partitions_;
  /// relation -> partitions with at least one rule consuming it (sorted).
  std::unordered_map<SymbolId, std::vector<uint32_t>> consumers_;
  Stats stats_;

  const WorkingMemory* wm_ = nullptr; // for self-pinned rebuild snapshots

  std::unique_ptr<Matcher> shadow_;  // full-ruleset serial reference
  ConflictSet mirror_;               // merged events replayed here too
  Status shadow_status_ = Status::OK();
  bool initialized_ = false;
};

}  // namespace dbps

#endif  // DBPS_MATCH_PARTITIONED_MATCHER_H_
