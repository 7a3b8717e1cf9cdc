// The conflict set (the paper's "set of active productions", PA).
//
// Holds the currently satisfied instantiations. Supports the parallel
// engines' claim/unclaim protocol: a claimed instantiation is being
// executed by some worker and is not selectable, but remains subject to
// deactivation if a committing writer invalidates it.
//
// Thread-safe: every operation takes an internal mutex, so workers can
// claim/validate concurrently with the committer's matcher propagation
// without any engine-wide lock. Compound read-modify sequences (e.g.
// "Contains then Claim") are NOT atomic across calls; engines that need
// a stable answer must tolerate the race (a stale claim is detected at
// commit validation).

#ifndef DBPS_MATCH_CONFLICT_SET_H_
#define DBPS_MATCH_CONFLICT_SET_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "match/conflict_resolution.h"
#include "match/instantiation.h"

namespace dbps {

/// One diverted conflict-set mutation (see ConflictSet::SetEventSink):
/// either an activation (inst set) or a deactivation (key set).
struct ConflictEvent {
  bool activate = false;
  InstPtr inst;  // set iff activate
  InstKey key;   // set iff !activate
};

/// \brief The set of active (satisfied) instantiations.
class ConflictSet {
 public:
  /// Activates an instantiation (match phase found it satisfied).
  /// Re-activating an already-active key is a no-op.
  void Activate(InstPtr inst);

  /// Deactivates (LHS no longer satisfied). No-op if absent.
  void Deactivate(const InstKey& key);

  /// Diverts subsequent Activate/Deactivate calls into `events` (appended
  /// in call order) instead of mutating this set; nullptr restores normal
  /// behavior. PartitionedMatcher points each partition-local matcher's
  /// set at a per-partition buffer, then replays the buffers onto the
  /// shared engine-facing set in canonical partition order — replaying an
  /// event stream through Activate/Deactivate reproduces the exact
  /// mutations the recording matcher would have made. While a sink is
  /// installed the set itself never changes, so reads are vacuous.
  void SetEventSink(std::vector<ConflictEvent>* events);

  bool Contains(const InstKey& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    return active_.count(key) != 0;
  }

  /// The active instantiation for `key`, or nullptr. Returned by value:
  /// a pointer into the set would dangle under concurrent deactivation.
  InstPtr Find(const InstKey& key) const;

  /// Selects the dominant unclaimed instantiation under `strategy` and
  /// marks it claimed. Returns nullptr if none is selectable.
  InstPtr Claim(ConflictResolution strategy, Random* rng);

  /// Returns a claimed instantiation to the selectable pool (abort path).
  /// No-op if the key is no longer active (it was invalidated meanwhile).
  void Unclaim(const InstKey& key);

  /// Marks a claimed instantiation as fired: removes it entirely. With
  /// refraction memory enabled, also records a tombstone so a later
  /// re-activation of the same key (e.g. a quiescent-point rebuild of
  /// partition matchers re-deriving a fired-but-still-satisfied
  /// instantiation) is suppressed instead of re-entering the set.
  void MarkFired(const InstKey& key);

  /// Enables refraction tombstones (see MarkFired). Off by default: the
  /// serial matchers never re-derive a fired instantiation, so only the
  /// skew-adaptive partitioned matcher (whose split rebuilds re-scan
  /// state from a snapshot) needs it. A Deactivate erases the
  /// key's tombstone — the LHS ceased to hold, so any later activation
  /// is a genuinely new episode, matching serial negated-CE semantics.
  void EnableRefractionMemory(bool enabled);

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return active_.size();
  }
  size_t num_claimed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return claimed_.size();
  }
  bool empty() const {
    std::lock_guard<std::mutex> lock(mu_);
    return active_.empty();
  }

  /// True iff at least one active instantiation is unclaimed.
  bool HasSelectable() const {
    std::lock_guard<std::mutex> lock(mu_);
    return active_.size() > claimed_.size();
  }

  /// Snapshot of all active instantiations (unspecified order).
  std::vector<InstPtr> Snapshot() const;

  /// Snapshot of only the selectable (unclaimed) instantiations.
  std::vector<InstPtr> SelectableSnapshot() const;

  std::string ToString() const;

  /// Canonical dump: every active instantiation's ToString(), sorted,
  /// one per line — byte-comparable across matcher implementations
  /// regardless of hash-map iteration order. Claim state is deliberately
  /// excluded (claims belong to the engine, not the match phase).
  std::string CanonicalDump() const;

 private:
  struct Entry {
    InstPtr inst;
    uint64_t activation_seq;
  };
  mutable std::mutex mu_;
  std::unordered_map<InstKey, Entry, InstKeyHash> active_;
  std::unordered_set<InstKey, InstKeyHash> claimed_;
  /// Refraction tombstones (EnableRefractionMemory): keys fired but not
  /// yet deactivated; Activate on them is suppressed.
  std::unordered_set<InstKey, InstKeyHash> fired_;
  bool refraction_ = false;
  uint64_t next_seq_ = 0;
  std::vector<ConflictEvent>* sink_ = nullptr;
};

}  // namespace dbps

#endif  // DBPS_MATCH_CONFLICT_SET_H_
