// WorkingMemory: the production system's database.
//
// A catalog of relations, the live WME versions, and optional per-
// attribute hash indexes. Reads take a shared lock; Apply (the commit
// path) takes an exclusive lock, so readers always observe a committed
// snapshot boundary. Engines additionally serialize Apply calls with
// their commit sequencer so commit order is total and replayable.
//
// Versioned snapshot reads: every commit (one Apply call, or one direct
// Insert/Delete) is stamped with a monotonic commit sequence number
// (CSN). Each WME version records the CSN interval [created, deleted) in
// which it was live, and a WmSnapshot pins a CSN and reads the database
// exactly as of that commit — Get/Scan/IsCurrent on a snapshot never
// block behind, and are never torn by, later commits. Matchers and Rc
// revalidation use snapshots so consistency checks need not hold the
// engine's commit sequencer. Dead versions are retained only while some
// live WmSnapshot can still see them; the version chains are pruned as
// snapshots are destroyed (amortized O(1) per dead version).

#ifndef DBPS_WM_WORKING_MEMORY_H_
#define DBPS_WM_WORKING_MEMORY_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/status.h"
#include "util/statusor.h"
#include "wm/delta.h"
#include "wm/schema.h"
#include "wm/wme.h"

namespace dbps {

class WorkingMemory;

/// \brief A consistent read view of WorkingMemory as of one commit.
///
/// Obtained from WorkingMemory::SnapshotAt(); pins its CSN so the WM
/// retains every version the snapshot can see. Reads take the WM's
/// shared (reader) lock only — never any engine commit lock — so they
/// run concurrently with commits and with each other. Move-only; must
/// not outlive the WorkingMemory it came from. A default-constructed
/// snapshot is empty (sees nothing).
class WmSnapshot {
 public:
  WmSnapshot() = default;
  WmSnapshot(WmSnapshot&& other) noexcept;
  WmSnapshot& operator=(WmSnapshot&& other) noexcept;
  WmSnapshot(const WmSnapshot&) = delete;
  WmSnapshot& operator=(const WmSnapshot&) = delete;
  ~WmSnapshot();

  /// The commit sequence number this snapshot reads at.
  uint64_t csn() const { return csn_; }
  bool valid() const { return wm_ != nullptr; }

  /// Schema catalog of the owning WorkingMemory. The schema is immutable
  /// once a program runs, so it is the same at every CSN; exposed here so
  /// matcher workers can enumerate relations without touching the live
  /// database. Requires valid().
  const Catalog& catalog() const;

  /// The version of WME `id` visible at csn(), or nullptr.
  WmePtr Get(WmeId id) const;

  /// True iff WME `id` was live with time tag `tag` at csn().
  bool IsCurrent(WmeId id, TimeTag tag) const;

  /// All WMEs of `relation` live at csn() (unspecified order).
  std::vector<WmePtr> Scan(SymbolId relation) const;

  size_t Count(SymbolId relation) const;

 private:
  friend class WorkingMemory;
  WmSnapshot(const WorkingMemory* wm, uint64_t csn) : wm_(wm), csn_(csn) {}

  const WorkingMemory* wm_ = nullptr;
  uint64_t csn_ = 0;
};

/// \brief The working-memory database.
class WorkingMemory {
 public:
  WorkingMemory() = default;

  WorkingMemory(const WorkingMemory&) = delete;
  WorkingMemory& operator=(const WorkingMemory&) = delete;

  // --- Schema -----------------------------------------------------------

  Status CreateRelation(RelationSchema schema);

  /// Declares relation `name` with attributes (name, type) pairs.
  Status CreateRelation(
      std::string_view name,
      const std::vector<std::pair<std::string, AttrType>>& attrs);

  const Catalog& catalog() const { return catalog_; }

  /// Creates a hash index on (relation, attr); NotFound if either is
  /// unknown. Existing WMEs are indexed immediately.
  Status CreateIndex(SymbolId relation, SymbolId attr);

  // --- Direct mutation (setup / single-thread engine) --------------------

  /// Inserts one tuple; returns the new WME version.
  StatusOr<WmePtr> Insert(SymbolId relation, std::vector<Value> values);

  /// Convenience: relation by name, values as given.
  StatusOr<WmePtr> Insert(std::string_view relation,
                          std::vector<Value> values);

  /// Removes WME `id`; returns the removed version.
  StatusOr<WmePtr> Delete(WmeId id);

  // --- Reads --------------------------------------------------------------

  /// Live version of WME `id`, or nullptr if absent.
  WmePtr Get(WmeId id) const;

  /// True iff WME `id` is live with time tag `tag` (validation check).
  bool IsCurrent(WmeId id, TimeTag tag) const;

  /// All live WMEs of `relation` (unspecified order).
  std::vector<WmePtr> Scan(SymbolId relation) const;

  /// Live WMEs of `relation` whose field `attr_index` equals `v`.
  /// Uses the hash index when one exists, otherwise scans.
  std::vector<WmePtr> Lookup(SymbolId relation, size_t attr_index,
                             const Value& v) const;

  size_t Count(SymbolId relation) const;
  size_t TotalCount() const;

  // --- Versioned snapshot reads -------------------------------------------

  /// Commit sequence number of the last committed change (0 = pristine).
  uint64_t csn() const { return csn_.load(std::memory_order_acquire); }

  /// Pins the current CSN and returns a consistent read view of the
  /// database as of that commit. Dead versions a live snapshot can see
  /// are retained until the snapshot is destroyed. The snapshot must not
  /// outlive this WorkingMemory.
  WmSnapshot SnapshotAt() const;

  /// Dead versions currently retained for snapshot readers (tests /
  /// observability of the pruning horizon).
  size_t retained_versions() const;

  // --- Commit path ---------------------------------------------------------

  /// Applies every operation of `delta` atomically as one commit,
  /// stamping the returned change (and every created/killed version) with
  /// the next CSN. Ids for creates are assigned here, in op order, so
  /// identical deltas applied in identical order always assign identical
  /// ids (replay determinism).
  ///
  /// Fails (with no changes applied) if a modify/delete names a dead WME
  /// or a create violates its schema.
  StatusOr<WmChange> Apply(const Delta& delta);

  /// Deep-copies schema + live WMEs + id/CSN counters (WME versions
  /// shared). Version history and active snapshots are not cloned.
  std::unique_ptr<WorkingMemory> Clone() const;

  /// Copies the schema catalog (and declared index keys) only — no WMEs,
  /// no counters. PartitionedMatcher builds empty sub-partition matchers
  /// against such a husk and then feeds them their value-hash share of
  /// the routed WMEs as ordinary adds.
  std::unique_ptr<WorkingMemory> CloneSchemaOnly() const;

  // --- Recovery (server/recovery.h) ---------------------------------------
  //
  // Journal replay references WMEs by id, so rebuilding state from a
  // checkpoint must reproduce ids and time tags EXACTLY — Insert()'s
  // fresh-id assignment would break every modify/delete that follows the
  // checkpoint. These are setup-time calls (no concurrent readers).

  /// Re-creates one WME with its original identity. Fails if the id is
  /// already live or the tuple violates the relation's schema. Bumps
  /// next_id/next_tag past the restored identity but does not advance the
  /// CSN (the checkpoint's counters arrive via RestoreCounters).
  Status RestoreWme(SymbolId relation, WmeId id, TimeTag tag,
                    std::vector<Value> values);

  /// Overwrites the id/tag/CSN counters with checkpoint metadata so
  /// post-recovery commits continue the original numbering.
  void RestoreCounters(WmeId next_id, TimeTag next_tag, uint64_t csn);

  /// Deletes every live WME without recording version history (recovery
  /// wipes the program's initial facts before loading a checkpoint).
  void ClearForRestore();

  WmeId next_id() const;
  TimeTag next_tag() const;

  std::string ToString() const;

 private:
  friend class WmSnapshot;

  struct IndexKey {
    SymbolId relation;
    size_t field;
    bool operator==(const IndexKey& o) const {
      return relation == o.relation && field == o.field;
    }
  };
  struct IndexKeyHash {
    size_t operator()(const IndexKey& k) const {
      return std::hash<uint64_t>{}((static_cast<uint64_t>(k.relation) << 20) ^
                                   k.field);
    }
  };
  /// Keyed under ValueKeyEq, so a bucket holds every WME operator== may
  /// call equal to its key (Lookup filters it) and NaN keys can be
  /// erased.
  using ValueIndex = std::unordered_map<Value, std::unordered_set<WmeId>,
                                        ValueHash, ValueKeyEq>;

  /// A version that is no longer live, retained for snapshot readers.
  /// Visible to a snapshot at S iff created_csn <= S < deleted_csn.
  struct DeadVersion {
    WmePtr wme;
    uint64_t created_csn;
    uint64_t deleted_csn;
  };

  // All require holding mu_ exclusively.
  StatusOr<WmePtr> InsertLocked(SymbolId relation, std::vector<Value> values,
                                uint64_t csn);
  StatusOr<WmePtr> DeleteLocked(WmeId id, uint64_t csn);
  void IndexAdd(const WmePtr& wme);
  void IndexRemove(const WmePtr& wme);
  /// Moves a dying version into the history chains at `csn`.
  void KillVersionLocked(const WmePtr& wme, uint64_t created_csn,
                         uint64_t csn);
  /// Drops dead versions no live snapshot can see. Requires mu_ held
  /// exclusively; takes snap_mu_ internally (order: mu_ -> snap_mu_).
  void PruneHistoryLocked(uint64_t next_csn);

  /// The version of `id` visible at `csn` (live or dead), or nullptr.
  /// Requires mu_ held (shared suffices).
  WmePtr VisibleVersionLocked(WmeId id, uint64_t csn) const;

  /// Smallest CSN any live snapshot reads at, or `fallback` if none.
  uint64_t SnapshotHorizon(uint64_t fallback) const;

  void RegisterSnapshot(uint64_t csn) const;
  void UnregisterSnapshot(uint64_t csn) const;

  mutable std::shared_mutex mu_;
  Catalog catalog_;
  std::unordered_map<WmeId, WmePtr> live_;
  /// CSN at which the current live version of each WME was created.
  std::unordered_map<WmeId, uint64_t> live_created_csn_;
  std::unordered_map<SymbolId, std::unordered_set<WmeId>> by_relation_;
  std::unordered_map<IndexKey, ValueIndex, IndexKeyHash> indexes_;
  /// Dead version chains (oldest first) per WME id, and the ids with dead
  /// versions per relation — only populated while snapshots are live.
  std::unordered_map<WmeId, std::vector<DeadVersion>> history_;
  std::unordered_map<SymbolId, std::unordered_set<WmeId>> dead_by_relation_;
  /// Dead versions in deletion (CSN) order, for amortized-O(1) pruning.
  std::deque<std::pair<uint64_t, WmeId>> dead_order_;
  WmeId next_id_ = 1;
  TimeTag next_tag_ = 1;
  /// Last committed CSN; written under mu_ exclusive, readable lock-free.
  std::atomic<uint64_t> csn_{0};

  /// Active snapshot CSNs (multiset: snapshots may share a CSN). Guarded
  /// by snap_mu_, never by mu_ — snapshot destruction must not block
  /// behind commits. Lock order: mu_ -> snap_mu_.
  mutable std::mutex snap_mu_;
  mutable std::multiset<uint64_t> active_snapshots_;
};

}  // namespace dbps

#endif  // DBPS_WM_WORKING_MEMORY_H_
