#include "wm/working_memory.h"

#include <algorithm>
#include <sstream>

#include "util/logging.h"
#include "util/string_util.h"

namespace dbps {

namespace {
/// deleted_csn of a version that is still live.
constexpr uint64_t kLiveCsn = ~0ULL;
}  // namespace

// --- WmSnapshot -------------------------------------------------------------

WmSnapshot::WmSnapshot(WmSnapshot&& other) noexcept
    : wm_(other.wm_), csn_(other.csn_) {
  other.wm_ = nullptr;
}

WmSnapshot& WmSnapshot::operator=(WmSnapshot&& other) noexcept {
  if (this != &other) {
    if (wm_ != nullptr) wm_->UnregisterSnapshot(csn_);
    wm_ = other.wm_;
    csn_ = other.csn_;
    other.wm_ = nullptr;
  }
  return *this;
}

WmSnapshot::~WmSnapshot() {
  if (wm_ != nullptr) wm_->UnregisterSnapshot(csn_);
}

const Catalog& WmSnapshot::catalog() const {
  DBPS_CHECK(wm_ != nullptr) << "catalog() on an invalid snapshot";
  return wm_->catalog_;
}

WmePtr WmSnapshot::Get(WmeId id) const {
  if (wm_ == nullptr) return nullptr;
  std::shared_lock lock(wm_->mu_);
  return wm_->VisibleVersionLocked(id, csn_);
}

bool WmSnapshot::IsCurrent(WmeId id, TimeTag tag) const {
  if (wm_ == nullptr) return false;
  std::shared_lock lock(wm_->mu_);
  WmePtr wme = wm_->VisibleVersionLocked(id, csn_);
  return wme != nullptr && wme->tag() == tag;
}

std::vector<WmePtr> WmSnapshot::Scan(SymbolId relation) const {
  std::vector<WmePtr> out;
  if (wm_ == nullptr) return out;
  std::shared_lock lock(wm_->mu_);
  auto live_it = wm_->by_relation_.find(relation);
  if (live_it != wm_->by_relation_.end()) {
    for (WmeId id : live_it->second) {
      WmePtr wme = wm_->VisibleVersionLocked(id, csn_);
      if (wme != nullptr) out.push_back(std::move(wme));
    }
  }
  // Ids with only dead versions left (deleted, or modified after csn_ and
  // no longer live under this relation).
  auto dead_it = wm_->dead_by_relation_.find(relation);
  if (dead_it != wm_->dead_by_relation_.end()) {
    auto live_ids = live_it != wm_->by_relation_.end()
                        ? &live_it->second
                        : nullptr;
    for (WmeId id : dead_it->second) {
      if (live_ids != nullptr && live_ids->count(id) != 0) {
        continue;  // already resolved through the live pass
      }
      WmePtr wme = wm_->VisibleVersionLocked(id, csn_);
      if (wme != nullptr && wme->relation() == relation) {
        out.push_back(std::move(wme));
      }
    }
  }
  return out;
}

size_t WmSnapshot::Count(SymbolId relation) const {
  return Scan(relation).size();
}

// --- WorkingMemory ----------------------------------------------------------

Status WorkingMemory::CreateRelation(RelationSchema schema) {
  std::unique_lock lock(mu_);
  return catalog_.AddRelation(std::move(schema));
}

Status WorkingMemory::CreateRelation(
    std::string_view name,
    const std::vector<std::pair<std::string, AttrType>>& attrs) {
  std::vector<AttrDef> defs;
  defs.reserve(attrs.size());
  for (const auto& [attr_name, type] : attrs) {
    defs.push_back(AttrDef{Sym(attr_name), type});
  }
  return CreateRelation(RelationSchema(Sym(name), std::move(defs)));
}

Status WorkingMemory::CreateIndex(SymbolId relation, SymbolId attr) {
  std::unique_lock lock(mu_);
  DBPS_ASSIGN_OR_RETURN(const RelationSchema* schema,
                        catalog_.GetRelation(relation));
  auto field = schema->AttrIndex(attr);
  if (!field.has_value()) {
    return Status::NotFound("relation '" + SymName(relation) +
                            "' has no attribute '" + SymName(attr) + "'");
  }
  IndexKey key{relation, *field};
  if (indexes_.count(key) != 0) {
    return Status::AlreadyExists("index on " + SymName(relation) + "." +
                                 SymName(attr) + " already exists");
  }
  ValueIndex& index = indexes_[key];
  auto rel_it = by_relation_.find(relation);
  if (rel_it != by_relation_.end()) {
    for (WmeId id : rel_it->second) {
      index[live_.at(id)->value(*field)].insert(id);
    }
  }
  return Status::OK();
}

StatusOr<WmePtr> WorkingMemory::Insert(SymbolId relation,
                                       std::vector<Value> values) {
  std::unique_lock lock(mu_);
  const uint64_t csn = csn_.load(std::memory_order_relaxed) + 1;
  auto wme_or = InsertLocked(relation, std::move(values), csn);
  if (wme_or.ok()) {
    csn_.store(csn, std::memory_order_release);
    PruneHistoryLocked(csn);
  }
  return wme_or;
}

StatusOr<WmePtr> WorkingMemory::Insert(std::string_view relation,
                                       std::vector<Value> values) {
  return Insert(Sym(relation), std::move(values));
}

StatusOr<WmePtr> WorkingMemory::InsertLocked(SymbolId relation,
                                             std::vector<Value> values,
                                             uint64_t csn) {
  DBPS_ASSIGN_OR_RETURN(const RelationSchema* schema,
                        catalog_.GetRelation(relation));
  DBPS_RETURN_NOT_OK(schema->CheckTuple(values));
  auto wme = std::make_shared<const Wme>(next_id_++, next_tag_++, relation,
                                         std::move(values));
  live_.emplace(wme->id(), wme);
  live_created_csn_[wme->id()] = csn;
  by_relation_[relation].insert(wme->id());
  IndexAdd(wme);
  return WmePtr(wme);
}

StatusOr<WmePtr> WorkingMemory::Delete(WmeId id) {
  std::unique_lock lock(mu_);
  const uint64_t csn = csn_.load(std::memory_order_relaxed) + 1;
  auto wme_or = DeleteLocked(id, csn);
  if (wme_or.ok()) {
    csn_.store(csn, std::memory_order_release);
    PruneHistoryLocked(csn);
  }
  return wme_or;
}

StatusOr<WmePtr> WorkingMemory::DeleteLocked(WmeId id, uint64_t csn) {
  auto it = live_.find(id);
  if (it == live_.end()) {
    return Status::NotFound(StringPrintf("WME #%llu is not live",
                                         (unsigned long long)id));
  }
  WmePtr wme = it->second;
  IndexRemove(wme);
  by_relation_[wme->relation()].erase(id);
  live_.erase(it);
  auto created_it = live_created_csn_.find(id);
  const uint64_t created =
      created_it == live_created_csn_.end() ? 0 : created_it->second;
  live_created_csn_.erase(id);
  KillVersionLocked(wme, created, csn);
  return wme;
}

void WorkingMemory::KillVersionLocked(const WmePtr& wme,
                                      uint64_t created_csn, uint64_t csn) {
  // Retain the dying version only if some live snapshot could read it:
  // a snapshot at S sees it iff created_csn <= S < csn.
  const uint64_t horizon = SnapshotHorizon(csn);
  if (horizon >= csn) return;  // no snapshot below csn — nothing to keep
  history_[wme->id()].push_back(DeadVersion{wme, created_csn, csn});
  dead_by_relation_[wme->relation()].insert(wme->id());
  dead_order_.emplace_back(csn, wme->id());
}

void WorkingMemory::PruneHistoryLocked(uint64_t next_csn) {
  const uint64_t horizon = SnapshotHorizon(next_csn);
  while (!dead_order_.empty() && dead_order_.front().first <= horizon) {
    const WmeId id = dead_order_.front().second;
    dead_order_.pop_front();
    auto it = history_.find(id);
    if (it == history_.end()) continue;
    auto& chain = it->second;
    // Chains are in CSN order; invisible versions sit at the front.
    size_t drop = 0;
    while (drop < chain.size() && chain[drop].deleted_csn <= horizon) {
      ++drop;
    }
    if (drop == 0) continue;
    const SymbolId relation = chain.front().wme->relation();
    chain.erase(chain.begin(), chain.begin() + drop);
    if (chain.empty()) {
      history_.erase(it);
      auto dead_it = dead_by_relation_.find(relation);
      if (dead_it != dead_by_relation_.end()) {
        dead_it->second.erase(id);
        if (dead_it->second.empty()) dead_by_relation_.erase(dead_it);
      }
    }
  }
}

WmePtr WorkingMemory::VisibleVersionLocked(WmeId id, uint64_t csn) const {
  auto live_it = live_.find(id);
  if (live_it != live_.end()) {
    auto created_it = live_created_csn_.find(id);
    const uint64_t created =
        created_it == live_created_csn_.end() ? 0 : created_it->second;
    if (created <= csn) return live_it->second;
  }
  auto hist_it = history_.find(id);
  if (hist_it != history_.end()) {
    for (const DeadVersion& version : hist_it->second) {
      if (version.created_csn <= csn && csn < version.deleted_csn) {
        return version.wme;
      }
    }
  }
  return nullptr;
}

uint64_t WorkingMemory::SnapshotHorizon(uint64_t fallback) const {
  std::lock_guard<std::mutex> guard(snap_mu_);
  return active_snapshots_.empty() ? fallback : *active_snapshots_.begin();
}

void WorkingMemory::RegisterSnapshot(uint64_t csn) const {
  std::lock_guard<std::mutex> guard(snap_mu_);
  active_snapshots_.insert(csn);
}

void WorkingMemory::UnregisterSnapshot(uint64_t csn) const {
  std::lock_guard<std::mutex> guard(snap_mu_);
  auto it = active_snapshots_.find(csn);
  DBPS_DCHECK(it != active_snapshots_.end());
  if (it != active_snapshots_.end()) active_snapshots_.erase(it);
}

WmSnapshot WorkingMemory::SnapshotAt() const {
  std::shared_lock lock(mu_);
  const uint64_t csn = csn_.load(std::memory_order_acquire);
  RegisterSnapshot(csn);
  return WmSnapshot(this, csn);
}

size_t WorkingMemory::retained_versions() const {
  std::shared_lock lock(mu_);
  size_t total = 0;
  for (const auto& [id, chain] : history_) total += chain.size();
  return total;
}

WmePtr WorkingMemory::Get(WmeId id) const {
  std::shared_lock lock(mu_);
  auto it = live_.find(id);
  return it == live_.end() ? nullptr : it->second;
}

bool WorkingMemory::IsCurrent(WmeId id, TimeTag tag) const {
  std::shared_lock lock(mu_);
  auto it = live_.find(id);
  return it != live_.end() && it->second->tag() == tag;
}

std::vector<WmePtr> WorkingMemory::Scan(SymbolId relation) const {
  std::shared_lock lock(mu_);
  std::vector<WmePtr> out;
  auto it = by_relation_.find(relation);
  if (it == by_relation_.end()) return out;
  out.reserve(it->second.size());
  for (WmeId id : it->second) out.push_back(live_.at(id));
  return out;
}

std::vector<WmePtr> WorkingMemory::Lookup(SymbolId relation,
                                          size_t attr_index,
                                          const Value& v) const {
  std::shared_lock lock(mu_);
  std::vector<WmePtr> out;
  auto index_it = indexes_.find(IndexKey{relation, attr_index});
  if (index_it != indexes_.end()) {
    auto bucket = index_it->second.find(v);
    if (bucket != index_it->second.end()) {
      out.reserve(bucket->second.size());
      for (WmeId id : bucket->second) {
        const WmePtr& wme = live_.at(id);
        if (wme->value(attr_index) == v) out.push_back(wme);
      }
    }
    return out;
  }
  auto rel_it = by_relation_.find(relation);
  if (rel_it == by_relation_.end()) return out;
  for (WmeId id : rel_it->second) {
    const WmePtr& wme = live_.at(id);
    if (wme->value(attr_index) == v) out.push_back(wme);
  }
  return out;
}

size_t WorkingMemory::Count(SymbolId relation) const {
  std::shared_lock lock(mu_);
  auto it = by_relation_.find(relation);
  return it == by_relation_.end() ? 0 : it->second.size();
}

size_t WorkingMemory::TotalCount() const {
  std::shared_lock lock(mu_);
  return live_.size();
}

StatusOr<WmChange> WorkingMemory::Apply(const Delta& delta) {
  std::unique_lock lock(mu_);

  // Validate first so a failed Apply leaves WM untouched. Creates are
  // schema-checked; modifies/deletes must name WMEs that are live at
  // their point in the op sequence (a delta may delete a WME it just
  // modified, but not vice versa).
  {
    std::unordered_set<WmeId> deleted;
    for (const auto& op : delta.ops()) {
      if (const auto* create = std::get_if<CreateOp>(&op)) {
        DBPS_ASSIGN_OR_RETURN(const RelationSchema* schema,
                              catalog_.GetRelation(create->relation));
        DBPS_RETURN_NOT_OK(schema->CheckTuple(create->values));
      } else if (const auto* modify = std::get_if<ModifyOp>(&op)) {
        auto it = live_.find(modify->id);
        if (it == live_.end() || deleted.count(modify->id) != 0) {
          return Status::NotFound(
              StringPrintf("modify of dead WME #%llu",
                           (unsigned long long)modify->id));
        }
        for (const auto& [field, value] : modify->updates) {
          if (field >= it->second->arity()) {
            return Status::InvalidArgument(StringPrintf(
                "modify of WME #%llu: field %zu out of range",
                (unsigned long long)modify->id, field));
          }
          (void)value;
        }
      } else if (const auto* del = std::get_if<DeleteOp>(&op)) {
        if (live_.count(del->id) == 0 || !deleted.insert(del->id).second) {
          return Status::NotFound(StringPrintf(
              "delete of dead WME #%llu", (unsigned long long)del->id));
        }
      }
    }
  }

  // The whole delta is one commit: every version it creates or kills is
  // stamped with the same CSN.
  const uint64_t csn = csn_.load(std::memory_order_relaxed) + 1;
  WmChange change;
  change.csn = csn;
  for (const auto& op : delta.ops()) {
    if (const auto* create = std::get_if<CreateOp>(&op)) {
      auto wme = std::make_shared<const Wme>(next_id_++, next_tag_++,
                                             create->relation,
                                             create->values);
      live_.emplace(wme->id(), wme);
      live_created_csn_[wme->id()] = csn;
      by_relation_[create->relation].insert(wme->id());
      IndexAdd(wme);
      change.added.push_back(std::move(wme));
    } else if (const auto* modify = std::get_if<ModifyOp>(&op)) {
      WmePtr old = live_.at(modify->id);
      std::vector<Value> values = old->values();
      for (const auto& [field, value] : modify->updates) {
        values[field] = value;
      }
      auto updated = std::make_shared<const Wme>(
          old->id(), next_tag_++, old->relation(), std::move(values));
      IndexRemove(old);
      auto created_it = live_created_csn_.find(old->id());
      const uint64_t old_created =
          created_it == live_created_csn_.end() ? 0 : created_it->second;
      KillVersionLocked(old, old_created, csn);
      live_[old->id()] = updated;
      live_created_csn_[old->id()] = csn;
      IndexAdd(updated);
      change.removed.push_back(std::move(old));
      change.added.push_back(std::move(updated));
    } else if (const auto* del = std::get_if<DeleteOp>(&op)) {
      auto removed = DeleteLocked(del->id, csn);
      DBPS_CHECK(removed.ok());  // validated above
      change.removed.push_back(std::move(removed).ValueOrDie());
    }
  }
  csn_.store(csn, std::memory_order_release);
  PruneHistoryLocked(csn);
  return change;
}

void WorkingMemory::IndexAdd(const WmePtr& wme) {
  if (indexes_.empty()) return;
  for (size_t field = 0; field < wme->arity(); ++field) {
    auto it = indexes_.find(IndexKey{wme->relation(), field});
    if (it != indexes_.end()) {
      it->second[wme->value(field)].insert(wme->id());
    }
  }
}

void WorkingMemory::IndexRemove(const WmePtr& wme) {
  if (indexes_.empty()) return;
  for (size_t field = 0; field < wme->arity(); ++field) {
    auto it = indexes_.find(IndexKey{wme->relation(), field});
    if (it != indexes_.end()) {
      auto bucket = it->second.find(wme->value(field));
      if (bucket != it->second.end()) {
        bucket->second.erase(wme->id());
        if (bucket->second.empty()) it->second.erase(bucket);
      }
    }
  }
}

Status WorkingMemory::RestoreWme(SymbolId relation, WmeId id, TimeTag tag,
                                 std::vector<Value> values) {
  std::unique_lock lock(mu_);
  DBPS_ASSIGN_OR_RETURN(const RelationSchema* schema,
                        catalog_.GetRelation(relation));
  DBPS_RETURN_NOT_OK(schema->CheckTuple(values));
  if (live_.count(id) != 0) {
    return Status::AlreadyExists(StringPrintf(
        "restore of WME #%llu: id already live", (unsigned long long)id));
  }
  auto wme = std::make_shared<const Wme>(id, tag, relation,
                                         std::move(values));
  live_.emplace(id, wme);
  // created_csn 0: visible to every snapshot — recovery runs before any
  // snapshot exists, and the true creation CSN predates the checkpoint.
  live_created_csn_[id] = 0;
  by_relation_[relation].insert(id);
  IndexAdd(wme);
  next_id_ = std::max(next_id_, id + 1);
  next_tag_ = std::max(next_tag_, tag + 1);
  return Status::OK();
}

void WorkingMemory::RestoreCounters(WmeId next_id, TimeTag next_tag,
                                    uint64_t csn) {
  std::unique_lock lock(mu_);
  next_id_ = std::max(next_id_, next_id);
  next_tag_ = std::max(next_tag_, next_tag);
  csn_.store(csn, std::memory_order_release);
}

void WorkingMemory::ClearForRestore() {
  std::unique_lock lock(mu_);
  live_.clear();
  live_created_csn_.clear();
  by_relation_.clear();
  for (auto& [key, index] : indexes_) index.clear();
  history_.clear();
  dead_by_relation_.clear();
  dead_order_.clear();
}

WmeId WorkingMemory::next_id() const {
  std::shared_lock lock(mu_);
  return next_id_;
}

TimeTag WorkingMemory::next_tag() const {
  std::shared_lock lock(mu_);
  return next_tag_;
}

std::unique_ptr<WorkingMemory> WorkingMemory::Clone() const {
  std::shared_lock lock(mu_);
  auto copy = std::make_unique<WorkingMemory>();
  copy->catalog_ = catalog_;
  copy->live_ = live_;
  copy->live_created_csn_ = live_created_csn_;
  copy->by_relation_ = by_relation_;
  copy->indexes_ = indexes_;
  copy->next_id_ = next_id_;
  copy->next_tag_ = next_tag_;
  copy->csn_.store(csn_.load(std::memory_order_acquire),
                   std::memory_order_release);
  return copy;
}

std::unique_ptr<WorkingMemory> WorkingMemory::CloneSchemaOnly() const {
  std::shared_lock lock(mu_);
  auto copy = std::make_unique<WorkingMemory>();
  copy->catalog_ = catalog_;
  for (const auto& [key, index] : indexes_) {
    copy->indexes_.emplace(key, ValueIndex{});
  }
  return copy;
}

std::string WorkingMemory::ToString() const {
  std::shared_lock lock(mu_);
  std::ostringstream out;
  for (SymbolId relation : catalog_.relation_names()) {
    auto it = by_relation_.find(relation);
    size_t count = it == by_relation_.end() ? 0 : it->second.size();
    out << SymName(relation) << " (" << count << "):\n";
    if (it != by_relation_.end()) {
      for (WmeId id : it->second) {
        out << "  " << live_.at(id)->ToString() << "\n";
      }
    }
  }
  return out.str();
}

}  // namespace dbps
