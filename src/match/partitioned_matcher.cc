#include "match/partitioned_matcher.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "util/hash.h"
#include "util/logging.h"
#include "value/value.h"

namespace dbps {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// First line on which two canonical dumps differ, for diagnostics.
std::string FirstDiffLine(const std::string& a, const std::string& b) {
  std::istringstream sa(a), sb(b);
  std::string la, lb;
  while (true) {
    const bool ga = static_cast<bool>(std::getline(sa, la));
    const bool gb = static_cast<bool>(std::getline(sb, lb));
    if (!ga && !gb) return "(identical)";
    if (!ga) return "+" + lb;
    if (!gb) return "-" + la;
    if (la != lb) return "-" + la + " / +" + lb;
  }
}

/// Sub-partition of a WME under value-hash splitting: the same RouteMix
/// the relation→partition route uses, over the value hash of the
/// relation's split field.
size_t SubOfWme(const WmePtr& wme, size_t field, size_t num_subs) {
  return RouteMix(ValueHash{}(wme->value(field)), num_subs);
}

}  // namespace

PartitionedMatcher::PartitionedMatcher(Options options)
    : options_(options) {
  DBPS_CHECK(options_.inner != MatcherKind::kNaive)
      << "naive matcher cannot be partitioned (it rematches against "
         "live WM and reads its own conflict set)";
  options_.num_partitions = std::max<size_t>(1, options_.num_partitions);
  options_.split_ways = std::max<size_t>(2, options_.split_ways);
  options_.split_streak = std::max<uint64_t>(1, options_.split_streak);
  partitions_.resize(options_.num_partitions);
  stats_.partitions.resize(options_.num_partitions);
}

PartitionedMatcher::~PartitionedMatcher() {
  // Inner matcher teardown emits deactivations for live tokens; detach
  // the sinks first or they would write into the sibling `events`
  // member, which is destroyed before `matcher` is.
  for (Partition& part : partitions_) {
    for (SubPartition& sub : part.subs) {
      if (sub.matcher != nullptr) {
        sub.matcher->conflict_set().SetEventSink(nullptr);
      }
    }
  }
}

size_t PartitionedMatcher::PartitionOfRelation(SymbolId relation) const {
  return RouteMix(relation, partitions_.size());
}

Status PartitionedMatcher::HomeRules(const RuleSet& rules) {
  for (const RulePtr& rule : rules.rules()) {
    if (rule->conditions().empty()) {
      return Status::InvalidArgument("rule '" + rule->name() +
                                     "' has no conditions");
    }
    const size_t home =
        PartitionOfRelation(rule->conditions().front().relation);
    Partition& part = partitions_[home];
    if (part.rules == nullptr) part.rules = std::make_shared<RuleSet>();
    DBPS_RETURN_NOT_OK(part.rules->Add(rule));
    part.counters.rules++;
    for (const Condition& cond : rule->conditions()) {
      std::vector<uint32_t>& list = consumers_[cond.relation];
      const uint32_t home32 = static_cast<uint32_t>(home);
      if (std::find(list.begin(), list.end(), home32) == list.end()) {
        list.push_back(home32);
      }
    }
  }
  for (auto& [relation, list] : consumers_) {
    std::sort(list.begin(), list.end());
  }
  return Status::OK();
}

void PartitionedMatcher::AnalyzeSplittability(Partition& part) {
  part.split_field.clear();
  part.splittable = false;
  if (part.rules == nullptr || wm_ == nullptr) return;

  const Catalog& catalog = wm_->catalog();
  auto arity_of = [&](SymbolId rel) -> size_t {
    auto schema = catalog.GetRelation(rel);
    return schema.ok() ? (*schema)->arity() : 0;
  };
  // Tries to pin `rel` to split field `f` against the agreed map plus
  // this rule's tentative additions.
  auto assign = [](std::unordered_map<SymbolId, size_t>& tentative,
                   const std::unordered_map<SymbolId, size_t>& agreed,
                   SymbolId rel, size_t f) {
    auto it = agreed.find(rel);
    if (it != agreed.end()) return it->second == f;
    auto [t, inserted] = tentative.emplace(rel, f);
    return inserted || t->second == f;
  };

  std::unordered_map<SymbolId, size_t> field;  // agreed split fields
  for (const RulePtr& rule : part.rules->rules()) {
    const auto& conds = rule->conditions();
    // The first CE anchors routing: it must be positive, and every other
    // CE (positive or negated) must equality-join one of its fields
    // directly, so all of an instantiation's WMEs — and every negated-CE
    // blocker — value-hash to the same sub-partition.
    if (conds.front().negated) return;
    if (conds.size() == 1) continue;  // no cross-CE constraint
    bool rule_ok = false;
    const size_t arity0 = arity_of(conds.front().relation);
    for (size_t f0 = 0; f0 < arity0 && !rule_ok; ++f0) {
      std::unordered_map<SymbolId, size_t> tentative;
      if (!assign(tentative, field, conds.front().relation, f0)) continue;
      bool all = true;
      for (size_t j = 1; j < conds.size() && all; ++j) {
        bool ce_ok = false;
        // Candidate local fields joining CE j to CE 0 on f0, ascending.
        std::vector<size_t> cand;
        for (const JoinTest& test : conds[j].join_tests) {
          if (test.pred == TestPredicate::kEq && test.other_ce == 0 &&
              test.other_field == f0) {
            cand.push_back(test.field);
          }
        }
        std::sort(cand.begin(), cand.end());
        for (size_t fj : cand) {
          if (assign(tentative, field, conds[j].relation, fj)) {
            ce_ok = true;
            break;
          }
        }
        all = ce_ok;
      }
      if (all) {
        field.insert(tentative.begin(), tentative.end());
        rule_ok = true;
      }
    }
    if (!rule_ok) return;
  }
  // Unconstrained consumed relations (single-CE rules): any field
  // partitions their WMEs disjointly; field 0 is the canonical pick.
  for (const RulePtr& rule : part.rules->rules()) {
    for (const Condition& cond : rule->conditions()) {
      if (field.count(cond.relation) != 0) continue;
      if (arity_of(cond.relation) == 0) return;
      field.emplace(cond.relation, 0);
    }
  }
  part.split_field = std::move(field);
  part.splittable = true;
}

Status PartitionedMatcher::BuildPartitionMatchers(const WmSnapshot& snap) {
  for (Partition& part : partitions_) {
    if (part.rules == nullptr) continue;
    part.subs.clear();
    part.subs.resize(1);
    part.subs[0].matcher = CreateMatcher(options_.inner);
    part.subs[0].matcher->conflict_set().SetEventSink(&part.subs[0].events);
    part.counters.subs = 1;
    DBPS_RETURN_NOT_OK(part.subs[0].matcher->InitializeAt(part.rules, snap));
  }
  return Status::OK();
}

Status PartitionedMatcher::Initialize(RuleSetPtr rules,
                                      const WorkingMemory& wm) {
  DBPS_CHECK(!initialized_) << "Initialize called twice";
  initialized_ = true;
  if (rules == nullptr) {
    return Status::InvalidArgument("PartitionedMatcher: null rule set");
  }
  wm_ = &wm;
  DBPS_RETURN_NOT_OK(HomeRules(*rules));
  for (Partition& part : partitions_) AnalyzeSplittability(part);
  // Split rebuilds re-derive fired-but-still-satisfied instantiations;
  // refraction tombstones keep them out of the set.
  if (options_.split_hot) conflict_set_.EnableRefractionMemory(true);

  // The shadow must exist BEFORE the first MergeEvents so initial
  // activations reach the mirror set too.
  if (options_.shadow_check) {
    shadow_ = CreateMatcher(options_.inner);
    DBPS_RETURN_NOT_OK(shadow_->Initialize(rules, wm));
  }

  // Build every non-empty partition's inner matcher at ONE pinned
  // snapshot CSN, capturing initial activations.
  const WmSnapshot snap = wm.SnapshotAt();
  DBPS_RETURN_NOT_OK(BuildPartitionMatchers(snap));
  MergeEvents();

  if (shadow_ != nullptr) CheckShadow("initialize");
  return Status::OK();
}

void PartitionedMatcher::ApplyChange(const WmChange& change) {
  ApplyChanges(std::vector<WmChange>{change});
}

void PartitionedMatcher::ApplyChanges(const std::vector<WmChange>& changes) {
  DBPS_CHECK(initialized_) << "ApplyChanges before Initialize";
  const size_t num_parts = partitions_.size();
  stats_.batches++;

  // Route: split each change into per-(partition, sub) sub-changes,
  // preserving the change's removed/added grouping (and CSN) so every
  // inner matcher sees the serial change stream restricted to its rules
  // and — under value-hash splitting — its key share.
  std::vector<uint64_t> routed(num_parts, 0);
  std::vector<std::vector<WmChange*>> scratch(num_parts);
  for (size_t i = 0; i < num_parts; ++i) {
    scratch[i].resize(std::max<size_t>(1, partitions_[i].subs.size()));
  }
  uint64_t total_routed = 0;
  auto route = [&](const WmChange& change, const WmePtr& wme, bool removed) {
    const auto it = consumers_.find(wme->relation());
    if (it == consumers_.end()) return;  // no rule consumes this relation
    const size_t home = PartitionOfRelation(wme->relation());
    for (const uint32_t consumer : it->second) {
      Partition& part = partitions_[consumer];
      size_t sub_idx = 0;
      if (part.subs.size() > 1) {
        sub_idx = SubOfWme(wme, part.split_field.at(wme->relation()),
                           part.subs.size());
      }
      WmChange*& sub = scratch[consumer][sub_idx];
      if (sub == nullptr) {
        part.subs[sub_idx].queue.emplace_back();
        sub = &part.subs[sub_idx].queue.back();
        sub->csn = change.csn;
      }
      (removed ? sub->removed : sub->added).push_back(wme);
      part.counters.wmes_routed++;
      routed[consumer]++;
      total_routed++;
      if (consumer != home) {
        part.counters.handoffs++;
        stats_.handoffs++;
      }
    }
  };
  for (const WmChange& change : changes) {
    for (auto& per_part : scratch) {
      std::fill(per_part.begin(), per_part.end(), nullptr);
    }
    for (const WmePtr& wme : change.removed) route(change, wme, true);
    for (const WmePtr& wme : change.added) route(change, wme, false);
  }

  if (total_routed > 0) {
    // Skew: the largest single-partition share of this batch's routing.
    uint64_t max_routed = 0;
    for (uint64_t r : routed) max_routed = std::max(max_routed, r);
    const size_t bin = std::min<size_t>(
        9, static_cast<size_t>((10 * max_routed) / total_routed));
    stats_.skew_histogram[bin]++;
    for (size_t i = 0; i < num_parts; ++i) {
      const bool hot =
          static_cast<double>(routed[i]) >=
          options_.split_share * static_cast<double>(total_routed);
      partitions_[i].hot_streak = hot ? partitions_[i].hot_streak + 1 : 0;
    }

    // Propagate: one morsel per non-empty (partition, sub).
    const uint64_t wall_start = NowNs();
    for (Partition& part : partitions_) {
      for (SubPartition& sub : part.subs) {
        if (sub.queue.empty()) continue;
        const uint64_t start = NowNs();
        sub.matcher->ApplyChanges(sub.queue);
        part.counters.propagate_ns += NowNs() - start;
        part.counters.morsels++;
        stats_.morsels++;
      }
    }
    stats_.propagate_wall_ns += NowNs() - wall_start;

    // Canonical merge.
    const uint64_t merge_start = NowNs();
    MergeEvents();
    stats_.merge_ns += NowNs() - merge_start;
  }

  if (shadow_ != nullptr) {
    shadow_->ApplyChanges(changes);
    CheckShadow("batch");
  }

  // Skew adaptation at the quiescent point after this batch's
  // propagation.
  if (total_routed > 0 && options_.split_hot) {
    std::vector<size_t> to_split;
    for (size_t i = 0; i < num_parts; ++i) {
      const Partition& part = partitions_[i];
      if (part.splittable && part.subs.size() == 1 &&
          part.hot_streak >= options_.split_streak) {
        to_split.push_back(i);
      }
    }
    if (!to_split.empty()) {
      // Rebuilds read WM state as of right after this batch's applies:
      // the caller propagates in commit order, so that is the live WM.
      const WmSnapshot at = wm_->SnapshotAt();
      for (size_t i : to_split) {
        const Status status = SplitPartition(i, at);
        DBPS_CHECK(status.ok()) << "hot-partition split failed: "
                                << status.ToString();
      }
      // Rebuild-derived activations are no-ops / refraction-suppressed;
      // replay them through the same canonical merge regardless.
      MergeEvents();
      if (shadow_ != nullptr) CheckShadow("rebuild");
    }
  }
}

Status PartitionedMatcher::SplitPartition(size_t i, const WmSnapshot& snap) {
  Partition& part = partitions_[i];
  const size_t ways = options_.split_ways;

  // Relations this partition consumes, sorted for a deterministic feed.
  std::vector<SymbolId> relations;
  for (const auto& [rel, field] : part.split_field) relations.push_back(rel);
  std::sort(relations.begin(), relations.end());

  // Tear down the unsplit matcher (detached sink: teardown deactivations
  // are state disposal, not conflict-set events).
  for (SubPartition& sub : part.subs) {
    if (sub.matcher != nullptr) {
      sub.matcher->conflict_set().SetEventSink(nullptr);
    }
  }
  part.subs.clear();
  part.subs.resize(ways);
  for (SubPartition& sub : part.subs) {
    sub.schema_wm = wm_->CloneSchemaOnly();
    sub.matcher = CreateMatcher(options_.inner);
    sub.matcher->conflict_set().SetEventSink(&sub.events);
    DBPS_RETURN_NOT_OK(
        sub.matcher->InitializeAt(part.rules, sub.schema_wm->SnapshotAt()));
  }

  // Feed each sub its value-hash share of the snapshot as one add-batch
  // (the AddWme path is exactly the snapshot-init scan path).
  std::vector<WmChange> feed(ways);
  for (WmChange& change : feed) change.csn = snap.csn();
  for (SymbolId rel : relations) {
    const size_t field = part.split_field.at(rel);
    std::vector<WmePtr> wmes = snap.Scan(rel);
    std::sort(wmes.begin(), wmes.end(),
              [](const WmePtr& a, const WmePtr& b) { return a->id() < b->id(); });
    for (WmePtr& wme : wmes) {
      const size_t s = SubOfWme(wme, field, ways);
      feed[s].added.push_back(std::move(wme));
    }
  }
  for (size_t s = 0; s < ways; ++s) {
    if (!feed[s].added.empty()) part.subs[s].matcher->ApplyChange(feed[s]);
  }

  part.counters.subs = ways;
  part.hot_streak = 0;
  stats_.splits++;
  return Status::OK();
}

void PartitionedMatcher::MergeEvents() {
  for (Partition& part : partitions_) {
    for (SubPartition& sub : part.subs) {
      for (ConflictEvent& event : sub.events) {
        if (event.activate) {
          if (shadow_ != nullptr) mirror_.Activate(event.inst);
          conflict_set_.Activate(std::move(event.inst));
        } else {
          if (shadow_ != nullptr) mirror_.Deactivate(event.key);
          conflict_set_.Deactivate(event.key);
        }
      }
      sub.events.clear();
      sub.queue.clear();
    }
  }
  // Mirror per-partition running counters into the stats snapshot.
  for (size_t i = 0; i < partitions_.size(); ++i) {
    stats_.partitions[i] = partitions_[i].counters;
  }
}

void PartitionedMatcher::CheckShadow(const char* where) {
  if (!shadow_status_.ok()) return;  // first divergence is sticky
  const std::string mine = mirror_.CanonicalDump();
  const std::string ref = shadow_->conflict_set().CanonicalDump();
  if (mine == ref) return;
  std::ostringstream msg;
  msg << "partitioned matcher diverged from serial "
      << MatcherKindToString(options_.inner) << " at " << where
      << " (batch " << stats_.batches << "): partitioned="
      << std::count(mine.begin(), mine.end(), '\n') << " insts, serial="
      << std::count(ref.begin(), ref.end(), '\n')
      << " insts, first diff: " << FirstDiffLine(mine, ref);
  shadow_status_ = Status::Internal(msg.str());
}

}  // namespace dbps
