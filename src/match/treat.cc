#include "match/treat.h"

#include "util/logging.h"

namespace dbps {

Status TreatMatcher::Initialize(RuleSetPtr rules, const WorkingMemory& wm) {
  return InitializeAt(std::move(rules), wm.SnapshotAt());
}

Status TreatMatcher::InitializeAt(RuleSetPtr rules, const WmSnapshot& snap) {
  DBPS_CHECK(rules_ == nullptr) << "Initialize called twice";
  rules_ = std::move(rules);
  for (const auto& rule : rules_->rules()) {
    RuleState state;
    state.rule = rule;
    for (const auto& cond : rule->conditions()) {
      CondMem mem;
      mem.cond = &cond;
      mem.key = FirstEqTest(cond.join_tests);
      if (mem.key < cond.join_tests.size()) {
        mem.index.emplace(cond.join_tests[mem.key].field);
      }
      if (cond.negated) {
        state.negatives.push_back(std::move(mem));
      } else {
        state.positives.push_back(std::move(mem));
      }
    }
    states_.push_back(std::move(state));
  }
  for (SymbolId relation : snap.catalog().relation_names()) {
    for (const WmePtr& wme : snap.Scan(relation)) {
      AddWme(wme);
    }
  }
  return Status::OK();
}

void TreatMatcher::ApplyChange(const WmChange& change) {
  for (const WmePtr& wme : change.removed) RemoveWme(wme);
  for (const WmePtr& wme : change.added) AddWme(wme);
}

void TreatMatcher::ApplyChanges(const std::vector<WmChange>& changes) {
  // All removals, then all additions — see ReteMatcher::ApplyChanges for
  // why this is sound on pairwise-disjoint batches.
  for (const WmChange& change : changes) {
    for (const WmePtr& wme : change.removed) RemoveWme(wme);
  }
  for (const WmChange& change : changes) {
    for (const WmePtr& wme : change.added) AddWme(wme);
  }
}

size_t TreatMatcher::AlphaItemCount() const {
  size_t total = 0;
  for (const auto& state : states_) {
    for (const auto& mem : state.positives) total += mem.items.size();
    for (const auto& mem : state.negatives) total += mem.items.size();
  }
  return total;
}

bool TreatMatcher::PassesAlpha(const Condition& cond, const Wme& wme) {
  if (cond.relation != wme.relation()) return false;
  for (const auto& test : cond.constant_tests) {
    if (!EvalPredicate(test.pred, wme.value(test.field), test.value)) {
      return false;
    }
  }
  for (const auto& test : cond.member_tests) {
    if (!test.Eval(wme.value(test.field))) return false;
  }
  for (const auto& test : cond.intra_tests) {
    if (!EvalPredicate(test.pred, wme.value(test.field),
                       wme.value(test.other_field))) {
      return false;
    }
  }
  return true;
}

bool TreatMatcher::PassesJoins(const Condition& cond, const Wme& wme,
                               const std::vector<WmePtr>& matched) {
  for (const auto& test : cond.join_tests) {
    DBPS_DCHECK(test.other_ce < matched.size());
    if (!EvalPredicate(test.pred, wme.value(test.field),
                       matched[test.other_ce]->value(test.other_field))) {
      return false;
    }
  }
  return true;
}

void TreatMatcher::CondMem::Insert(const WmePtr& wme) {
  items.emplace(wme.get(), wme);
  if (index) index->Insert(wme.get());
}

bool TreatMatcher::CondMem::Erase(const Wme* wme) {
  if (items.erase(wme) == 0) return false;
  if (index) index->Erase(wme);
  return true;
}

template <typename Fn>
bool TreatMatcher::CondMem::ForEachJoined(const std::vector<WmePtr>& matched,
                                          Fn&& fn) const {
  if (!index) {
    for (const auto& [raw, wme] : items) {
      if (PassesJoins(*cond, *raw, matched) && fn(raw)) return true;
    }
    return false;
  }
  const JoinTest& probe = cond->join_tests[key];
  DBPS_DCHECK(probe.other_ce < matched.size());
  const Value& value = matched[probe.other_ce]->value(probe.other_field);
  for (const Wme* raw : index->Probe(value)) {
    if (PassesJoins(*cond, *raw, matched) && fn(raw)) return true;
  }
  return false;
}

bool TreatMatcher::Blocked(const CondMem& mem,
                           const std::vector<WmePtr>& matched) {
  return mem.ForEachJoined(matched, [](const Wme*) { return true; });
}

void TreatMatcher::Activate(RuleState* state, std::vector<WmePtr> matched) {
  auto inst =
      std::make_shared<Instantiation>(state->rule, std::move(matched));
  InstKey key = inst->key();
  if (state->insts.emplace(key, inst).second) {
    conflict_set_.Activate(std::move(inst));
  }
}

void TreatMatcher::JoinFrom(RuleState* state, size_t depth, size_t seed_pos,
                            const Wme* seed,
                            std::vector<WmePtr>* matched) {
  if (depth == state->positives.size()) {
    for (const auto& mem : state->negatives) {
      if (Blocked(mem, *matched)) return;
    }
    Activate(state, *matched);
    return;
  }
  if (depth == seed_pos) {
    // The seed is pinned here; it already passed this CE's alpha tests.
    const WmePtr& pinned = state->positives[depth].items.at(seed);
    if (!PassesJoins(*state->positives[depth].cond, *pinned, *matched)) {
      return;
    }
    matched->push_back(pinned);
    JoinFrom(state, depth + 1, seed_pos, seed, matched);
    matched->pop_back();
    return;
  }
  const CondMem& mem = state->positives[depth];
  mem.ForEachJoined(*matched, [&](const Wme* raw) {
    // Duplicate suppression for self-joins: positions before the seed
    // never use the seed WME (a match using it there is found when the
    // earlier position is the seed instead).
    if (seed != nullptr && depth < seed_pos && raw == seed) return false;
    matched->push_back(mem.items.at(raw));
    JoinFrom(state, depth + 1, seed_pos, seed, matched);
    matched->pop_back();
    return false;
  });
}

void TreatMatcher::SeededJoin(RuleState* state, size_t seed_pos,
                              const WmePtr& seed) {
  std::vector<WmePtr> matched;
  matched.reserve(state->positives.size());
  JoinFrom(state, 0, seed_pos, seed.get(), &matched);
}

void TreatMatcher::FullJoin(RuleState* state) {
  std::vector<WmePtr> matched;
  matched.reserve(state->positives.size());
  // seed_pos beyond the CE count: nothing pinned, nothing suppressed.
  JoinFrom(state, 0, state->positives.size(), nullptr, &matched);
}

void TreatMatcher::AddWme(const WmePtr& wme) {
  // Enter every alpha memory first (so negation checks during the joins
  // below already see the new WME).
  for (auto& state : states_) {
    for (auto& mem : state.positives) {
      if (PassesAlpha(*mem.cond, *wme)) mem.Insert(wme);
    }
    for (auto& mem : state.negatives) {
      if (PassesAlpha(*mem.cond, *wme)) mem.Insert(wme);
    }
  }
  for (auto& state : states_) {
    // New instantiations: seeded join per positive CE the WME entered.
    for (size_t pos = 0; pos < state.positives.size(); ++pos) {
      if (state.positives[pos].items.count(wme.get()) != 0) {
        SeededJoin(&state, pos, wme);
      }
    }
    // Newly blocked instantiations: retract what the WME now blocks.
    for (const auto& mem : state.negatives) {
      if (mem.items.count(wme.get()) == 0) continue;
      std::vector<InstKey> retracted;
      for (const auto& [key, inst] : state.insts) {
        if (PassesJoins(*mem.cond, *wme, inst->matched())) {
          retracted.push_back(key);
        }
      }
      for (const auto& key : retracted) {
        state.insts.erase(key);
        conflict_set_.Deactivate(key);
      }
    }
  }
}

void TreatMatcher::RemoveWme(const WmePtr& wme) {
  for (auto& state : states_) {
    bool touched_positive = false;
    bool touched_negative = false;
    for (auto& mem : state.positives) {
      touched_positive |= mem.Erase(wme.get());
    }
    for (auto& mem : state.negatives) {
      touched_negative |= mem.Erase(wme.get());
    }
    if (touched_positive) {
      // Token-free deletion: drop every instantiation built on the WME.
      std::vector<InstKey> retracted;
      for (const auto& [key, inst] : state.insts) {
        for (const auto& matched : inst->matched()) {
          if (matched.get() == wme.get()) {
            retracted.push_back(key);
            break;
          }
        }
      }
      for (const auto& key : retracted) {
        state.insts.erase(key);
        conflict_set_.Deactivate(key);
      }
    }
    if (touched_negative) {
      // The WME may have been the last blocker of some matches: re-join.
      FullJoin(&state);
    }
  }
}

}  // namespace dbps
