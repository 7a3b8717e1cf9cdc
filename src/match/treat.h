// TreatMatcher: the TREAT match algorithm [MIRA84], the Rete alternative
// the paper cites ("The RETE and TREAT pattern matching algorithms are
// examples of this approach").
//
// TREAT keeps only alpha memories (per condition element) and the
// conflict set itself — no beta memories:
//  * WME added: it enters the alpha memories it passes; for each
//    positive CE it entered, a *seeded* nested-loop join (the new WME
//    pinned at that CE) computes exactly the new instantiations; for
//    each negated CE it entered, the instantiations it now blocks are
//    retracted.
//  * WME removed: it leaves its alpha memories; instantiations built on
//    it are retracted directly (token-free deletion — TREAT's signature
//    move); rules whose negated CEs lose the WME are re-joined to
//    surface newly unblocked instantiations.
//
// A CE with an equality join test keeps its alpha memory hash-indexed on
// that test's field (the AlphaIndex Rete uses), so the nested-loop join
// and the negation check visit one bucket instead of the whole memory.
//
// Compared with Rete it trades join recomputation for zero beta-memory
// state; bench_match and bench_manners quantify the trade on this
// implementation.

#ifndef DBPS_MATCH_TREAT_H_
#define DBPS_MATCH_TREAT_H_

#include <optional>
#include <unordered_map>
#include <vector>

#include "match/alpha_index.h"
#include "match/matcher.h"

namespace dbps {

class TreatMatcher : public Matcher {
 public:
  Status Initialize(RuleSetPtr rules, const WorkingMemory& wm) override;
  Status InitializeAt(RuleSetPtr rules, const WmSnapshot& snap) override;
  void ApplyChange(const WmChange& change) override;
  void ApplyChanges(const std::vector<WmChange>& changes) override;

  /// Total alpha-memory entries (for tests/benches: TREAT's only state).
  size_t AlphaItemCount() const;

 private:
  struct CondMem {
    const Condition* cond = nullptr;
    std::unordered_map<const Wme*, WmePtr> items;
    /// Present iff the condition has a kEq join test: indexes `items` on
    /// that test's field, so a join probes one bucket (alpha_index.h).
    std::optional<AlphaIndex> index;
    size_t key = 0;  // position of that test in cond->join_tests

    void Insert(const WmePtr& wme);
    /// Returns whether `wme` was an item.
    bool Erase(const Wme* wme);
    /// Calls fn(raw) for every item that passes the condition's join
    /// tests against `matched`, until fn returns true; returns whether
    /// it did.
    template <typename Fn>
    bool ForEachJoined(const std::vector<WmePtr>& matched, Fn&& fn) const;
  };

  struct RuleState {
    RulePtr rule;
    std::vector<CondMem> positives;  // in positive-CE order
    std::vector<CondMem> negatives;
    std::unordered_map<InstKey, InstPtr, InstKeyHash> insts;
  };

  void AddWme(const WmePtr& wme);
  void RemoveWme(const WmePtr& wme);

  /// Seeded join for one rule: `seed` pinned at positive CE `seed_pos`;
  /// CEs before seed_pos skip `seed` (duplicate suppression for
  /// self-joins). Activates every completed, unblocked instantiation.
  void SeededJoin(RuleState* state, size_t seed_pos, const WmePtr& seed);

  /// Full join of one rule; activates matches not already active (used
  /// after a negated CE loses a WME).
  void FullJoin(RuleState* state);

  void JoinFrom(RuleState* state, size_t depth, size_t seed_pos,
                const Wme* seed, std::vector<WmePtr>* matched);

  /// True iff `wme` passes `cond`'s alpha (constant/member/intra) tests.
  static bool PassesAlpha(const Condition& cond, const Wme& wme);
  /// True iff `wme` passes `cond`'s join tests against `matched`.
  static bool PassesJoins(const Condition& cond, const Wme& wme,
                          const std::vector<WmePtr>& matched);
  /// True iff some WME in `mem` blocks `matched` under its condition.
  static bool Blocked(const CondMem& mem,
                      const std::vector<WmePtr>& matched);

  void Activate(RuleState* state, std::vector<WmePtr> matched);

  RuleSetPtr rules_;
  std::vector<RuleState> states_;
};

}  // namespace dbps

#endif  // DBPS_MATCH_TREAT_H_
