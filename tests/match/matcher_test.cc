// Behavioural tests run against BOTH matcher implementations through the
// common Matcher interface (value-parameterized), so the naive oracle and
// the Rete network are held to the identical contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "lang/compiler.h"
#include "manners_program.h"
#include "match/alpha_index.h"
#include "match/matcher.h"
#include "match/naive_matcher.h"
#include "match/rete.h"

namespace dbps {
namespace {

class MatcherTest : public ::testing::TestWithParam<MatcherKind> {
 protected:
  std::unique_ptr<Matcher> NewMatcher() { return CreateMatcher(GetParam()); }

  /// Applies one delta to the WM and feeds the change to the matcher.
  void Apply(WorkingMemory* wm, Matcher* matcher, const Delta& delta) {
    auto change = wm->Apply(delta);
    ASSERT_TRUE(change.ok()) << change.status();
    matcher->ApplyChange(change.ValueOrDie());
  }

  std::multiset<std::string> RuleNames(const Matcher& matcher) {
    std::multiset<std::string> names;
    for (const auto& inst : matcher.conflict_set().Snapshot()) {
      names.insert(inst->rule()->name());
    }
    return names;
  }
};

TEST_P(MatcherTest, InitialContentsAreMatched) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation item (v int))
(rule big (item ^v { > 10 }) --> (remove 1))
(make item ^v 5)
(make item ^v 15)
(make item ^v 20)
)",
                           &wm)
                   .ValueOrDie();
  auto matcher = NewMatcher();
  ASSERT_TRUE(matcher->Initialize(rules, wm).ok());
  EXPECT_EQ(matcher->conflict_set().size(), 2u);
}

TEST_P(MatcherTest, IncrementalAddAndRemove) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation item (v int))
(rule any (item ^v <v>) --> (remove 1))
)",
                           &wm)
                   .ValueOrDie();
  auto matcher = NewMatcher();
  ASSERT_TRUE(matcher->Initialize(rules, wm).ok());
  EXPECT_EQ(matcher->conflict_set().size(), 0u);

  Delta add;
  add.Create(Sym("item"), {Value::Int(1)});
  add.Create(Sym("item"), {Value::Int(2)});
  Apply(&wm, matcher.get(), add);
  EXPECT_EQ(matcher->conflict_set().size(), 2u);

  WmeId first = wm.Scan(Sym("item"))[0]->id();
  Delta remove;
  remove.Delete(first);
  Apply(&wm, matcher.get(), remove);
  EXPECT_EQ(matcher->conflict_set().size(), 1u);
}

TEST_P(MatcherTest, JoinOnSharedVariable) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation a (x symbol))
(relation b (x symbol))
(rule pair (a ^x <k>) (b ^x <k>) --> (remove 1))
(make a ^x p)
(make a ^x q)
(make b ^x q)
(make b ^x r)
)",
                           &wm)
                   .ValueOrDie();
  auto matcher = NewMatcher();
  ASSERT_TRUE(matcher->Initialize(rules, wm).ok());
  // Only (a q, b q) joins.
  ASSERT_EQ(matcher->conflict_set().size(), 1u);
  auto inst = matcher->conflict_set().Snapshot()[0];
  EXPECT_EQ(inst->matched()[0]->value(0), Value::Symbol("q"));
  EXPECT_EQ(inst->matched()[1]->value(0), Value::Symbol("q"));
}

TEST_P(MatcherTest, CrossProductCounts) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation a (x int))
(relation b (x int))
(rule all (a ^x <i>) (b ^x <j>) --> (remove 1))
)",
                           &wm)
                   .ValueOrDie();
  auto matcher = NewMatcher();
  ASSERT_TRUE(matcher->Initialize(rules, wm).ok());
  Delta delta;
  for (int i = 0; i < 3; ++i) delta.Create(Sym("a"), {Value::Int(i)});
  for (int j = 0; j < 4; ++j) delta.Create(Sym("b"), {Value::Int(j)});
  Apply(&wm, matcher.get(), delta);
  EXPECT_EQ(matcher->conflict_set().size(), 12u);
}

TEST_P(MatcherTest, SameRelationTwiceInOneRule) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation n (v int))
(rule ordered (n ^v <a>) (n ^v { > <a> }) --> (remove 1))
(make n ^v 1)
(make n ^v 2)
(make n ^v 3)
)",
                           &wm)
                   .ValueOrDie();
  auto matcher = NewMatcher();
  ASSERT_TRUE(matcher->Initialize(rules, wm).ok());
  // Ordered pairs: (1,2) (1,3) (2,3).
  EXPECT_EQ(matcher->conflict_set().size(), 3u);
}

TEST_P(MatcherTest, IntraWmeTest) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation edge (from symbol) (to symbol))
(rule self-loop (edge ^from <x> ^to <x>) --> (remove 1))
(make edge ^from a ^to b)
(make edge ^from c ^to c)
)",
                           &wm)
                   .ValueOrDie();
  auto matcher = NewMatcher();
  ASSERT_TRUE(matcher->Initialize(rules, wm).ok());
  ASSERT_EQ(matcher->conflict_set().size(), 1u);
  EXPECT_EQ(matcher->conflict_set().Snapshot()[0]->matched()[0]->value(0),
            Value::Symbol("c"));
}

TEST_P(MatcherTest, NegationBlocksAndUnblocks) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation goal (name symbol))
(relation lock (name symbol))
(rule go (goal ^name <g>) -(lock ^name <g>) --> (remove 1))
(make goal ^name alpha)
)",
                           &wm)
                   .ValueOrDie();
  auto matcher = NewMatcher();
  ASSERT_TRUE(matcher->Initialize(rules, wm).ok());
  EXPECT_EQ(matcher->conflict_set().size(), 1u);

  // Adding a matching lock deactivates the instantiation...
  Delta block;
  block.Create(Sym("lock"), {Value::Symbol("alpha")});
  Apply(&wm, matcher.get(), block);
  EXPECT_EQ(matcher->conflict_set().size(), 0u);

  // ...an unrelated lock does not...
  Delta unrelated;
  unrelated.Create(Sym("lock"), {Value::Symbol("beta")});
  Apply(&wm, matcher.get(), unrelated);
  EXPECT_EQ(matcher->conflict_set().size(), 0u);

  // ...and removing the blocker reactivates it.
  WmeId blocker = 0;
  for (const auto& wme : wm.Scan(Sym("lock"))) {
    if (wme->value(0) == Value::Symbol("alpha")) blocker = wme->id();
  }
  Delta unblock;
  unblock.Delete(blocker);
  Apply(&wm, matcher.get(), unblock);
  EXPECT_EQ(matcher->conflict_set().size(), 1u);
}

TEST_P(MatcherTest, NegationPresentFromTheStart) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation goal (name symbol))
(relation lock (name symbol))
(rule go (goal ^name <g>) -(lock ^name <g>) --> (remove 1))
(make goal ^name alpha)
(make goal ^name beta)
(make lock ^name alpha)
)",
                           &wm)
                   .ValueOrDie();
  auto matcher = NewMatcher();
  ASSERT_TRUE(matcher->Initialize(rules, wm).ok());
  ASSERT_EQ(matcher->conflict_set().size(), 1u);
  EXPECT_EQ(matcher->conflict_set().Snapshot()[0]->matched()[0]->value(0),
            Value::Symbol("beta"));
}

TEST_P(MatcherTest, DoublyBlockedNeedsBothRemoved) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation goal (name symbol))
(relation lock (name symbol))
(rule go (goal ^name <g>) -(lock ^name <g>) --> (remove 1))
(make goal ^name alpha)
(make lock ^name alpha)
(make lock ^name alpha)
)",
                           &wm)
                   .ValueOrDie();
  auto matcher = NewMatcher();
  ASSERT_TRUE(matcher->Initialize(rules, wm).ok());
  EXPECT_EQ(matcher->conflict_set().size(), 0u);

  auto locks = wm.Scan(Sym("lock"));
  Delta remove_one;
  remove_one.Delete(locks[0]->id());
  Apply(&wm, matcher.get(), remove_one);
  EXPECT_EQ(matcher->conflict_set().size(), 0u);  // still one blocker left

  Delta remove_two;
  remove_two.Delete(locks[1]->id());
  Apply(&wm, matcher.get(), remove_two);
  EXPECT_EQ(matcher->conflict_set().size(), 1u);
}

TEST_P(MatcherTest, ModifyRetractsOldVersionAndAssertsNew) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation item (v int))
(rule big (item ^v { > 10 }) --> (remove 1))
(make item ^v 5)
)",
                           &wm)
                   .ValueOrDie();
  auto matcher = NewMatcher();
  ASSERT_TRUE(matcher->Initialize(rules, wm).ok());
  EXPECT_EQ(matcher->conflict_set().size(), 0u);

  WmeId id = wm.Scan(Sym("item"))[0]->id();
  Delta up;
  up.Modify(id, {{0, Value::Int(20)}});
  Apply(&wm, matcher.get(), up);
  ASSERT_EQ(matcher->conflict_set().size(), 1u);
  TimeTag tag_after_up =
      matcher->conflict_set().Snapshot()[0]->matched()[0]->tag();

  // Modifying again (still >10) yields a *new* instantiation key.
  Delta up2;
  up2.Modify(id, {{0, Value::Int(30)}});
  Apply(&wm, matcher.get(), up2);
  ASSERT_EQ(matcher->conflict_set().size(), 1u);
  EXPECT_GT(matcher->conflict_set().Snapshot()[0]->matched()[0]->tag(),
            tag_after_up);

  Delta down;
  down.Modify(id, {{0, Value::Int(1)}});
  Apply(&wm, matcher.get(), down);
  EXPECT_EQ(matcher->conflict_set().size(), 0u);
}

TEST_P(MatcherTest, MultipleRulesShareWorkingMemory) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation item (v int))
(rule small (item ^v { <= 5 }) --> (remove 1))
(rule big   (item ^v { > 5 })  --> (remove 1))
(rule all   (item ^v <v>)      --> (remove 1))
(make item ^v 3)
(make item ^v 8)
)",
                           &wm)
                   .ValueOrDie();
  auto matcher = NewMatcher();
  ASSERT_TRUE(matcher->Initialize(rules, wm).ok());
  auto names = RuleNames(*matcher);
  EXPECT_EQ(names.count("small"), 1u);
  EXPECT_EQ(names.count("big"), 1u);
  EXPECT_EQ(names.count("all"), 2u);
}

TEST_P(MatcherTest, ThreeWayJoin) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation a (k symbol) (v int))
(relation b (k symbol) (v int))
(relation c (k symbol) (v int))
(rule chain
  (a ^k <k> ^v <x>)
  (b ^k <k> ^v { > <x> })
  (c ^k <k> ^v { > <x> })
  -->
  (remove 1))
(make a ^k key ^v 1)
(make b ^k key ^v 2)
(make b ^k key ^v 0)
(make c ^k key ^v 5)
(make c ^k other ^v 9)
)",
                           &wm)
                   .ValueOrDie();
  auto matcher = NewMatcher();
  ASSERT_TRUE(matcher->Initialize(rules, wm).ok());
  // (a key 1) x (b key 2) x (c key 5) only.
  EXPECT_EQ(matcher->conflict_set().size(), 1u);
}

TEST_P(MatcherTest, ModifiedJoinKeyMovesToItsNewBucket) {
  // `item ^k` is the equality-join field both rules probe: after a modify
  // a probe with the old value must miss the item and one with the new
  // value must hit it, including across int/float (2 == 2.0).
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation probe (k number))
(relation item (k number) (tag symbol))
(rule hit (probe ^k <k>) (item ^k <k>) --> (remove 1))
(rule miss (probe ^k <k>) -(item ^k <k>) --> (remove 1))
(make item ^k 1 ^tag a)
)",
                           &wm)
                   .ValueOrDie();
  auto matcher = NewMatcher();
  ASSERT_TRUE(matcher->Initialize(rules, wm).ok());
  const WmeId item = wm.Scan(Sym("item"))[0]->id();

  Delta move;
  move.Modify(item, {{0, Value::Int(2)}});
  Apply(&wm, matcher.get(), move);
  Delta old_probe;
  old_probe.Create(Sym("probe"), {Value::Int(1)});
  Apply(&wm, matcher.get(), old_probe);
  EXPECT_EQ(RuleNames(*matcher), (std::multiset<std::string>{"miss"}));

  Delta new_probe;
  new_probe.Create(Sym("probe"), {Value::Float(2.0)});
  Apply(&wm, matcher.get(), new_probe);
  EXPECT_EQ(RuleNames(*matcher),
            (std::multiset<std::string>{"hit", "miss"}));

  // Back to the first key, as a float: probe 1 now hits, probe 2.0 is
  // unblocked.
  Delta back;
  back.Modify(item, {{0, Value::Float(1.0)}});
  Apply(&wm, matcher.get(), back);
  EXPECT_EQ(RuleNames(*matcher),
            (std::multiset<std::string>{"hit", "miss"}));
  for (const auto& inst : matcher->conflict_set().Snapshot()) {
    const Value& probed = inst->matched()[0]->value(0);
    EXPECT_EQ(probed, inst->rule()->name() == "hit" ? Value::Int(1)
                                                    : Value::Int(2))
        << inst->rule()->name();
  }
}

INSTANTIATE_TEST_SUITE_P(AllMatchers, MatcherTest,
                         ::testing::Values(MatcherKind::kRete,
                                           MatcherKind::kNaive,
                                           MatcherKind::kTreat),
                         [](const auto& info) {
                           return std::string(
                               MatcherKindToString(info.param));
                         });

// --- Rete-specific structural tests ------------------------------------

TEST(Rete, SharesAlphaMemories) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation item (v int))
(rule r1 (item ^v { > 10 }) --> (remove 1))
(rule r2 (item ^v { > 10 }) (item ^v { > 10 }) --> (remove 1))
)",
                           &wm)
                   .ValueOrDie();
  ReteMatcher matcher;
  ASSERT_TRUE(matcher.Initialize(rules, wm).ok());
  auto stats = matcher.GetStats();
  // One shared alpha memory for the identical CE across both rules.
  EXPECT_EQ(stats.alpha_memories, 1u);
  EXPECT_EQ(stats.production_nodes, 2u);
  EXPECT_EQ(stats.join_nodes, 3u);
}

TEST(Rete, SharedAlphaMemoryNoDuplicateMatches) {
  // The classic duplicate-match hazard: one WME feeding both CEs of the
  // same rule through one shared alpha memory.
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation item (v int))
(rule pair (item ^v <a>) (item ^v <b>) --> (remove 1))
)",
                           &wm)
                   .ValueOrDie();
  ReteMatcher matcher;
  ASSERT_TRUE(matcher.Initialize(rules, wm).ok());
  Delta delta;
  delta.Create(Sym("item"), {Value::Int(1)});
  auto change = wm.Apply(delta);
  ASSERT_TRUE(change.ok());
  matcher.ApplyChange(change.ValueOrDie());
  // Exactly one match: (w1, w1).
  EXPECT_EQ(matcher.conflict_set().size(), 1u);

  Delta second;
  second.Create(Sym("item"), {Value::Int(2)});
  change = wm.Apply(second);
  ASSERT_TRUE(change.ok());
  matcher.ApplyChange(change.ValueOrDie());
  // (w1,w1) (w1,w2) (w2,w1) (w2,w2).
  EXPECT_EQ(matcher.conflict_set().size(), 4u);
}

TEST(Rete, TokensAreReclaimedOnRemoval) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation item (v int))
(rule pair (item ^v <a>) (item ^v <b>) --> (remove 1))
)",
                           &wm)
                   .ValueOrDie();
  ReteMatcher matcher;
  ASSERT_TRUE(matcher.Initialize(rules, wm).ok());
  size_t base_tokens = matcher.GetStats().tokens;

  Delta add;
  for (int i = 0; i < 5; ++i) add.Create(Sym("item"), {Value::Int(i)});
  auto change = wm.Apply(add);
  ASSERT_TRUE(change.ok());
  matcher.ApplyChange(change.ValueOrDie());
  EXPECT_EQ(matcher.conflict_set().size(), 25u);
  EXPECT_GT(matcher.GetStats().tokens, base_tokens);

  Delta remove;
  for (const auto& wme : wm.Scan(Sym("item"))) remove.Delete(wme->id());
  change = wm.Apply(remove);
  ASSERT_TRUE(change.ok());
  matcher.ApplyChange(change.ValueOrDie());
  EXPECT_EQ(matcher.conflict_set().size(), 0u);
  EXPECT_EQ(matcher.GetStats().tokens, base_tokens);
  EXPECT_EQ(matcher.GetStats().wmes, 0u);
}

TEST(Rete, ToDotRendersNetwork) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation a (x int))
(rule r (a ^x <x>) -(a ^x { > <x> }) --> (remove 1))
)",
                           &wm)
                   .ValueOrDie();
  ReteMatcher matcher;
  ASSERT_TRUE(matcher.Initialize(rules, wm).ok());
  std::string dot = matcher.ToDot();
  EXPECT_NE(dot.find("digraph rete"), std::string::npos);
  EXPECT_NE(dot.find("neg"), std::string::npos);
  EXPECT_NE(dot.find("prod"), std::string::npos);
}

TEST(Rete, IndexesEqualityJoinsOnly) {
  // A node is indexed iff one of its beta tests is an equality; the key
  // is the first such test's field. One alpha memory (`b`, no alpha
  // tests) is probed on two fields by two rules, so it holds two indexes.
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation a (x int) (y int))
(relation b (p int) (q int))
(rule by-p (a ^x <x>) (b ^q { > <x> } ^p <x>) --> (remove 1))
(rule by-q (a ^x <x> ^y <y>) -(b ^q <y> ^p <x>) --> (remove 1))
(rule ranged (a ^x <x>) (b ^p { <> <x> }) --> (remove 1))
)",
                           &wm)
                   .ValueOrDie();
  ReteMatcher matcher;
  ASSERT_TRUE(matcher.Initialize(rules, wm).ok());
  auto stats = matcher.GetStats();
  EXPECT_EQ(stats.join_nodes + stats.negative_nodes, 6u);
  EXPECT_EQ(stats.indexed_nodes, 2u);
  std::string dot = matcher.ToDot();
  EXPECT_NE(dot.find("label=\"join [b.p]\""), std::string::npos) << dot;
  EXPECT_NE(dot.find("label=\"neg [b.q]\""), std::string::npos) << dot;
  EXPECT_NE(dot.find("label=\"join\""), std::string::npos) << dot;
}

TEST(AlphaIndex, EqualNumbersShareABucket) {
  // Value::operator== compares an int with a float as doubles, so
  // 2^60 + 1 equals 2^60 as a float, yet Value::Hash puts the two apart
  // (past 1e18 floats hash as floats). The index must still find both.
  const int64_t big = (int64_t{1} << 60) + 1;
  const double big_float = std::ldexp(1.0, 60);
  ASSERT_EQ(Value::Int(big), Value::Float(big_float));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Wme a(1, 1, Sym("t"), {Value::Int(big)});
  Wme b(2, 2, Sym("t"), {Value::Float(big_float)});
  Wme c(3, 3, Sym("t"), {Value::Float(nan)});
  Wme d(4, 4, Sym("t"), {Value::Int(3)});
  AlphaIndex index(0);
  for (const Wme* wme : {&a, &b, &c, &d}) index.Insert(wme);
  auto bucket = [&](const Value& key) {
    std::set<const Wme*> out;
    for (const Wme* wme : index.Probe(key)) out.insert(wme);
    return out;
  };
  EXPECT_EQ(bucket(Value::Int(big)), (std::set<const Wme*>{&a, &b}));
  EXPECT_EQ(bucket(Value::Float(big_float)), (std::set<const Wme*>{&a, &b}));
  EXPECT_EQ(bucket(Value::Float(3.0)), (std::set<const Wme*>{&d}));
  EXPECT_EQ(bucket(Value::Symbol("x")), (std::set<const Wme*>{}));
  // NaN equals nothing, not even itself, but must still be erasable.
  index.Erase(&c);
  EXPECT_EQ(bucket(Value::Float(nan)), (std::set<const Wme*>{}));
  index.Erase(&a);
  EXPECT_EQ(bucket(Value::Int(big)), (std::set<const Wme*>{&b}));
}

RuleSetPtr OnlyRule(const RuleSetPtr& rules, const std::string& name) {
  auto only = std::make_shared<RuleSet>();
  EXPECT_TRUE(only->Add(rules->Find(name)).ok()) << name;
  return only;
}

TEST(Rete, MannersJoinsProbeIndexes) {
  // On bench_manners' program every seat-next node after the first CE
  // (which joins the dummy token and has nothing to probe with) is
  // indexed; the `{ < <var> }` limit checks have no equality and scan.
  WorkingMemory wm;
  auto rules =
      LoadProgram(bench::MannersProgram(16, 1), &wm).ValueOrDie();

  ReteMatcher seat_next;
  ASSERT_TRUE(seat_next.Initialize(OnlyRule(rules, "seat-next"), wm).ok());
  auto stats = seat_next.GetStats();
  EXPECT_EQ(stats.join_nodes, 4u);
  EXPECT_EQ(stats.negative_nodes, 2u);
  EXPECT_EQ(stats.indexed_nodes, 5u);
  std::string dot = seat_next.ToDot();
  for (const char* label :
       {"join [seated.table]", "neg [seated.table]", "join [guest.name]",
        "join [guest.hobby]", "neg [taken.name]"}) {
    EXPECT_NE(dot.find(label), std::string::npos) << label << "\n" << dot;
  }

  for (const char* name : {"table-full", "all-seated"}) {
    ReteMatcher limit;
    ASSERT_TRUE(limit.Initialize(OnlyRule(rules, name), wm).ok());
    EXPECT_EQ(limit.GetStats().join_nodes, 2u) << name;
    EXPECT_EQ(limit.GetStats().indexed_nodes, 0u) << name;
  }
}

}  // namespace
}  // namespace dbps
