// Behavioural tests run against BOTH matcher implementations through the
// common Matcher interface (value-parameterized), so the naive oracle and
// the Rete network are held to the identical contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "engine/single_thread_engine.h"
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


TEST(Rete, TokenCountReturnsToBaseAcrossFirstCeModifies) {
  // Manners mid-table: h1 holds seat 1 of table 1 and the phase asks for
  // seat 2. Each modify of `phase` (the first CE of every rule) removes
  // the old version, tearing down every token built on it, and adds the
  // new one, rebuilding them; a round trip back to the same values must
  // leave exactly as many live tokens and instantiations as before.
  WorkingMemory wm;
  auto rules = LoadProgram(bench::MannersProgram(16, 1), &wm).ValueOrDie();
  WmePtr host;
  for (const WmePtr& guest : wm.Scan(Sym("guest"))) {
    if (guest->value(0) == Value::Symbol("h1")) host = guest;
  }
  ASSERT_NE(host, nullptr);
  Delta seat;
  seat.Create(Sym("seated"), {Value::Int(1), Value::Int(1), host->value(0),
                              host->value(2), host->value(3)});
  seat.Create(Sym("taken"), {host->value(0)});
  ASSERT_TRUE(wm.Apply(seat).ok());
  const WmeId phase = wm.Scan(Sym("phase"))[0]->id();
  Delta to_seat;
  to_seat.Modify(phase, {{0, Value::Symbol("seat")}, {2, Value::Int(2)}});
  ASSERT_TRUE(wm.Apply(to_seat).ok());

  ReteMatcher matcher;
  ASSERT_TRUE(matcher.Initialize(rules, wm).ok());
  const size_t base_tokens = matcher.GetStats().tokens;
  const size_t base_active = matcher.conflict_set().size();
  ASSERT_GT(base_active, 10u);  // seat 2 has many candidate guests

  auto modify = [&](std::vector<std::pair<size_t, Value>> updates) {
    Delta delta;
    delta.Modify(phase, std::move(updates));
    auto change = wm.Apply(delta);
    ASSERT_TRUE(change.ok()) << change.status();
    matcher.ApplyChange(change.ValueOrDie());
  };
  for (int cycle = 0; cycle < 6; ++cycle) {
    // Same values, new version: a full remove/add of the first CE.
    modify({{2, Value::Int(2)}});
    EXPECT_EQ(matcher.GetStats().tokens, base_tokens) << cycle;
    EXPECT_EQ(matcher.conflict_set().size(), base_active) << cycle;
    // Another seat, then another phase: other subtrees come and go.
    modify({{2, Value::Int(3)}});
    modify({{0, Value::Symbol("start")}, {2, Value::Int(1)}});
    EXPECT_NE(matcher.GetStats().tokens, base_tokens) << cycle;
    modify({{0, Value::Symbol("seat")}, {2, Value::Int(2)}});
    EXPECT_EQ(matcher.GetStats().tokens, base_tokens) << cycle;
    EXPECT_EQ(matcher.conflict_set().size(), base_active) << cycle;
  }
}

/// The keys of the instantiations SingleThreadEngine fires on manners with
/// Rete under `strategy`, one per line.
std::string MannersFiringOrder(ConflictResolution strategy) {
  WorkingMemory wm;
  auto rules =
      LoadProgram(bench::MannersProgram(32, 42), &wm).ValueOrDie();
  EngineOptions options;
  options.strategy = strategy;
  options.matcher = MatcherKind::kRete;
  options.seed = 7;
  options.max_firings = 200;
  SingleThreadEngine engine(&wm, rules, options);
  auto result = engine.Run();
  EXPECT_TRUE(result.ok()) << result.status();
  std::string out;
  for (const FiringRecord& firing : engine.log()) {
    out += firing.key.ToString() + "\n";
  }
  return out;
}

// Recorded from the Rete matcher whose tokens sat in vectors; the
// intrusive token lists must reproduce it byte for byte.
constexpr char kMannersFifoOrder[] = R"(seat-first[1@1,5@5,4@4]
seat-next[1@145,143@143,4@4,56@56]
seat-next[1@147,145@146,56@56,64@64]
seat-next[1@150,147@149,64@64,50@50]
seat-next[1@153,149@152,50@50,58@58]
seat-next[1@156,151@155,58@58,47@47]
seat-next[1@159,153@158,48@48,139@139]
seat-next[1@162,155@161,140@140,141@141]
table-full[1@165,2@2]
seat-first[1@167,8@8,7@7]
seat-next[1@170,159@168,7@7,60@60]
seat-next[1@172,161@171,60@60,137@137]
seat-next[1@175,163@174,138@138,52@52]
seat-next[1@178,165@177,52@52,40@40]
seat-next[1@181,167@180,40@40,44@44]
seat-next[1@184,169@183,44@44,15@15]
seat-next[1@187,171@186,15@15,42@42]
table-full[1@190,2@2]
seat-first[1@192,11@11,10@10]
seat-next[1@195,175@193,10@10,21@21]
seat-next[1@197,177@196,21@21,135@135]
seat-next[1@200,179@199,136@136,134@134]
seat-next[1@203,181@202,134@134,46@46]
seat-next[1@206,183@205,46@46,61@61]
seat-next[1@209,185@208,61@61,18@18]
seat-next[1@212,187@211,18@18,54@54]
table-full[1@215,2@2]
seat-first[1@217,14@14,13@13]
seat-next[1@220,191@218,13@13,37@37]
seat-next[1@222,193@221,38@38,36@36]
seat-next[1@225,195@224,36@36,28@28]
seat-next[1@228,197@227,27@27,19@19]
seat-next[1@231,199@230,19@19,24@24]
seat-next[1@234,201@233,23@23,34@34]
seat-next[1@237,203@236,33@33,68@68]
table-full[1@240,2@2]
all-seated[1@242,2@2]
)";

constexpr char kMannersRandomOrder[] = R"(seat-first[1@1,5@5,3@3]
seat-next[1@145,143@143,4@4,98@98]
seat-next[1@147,145@146,98@98,69@69]
seat-next[1@150,147@149,70@70,94@94]
seat-next[1@153,149@152,93@93,41@41]
seat-next[1@156,151@155,42@42,25@25]
seat-next[1@159,153@158,25@25,37@37]
seat-next[1@162,155@161,37@37,19@19]
seat-next[1@165,157@164,19@19,52@52]
seat-next[1@168,159@167,52@52,15@15]
seat-next[1@171,161@170,15@15,95@95]
seat-next[1@174,163@173,96@96,46@46]
seat-next[1@177,165@176,45@45,128@128]
seat-next[1@180,167@179,128@128,71@71]
seat-next[1@183,169@182,72@72,123@123]
seat-next[1@186,171@185,124@124,101@101]
seat-next[1@189,173@188,102@102,122@122]
seat-next[1@192,175@191,121@121,35@35]
seat-next[1@195,177@194,36@36,58@58]
seat-next[1@198,179@197,58@58,56@56]
seat-next[1@201,181@200,55@55,134@134]
seat-next[1@204,183@203,133@133,30@30]
seat-next[1@207,185@206,29@29,111@111]
seat-next[1@210,187@209,111@111,132@132]
seat-next[1@213,189@212,131@131,22@22]
seat-next[1@216,191@215,22@22,129@129]
table-full[1@219,2@2]
seat-first[1@221,8@8,7@7]
seat-next[1@224,195@222,6@6,67@67]
seat-next[1@226,197@225,67@67,100@100]
seat-next[1@229,199@228,100@100,74@74]
seat-next[1@232,201@231,73@73,39@39]
seat-next[1@235,203@234,39@39,84@84]
seat-next[1@238,205@237,84@84,75@75]
seat-next[1@241,207@240,75@75,87@87]
seat-next[1@244,209@243,87@87,137@137]
seat-next[1@247,211@246,138@138,140@140]
seat-next[1@250,213@249,140@140,81@81]
seat-next[1@253,215@252,81@81,110@110]
seat-next[1@256,217@255,110@110,125@125]
seat-next[1@259,219@258,126@126,119@119]
seat-next[1@262,221@261,120@120,113@113]
table-full[1@265,2@2]
seat-first[1@267,11@11,10@10]
seat-next[1@270,225@268,9@9,43@43]
seat-next[1@272,227@271,43@43,77@77]
seat-next[1@275,229@274,78@78,60@60]
seat-next[1@278,231@277,60@60,108@108]
seat-next[1@281,233@280,108@108,85@85]
seat-next[1@284,235@283,85@85,106@106]
seat-next[1@287,237@286,105@105,115@115]
seat-next[1@290,239@289,116@116,48@48]
seat-next[1@293,241@292,48@48,117@117]
seat-next[1@296,243@295,117@117,34@34]
seat-next[1@299,245@298,34@34,61@61]
seat-next[1@302,247@301,62@62,49@49]
seat-next[1@305,249@304,50@50,89@89]
seat-next[1@308,251@307,90@90,31@31]
seat-next[1@311,253@310,32@32,28@28]
seat-next[1@314,255@313,27@27,66@66]
seat-next[1@317,257@316,65@65,53@53]
seat-next[1@320,259@319,54@54,18@18]
seat-next[1@323,261@322,17@17,92@92]
seat-next[1@326,263@325,91@91,141@141]
table-full[1@329,2@2]
seat-first[1@331,14@14,13@13]
seat-next[1@334,267@332,12@12,80@80]
seat-next[1@336,269@335,79@79,136@136]
seat-next[1@339,271@338,136@136,23@23]
)";

TEST(MatcherTest, ReteFiringOrderIsPinned) {
  // FIFO and random picks depend on the order in which Rete activates
  // instantiations (their activation_seq, and the conflict set's
  // insertion history), so any change to token bookkeeping that reorders
  // activations shows up here as a different firing sequence.
  EXPECT_EQ(MannersFiringOrder(ConflictResolution::kFifo), kMannersFifoOrder);
  EXPECT_EQ(MannersFiringOrder(ConflictResolution::kRandom),
            kMannersRandomOrder);
}

}  // namespace
}  // namespace dbps
