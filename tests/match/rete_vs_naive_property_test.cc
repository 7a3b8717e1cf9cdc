// Property test: on random programs and random WM mutation sequences, the
// Rete network's and TREAT's conflict sets must equal the naive
// rematcher's exactly. A second generator aims at the alpha-memory hash
// indexes: int/float join keys (3 vs 3.0), symbol keys, one alpha memory
// probed on two fields, negations with equality joins, CEs with two
// equality tests, and CEs with none (the scan fallback).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "lang/compiler.h"
#include "match/matcher.h"
#include "testing/workloads.h"
#include "util/random.h"

namespace dbps {
namespace {

std::set<std::string> Keys(const Matcher& matcher) {
  std::set<std::string> keys;
  for (const auto& inst : matcher.conflict_set().Snapshot()) {
    keys.insert(inst->key().ToString());
  }
  return keys;
}

class ReteVsNaive : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReteVsNaive, ConflictSetsAgreeUnderRandomMutations) {
  const uint64_t seed = GetParam();
  testing::RandomProgramBuilder builder(seed);
  std::string source = builder.Build();

  WorkingMemory wm;
  auto rules_or = LoadProgram(source, &wm);
  ASSERT_TRUE(rules_or.ok()) << rules_or.status() << "\nprogram:\n"
                             << source;
  RuleSetPtr rules = rules_or.ValueOrDie();

  auto rete = CreateMatcher(MatcherKind::kRete);
  auto naive = CreateMatcher(MatcherKind::kNaive);
  auto treat = CreateMatcher(MatcherKind::kTreat);
  ASSERT_TRUE(rete->Initialize(rules, wm).ok());
  ASSERT_TRUE(naive->Initialize(rules, wm).ok());
  ASSERT_TRUE(treat->Initialize(rules, wm).ok());
  ASSERT_EQ(Keys(*rete), Keys(*naive)) << "divergence at init\n" << source;
  ASSERT_EQ(Keys(*treat), Keys(*naive))
      << "treat divergence at init\n" << source;

  // Random mutation stream: inserts, deletes, modifies across relations.
  Random rng(seed ^ 0xabcdef);
  for (int step = 0; step < 60; ++step) {
    Delta delta;
    const int kind = static_cast<int>(rng.Uniform(4));
    if (kind == 0) {
      static const char* kKinds[] = {"red", "green", "blue"};
      delta.Create(Sym("token"),
                   {Value::Symbol(kKinds[rng.Uniform(3)]),
                    Value::Int(static_cast<int64_t>(rng.Uniform(6))),
                    Value::Int(0)});
    } else if (kind == 1) {
      delta.Create(Sym("mark"),
                   {Value::Int(static_cast<int64_t>(rng.Uniform(6)))});
    } else {
      // Delete or modify a random live WME.
      std::vector<WmePtr> all;
      for (const char* rel : {"token", "slot", "mark"}) {
        for (const auto& wme : wm.Scan(Sym(rel))) all.push_back(wme);
      }
      if (all.empty()) continue;
      const WmePtr& victim = all[rng.Uniform(all.size())];
      if (kind == 2) {
        delta.Delete(victim->id());
      } else {
        // Modify the last (int) field.
        size_t field = victim->arity() - 1;
        delta.Modify(victim->id(),
                     {{field, Value::Int(static_cast<int64_t>(
                                  rng.Uniform(6)))}});
      }
    }
    auto change = wm.Apply(delta);
    ASSERT_TRUE(change.ok()) << change.status();
    rete->ApplyChange(change.ValueOrDie());
    naive->ApplyChange(change.ValueOrDie());
    treat->ApplyChange(change.ValueOrDie());
    ASSERT_EQ(Keys(*rete), Keys(*naive))
        << "divergence at step " << step << " (seed " << seed
        << ") after " << delta.ToString() << "\nprogram:\n"
        << source;
    ASSERT_EQ(Keys(*treat), Keys(*naive))
        << "treat divergence at step " << step << " (seed " << seed
        << ") after " << delta.ToString() << "\nprogram:\n"
        << source;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReteVsNaive,
                         ::testing::Range<uint64_t>(1, 21));

/// Random programs over a small graph whose joins are mostly equalities.
class IndexedProgramBuilder {
 public:
  explicit IndexedProgramBuilder(Random* rng) : rng_(*rng) {}

  std::string Build() {
    std::string out = R"(
(relation node (id number) (color symbol) (w number))
(relation edge (src number) (dst number) (color symbol))
(relation flag (id number) (color symbol))
)";
    const int num_rules = 3 + static_cast<int>(rng_.Uniform(3));
    for (int r = 0; r < num_rules; ++r) out += BuildRule(r);
    for (int i = 0, n = 4 + static_cast<int>(rng_.Uniform(5)); i < n; ++i) {
      out += "(make node ^id " + Num() + " ^color " + Color() + " ^w " +
             Num() + ")\n";
    }
    for (int i = 0, n = 4 + static_cast<int>(rng_.Uniform(7)); i < n; ++i) {
      out += "(make edge ^src " + Num() + " ^dst " + Num() + " ^color " +
             Color() + ")\n";
    }
    for (int i = 0, n = static_cast<int>(rng_.Uniform(4)); i < n; ++i) {
      out += "(make flag ^id " + Num() + " ^color " + Color() + ")\n";
    }
    return out;
  }

  /// A join-key number: 0..3 as an int or an integral float, sometimes a
  /// non-integral float that equals only itself.
  Value NumValue() {
    const int64_t k = static_cast<int64_t>(rng_.Uniform(4));
    switch (rng_.Uniform(5)) {
      case 0:
      case 1:
        return Value::Float(static_cast<double>(k));
      case 2:
        return Value::Float(static_cast<double>(k) + 0.5);
      default:
        return Value::Int(k);
    }
  }

  Value ColorValue() { return Value::Symbol(Color()); }

 private:
  std::string Num() {
    const Value v = NumValue();
    if (v.is_int()) return std::to_string(v.AsInt());
    const double d = v.AsFloat();
    return d == static_cast<double>(static_cast<int64_t>(d))
               ? std::to_string(static_cast<int64_t>(d)) + ".0"
               : std::to_string(d);
  }

  std::string Color() {
    static const char* kColors[] = {"red", "green", "blue"};
    return kColors[rng_.Uniform(3)];
  }

  std::string BuildRule(int index) {
    std::string out = "(rule r" + std::to_string(index) +
                      "\n  (node ^id <i> ^color <c> ^w <w>)";
    // Rules 0-2 pin the shapes every program must have: `edge` probed on
    // src and on dst (one alpha memory, two indexes), and a CE with two
    // equality tests. Later rules pick any shape, including a symbol key
    // and a CE with no equality at all.
    const uint64_t shape = index < 3 ? index : rng_.Uniform(5);
    static const char* kEdges[] = {
        "(edge ^src <i> ^dst <j>)",
        "(edge ^dst <i> ^src <j>)",
        "(edge ^src <i> ^color <c> ^dst <j>)",
        "(edge ^color <c> ^dst <j>)",
        "(edge ^src { > <w> } ^dst <j>)",
    };
    out += std::string("\n  ") + kEdges[shape];
    if (rng_.Bernoulli(0.5)) out += "\n  (node ^id <j> ^color <c2>)";
    // Rule 0 always carries a negation with an equality join.
    static const char* kFlags[] = {
        "-(flag ^id <i>)",
        "-(flag ^id <j> ^color <c>)",
        "-(flag ^color <c>)",
        "-(flag ^id { < <w> })",
    };
    if (index == 0) {
      out += std::string("\n  ") + kFlags[0];
    } else if (rng_.Bernoulli(0.6)) {
      out += std::string("\n  ") + kFlags[rng_.Uniform(4)];
    }
    return out + "\n  -->\n  (remove 1))\n";
  }

  Random& rng_;
};

class IndexedReteVsNaive : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexedReteVsNaive, ConflictSetsAgreeUnderRandomMutations) {
  const uint64_t seed = GetParam();
  Random rng(seed * 7919);
  IndexedProgramBuilder builder(&rng);
  std::string source = builder.Build();

  WorkingMemory wm;
  auto rules_or = LoadProgram(source, &wm);
  ASSERT_TRUE(rules_or.ok()) << rules_or.status() << "\nprogram:\n"
                             << source;
  RuleSetPtr rules = rules_or.ValueOrDie();

  auto rete = CreateMatcher(MatcherKind::kRete);
  auto naive = CreateMatcher(MatcherKind::kNaive);
  auto treat = CreateMatcher(MatcherKind::kTreat);
  ASSERT_TRUE(rete->Initialize(rules, wm).ok());
  ASSERT_TRUE(naive->Initialize(rules, wm).ok());
  ASSERT_TRUE(treat->Initialize(rules, wm).ok());
  ASSERT_EQ(Keys(*rete), Keys(*naive)) << "divergence at init\n" << source;
  ASSERT_EQ(Keys(*treat), Keys(*naive))
      << "treat divergence at init\n" << source;

  const SymbolId kRelations[] = {Sym("node"), Sym("edge"), Sym("flag")};
  size_t peak = naive->conflict_set().size();
  for (int step = 0; step < 80; ++step) {
    Delta delta;
    const uint64_t kind = rng.Uniform(4);
    if (kind == 0) {
      const SymbolId rel = kRelations[rng.Uniform(3)];
      if (rel == Sym("node")) {
        delta.Create(rel, {builder.NumValue(), builder.ColorValue(),
                           builder.NumValue()});
      } else if (rel == Sym("edge")) {
        delta.Create(rel, {builder.NumValue(), builder.NumValue(),
                           builder.ColorValue()});
      } else {
        delta.Create(rel, {builder.NumValue(), builder.ColorValue()});
      }
    } else {
      std::vector<WmePtr> all;
      for (SymbolId rel : kRelations) {
        for (const auto& wme : wm.Scan(rel)) all.push_back(wme);
      }
      if (all.empty()) continue;
      const WmePtr& victim = all[rng.Uniform(all.size())];
      if (kind == 1) {
        delta.Delete(victim->id());
      } else {
        // Re-key one field: numbers stay numbers (maybe switching
        // between int and float), colors stay colors.
        const size_t field = rng.Uniform(victim->arity());
        delta.Modify(victim->id(),
                     {{field, victim->value(field).is_number()
                                  ? builder.NumValue()
                                  : builder.ColorValue()}});
      }
    }
    auto change = wm.Apply(delta);
    ASSERT_TRUE(change.ok()) << change.status();
    rete->ApplyChange(change.ValueOrDie());
    naive->ApplyChange(change.ValueOrDie());
    treat->ApplyChange(change.ValueOrDie());
    ASSERT_EQ(Keys(*rete), Keys(*naive))
        << "divergence at step " << step << " (seed " << seed
        << ") after " << delta.ToString() << "\nprogram:\n"
        << source;
    ASSERT_EQ(Keys(*treat), Keys(*naive))
        << "treat divergence at step " << step << " (seed " << seed
        << ") after " << delta.ToString() << "\nprogram:\n"
        << source;
    peak = std::max(peak, naive->conflict_set().size());
  }
  EXPECT_GT(peak, 0u) << "no rule ever matched\n" << source;
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexedReteVsNaive,
                         ::testing::Range<uint64_t>(1, 31));

TEST(ReteVsNaive, LogisticsWorkloadAgrees) {
  RuleSetPtr rules;
  auto wm = testing::MakeLogisticsWm(8, 4, 5, &rules);
  auto rete = CreateMatcher(MatcherKind::kRete);
  auto naive = CreateMatcher(MatcherKind::kNaive);
  ASSERT_TRUE(rete->Initialize(rules, *wm).ok());
  ASSERT_TRUE(naive->Initialize(rules, *wm).ok());
  EXPECT_EQ(Keys(*rete), Keys(*naive));
  EXPECT_GT(rete->conflict_set().size(), 0u);
}

}  // namespace
}  // namespace dbps
