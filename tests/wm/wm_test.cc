#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "wm/working_memory.h"

namespace dbps {
namespace {

class WorkingMemoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(wm_.CreateRelation("box", {{"id", AttrType::kInt},
                                           {"at", AttrType::kSymbol},
                                           {"weight", AttrType::kInt}})
                    .ok());
    ASSERT_TRUE(
        wm_.CreateRelation("robot", {{"name", AttrType::kSymbol},
                                     {"holding", AttrType::kAny}})
            .ok());
  }

  WorkingMemory wm_;
};

// --- schema ------------------------------------------------------------

TEST_F(WorkingMemoryTest, DuplicateRelationRejected) {
  Status st = wm_.CreateRelation("box", {{"id", AttrType::kInt}});
  EXPECT_TRUE(st.IsAlreadyExists());
}

TEST_F(WorkingMemoryTest, SchemaLookup) {
  auto schema = wm_.catalog().GetRelation(Sym("box"));
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ((*schema)->arity(), 3u);
  EXPECT_EQ((*schema)->AttrIndex(Sym("at")).value(), 1u);
  EXPECT_FALSE((*schema)->AttrIndex(Sym("nope")).has_value());
  EXPECT_TRUE(wm_.catalog().GetRelation(Sym("missing")).status().IsNotFound());
}

TEST(RelationSchema, TypeChecking) {
  RelationSchema schema(Sym("typed"), {AttrDef{Sym("n"), AttrType::kInt},
                                       AttrDef{Sym("s"), AttrType::kSymbol}});
  EXPECT_TRUE(
      schema.CheckTuple({Value::Int(1), Value::Symbol("ok")}).ok());
  // nil is admissible anywhere.
  EXPECT_TRUE(schema.CheckTuple({Value::Nil(), Value::Nil()}).ok());
  // Wrong arity.
  EXPECT_TRUE(schema.CheckTuple({Value::Int(1)}).IsTypeError());
  // Wrong type.
  EXPECT_TRUE(schema.CheckTuple({Value::Symbol("x"), Value::Symbol("y")})
                  .IsTypeError());
}

TEST(RelationSchema, NumberTypeAdmitsIntAndFloat) {
  RelationSchema schema(Sym("numrel"), {AttrDef{Sym("v"), AttrType::kNumber}});
  EXPECT_TRUE(schema.CheckTuple({Value::Int(1)}).ok());
  EXPECT_TRUE(schema.CheckTuple({Value::Float(1.5)}).ok());
  EXPECT_TRUE(schema.CheckTuple({Value::Symbol("x")}).IsTypeError());
}

// --- insert/delete/get ------------------------------------------------------

TEST_F(WorkingMemoryTest, InsertAssignsIdsAndTags) {
  auto a = wm_.Insert("box", {Value::Int(1), Value::Symbol("dock"),
                              Value::Int(10)});
  auto b = wm_.Insert("box", {Value::Int(2), Value::Symbol("dock"),
                              Value::Int(20)});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LT((*a)->id(), (*b)->id());
  EXPECT_LT((*a)->tag(), (*b)->tag());
  EXPECT_EQ(wm_.Count(Sym("box")), 2u);
  EXPECT_EQ(wm_.TotalCount(), 2u);
}

TEST_F(WorkingMemoryTest, InsertChecksSchema) {
  EXPECT_TRUE(wm_.Insert("box", {Value::Int(1)}).status().IsTypeError());
  EXPECT_TRUE(wm_.Insert("nope", {}).status().IsNotFound());
  EXPECT_TRUE(wm_.Insert("box", {Value::Symbol("x"), Value::Symbol("d"),
                                 Value::Int(1)})
                  .status()
                  .IsTypeError());
}

TEST_F(WorkingMemoryTest, GetAndIsCurrent) {
  auto wme = wm_.Insert("box", {Value::Int(1), Value::Symbol("a"),
                                Value::Int(5)})
                 .ValueOrDie();
  EXPECT_EQ(wm_.Get(wme->id())->tag(), wme->tag());
  EXPECT_TRUE(wm_.IsCurrent(wme->id(), wme->tag()));
  EXPECT_FALSE(wm_.IsCurrent(wme->id(), wme->tag() + 1));
  EXPECT_EQ(wm_.Get(9999), nullptr);
}

TEST_F(WorkingMemoryTest, DeleteRemoves) {
  auto wme = wm_.Insert("box", {Value::Int(1), Value::Symbol("a"),
                                Value::Int(5)})
                 .ValueOrDie();
  auto removed = wm_.Delete(wme->id());
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ((*removed)->id(), wme->id());
  EXPECT_EQ(wm_.Get(wme->id()), nullptr);
  EXPECT_EQ(wm_.Count(Sym("box")), 0u);
  EXPECT_TRUE(wm_.Delete(wme->id()).status().IsNotFound());
}

// --- scans & indexes -----------------------------------------------------

TEST_F(WorkingMemoryTest, ScanAndLookup) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(wm_.Insert("box",
                           {Value::Int(i),
                            Value::Symbol(i % 2 == 0 ? "even" : "odd"),
                            Value::Int(i * 10)})
                    .ok());
  }
  EXPECT_EQ(wm_.Scan(Sym("box")).size(), 10u);
  EXPECT_EQ(wm_.Scan(Sym("robot")).size(), 0u);
  // Unindexed lookup falls back to a scan.
  EXPECT_EQ(wm_.Lookup(Sym("box"), 1, Value::Symbol("even")).size(), 5u);
}

TEST_F(WorkingMemoryTest, IndexedLookupMatchesScan) {
  ASSERT_TRUE(wm_.CreateIndex(Sym("box"), Sym("at")).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(wm_.Insert("box",
                           {Value::Int(i),
                            Value::Symbol(i % 3 == 0 ? "a" : "b"),
                            Value::Int(i)})
                    .ok());
  }
  EXPECT_EQ(wm_.Lookup(Sym("box"), 1, Value::Symbol("a")).size(), 7u);
  EXPECT_EQ(wm_.Lookup(Sym("box"), 1, Value::Symbol("b")).size(), 13u);
  EXPECT_EQ(wm_.Lookup(Sym("box"), 1, Value::Symbol("c")).size(), 0u);
}

TEST_F(WorkingMemoryTest, IndexCreatedAfterInsertsBackfills) {
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        wm_.Insert("box", {Value::Int(i), Value::Symbol("spot"),
                           Value::Int(i)})
            .ok());
  }
  ASSERT_TRUE(wm_.CreateIndex(Sym("box"), Sym("at")).ok());
  EXPECT_EQ(wm_.Lookup(Sym("box"), 1, Value::Symbol("spot")).size(), 6u);
}

TEST_F(WorkingMemoryTest, IndexMaintainedAcrossDelta) {
  ASSERT_TRUE(wm_.CreateIndex(Sym("box"), Sym("at")).ok());
  auto wme = wm_.Insert("box", {Value::Int(1), Value::Symbol("a"),
                                Value::Int(1)})
                 .ValueOrDie();
  Delta delta;
  delta.Modify(wme->id(), {{1, Value::Symbol("b")}});
  ASSERT_TRUE(wm_.Apply(delta).ok());
  EXPECT_EQ(wm_.Lookup(Sym("box"), 1, Value::Symbol("a")).size(), 0u);
  EXPECT_EQ(wm_.Lookup(Sym("box"), 1, Value::Symbol("b")).size(), 1u);
}

// Property: an indexed Lookup returns exactly the rows a scan does, for
// numeric keys where hashing is easy to get wrong — ints around 2^53 and
// 2^60 next to the floats they round to, +0.0 and -0.0, NaNs of two
// payloads, and int/float pairs — through inserts and deletes. The same
// rows live in an indexed relation and an unindexed twin.
TEST(WorkingMemoryIndex, IndexedLookupEqualsScanForNumericEdgeKeys) {
  WorkingMemory wm;
  ASSERT_TRUE(wm.CreateRelation("indexed", {{"k", AttrType::kNumber}}).ok());
  ASSERT_TRUE(wm.CreateRelation("scanned", {{"k", AttrType::kNumber}}).ok());
  ASSERT_TRUE(wm.CreateIndex(Sym("indexed"), Sym("k")).ok());

  constexpr int64_t k53 = int64_t{1} << 53;
  constexpr int64_t k60 = int64_t{1} << 60;
  const std::vector<Value> pool = {
      Value::Int(k53 - 1), Value::Int(k53), Value::Int(k53 + 1),
      Value::Int(k53 + 2), Value::Float(static_cast<double>(k53)),
      Value::Float(static_cast<double>(k53 + 2)), Value::Int(k60),
      Value::Int(k60 + 1), Value::Float(static_cast<double>(k60)),
      Value::Int(std::numeric_limits<int64_t>::max()),
      Value::Float(9223372036854775808.0), Value::Int(0),
      Value::Float(0.0), Value::Float(-0.0),
      Value::Float(std::nan("")), Value::Float(std::nan("7")),
      Value::Int(3), Value::Float(3.0), Value::Float(3.5), Value::Int(-1),
      Value::Float(-1.0)};

  auto rows = [&](const char* relation, const Value& key) {
    std::vector<std::string> out;
    for (const WmePtr& wme : wm.Lookup(Sym(relation), 0, key)) {
      out.push_back(wme->value(0).ToString());
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  auto expect_lookups_agree = [&](int step) {
    for (const Value& key : pool) {
      EXPECT_EQ(rows("indexed", key), rows("scanned", key))
          << "key " << key.ToString() << " after step " << step;
    }
  };

  std::mt19937 rng(20261019);
  std::vector<std::pair<WmeId, WmeId>> live;  // (indexed, scanned) twins
  for (int step = 0; step < 300; ++step) {
    if (!live.empty() && rng() % 3 == 0) {
      const size_t victim = rng() % live.size();
      ASSERT_TRUE(wm.Delete(live[victim].first).ok());
      ASSERT_TRUE(wm.Delete(live[victim].second).ok());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else {
      const Value& v = pool[rng() % pool.size()];
      const WmeId a = wm.Insert("indexed", {v}).ValueOrDie()->id();
      const WmeId b = wm.Insert("scanned", {v}).ValueOrDie()->id();
      live.emplace_back(a, b);
    }
    if (step % 10 == 0) expect_lookups_agree(step);
  }
  expect_lookups_agree(300);
  // Deleting every row empties every bucket, NaN keys included.
  for (const auto& [a, b] : live) {
    ASSERT_TRUE(wm.Delete(a).ok());
    ASSERT_TRUE(wm.Delete(b).ok());
  }
  for (const Value& key : pool) {
    EXPECT_TRUE(wm.Lookup(Sym("indexed"), 0, key).empty());
  }
}

TEST_F(WorkingMemoryTest, DuplicateIndexRejected) {
  ASSERT_TRUE(wm_.CreateIndex(Sym("box"), Sym("at")).ok());
  EXPECT_TRUE(wm_.CreateIndex(Sym("box"), Sym("at")).IsAlreadyExists());
  EXPECT_TRUE(wm_.CreateIndex(Sym("box"), Sym("zzz")).IsNotFound());
}

// --- Delta / Apply -----------------------------------------------------

TEST_F(WorkingMemoryTest, ApplyCreateModifyDelete) {
  auto wme = wm_.Insert("box", {Value::Int(1), Value::Symbol("a"),
                                Value::Int(5)})
                 .ValueOrDie();

  Delta delta;
  delta.Create(Sym("robot"), {Value::Symbol("r2"), Value::Nil()});
  delta.Modify(wme->id(), {{2, Value::Int(6)}});
  auto change_or = wm_.Apply(delta);
  ASSERT_TRUE(change_or.ok());
  const WmChange& change = change_or.ValueOrDie();

  // One create + one modify = 2 added, 1 removed.
  EXPECT_EQ(change.added.size(), 2u);
  EXPECT_EQ(change.removed.size(), 1u);
  EXPECT_EQ(change.removed[0]->tag(), wme->tag());

  // The modify keeps the id, bumps the tag, changes the field.
  WmePtr updated = wm_.Get(wme->id());
  EXPECT_EQ(updated->id(), wme->id());
  EXPECT_GT(updated->tag(), wme->tag());
  EXPECT_EQ(updated->value(2), Value::Int(6));
  // Untouched fields preserved.
  EXPECT_EQ(updated->value(1), Value::Symbol("a"));

  Delta del;
  del.Delete(wme->id());
  ASSERT_TRUE(wm_.Apply(del).ok());
  EXPECT_EQ(wm_.Get(wme->id()), nullptr);
}

TEST_F(WorkingMemoryTest, ApplyIsAtomicOnFailure) {
  auto wme = wm_.Insert("box", {Value::Int(1), Value::Symbol("a"),
                                Value::Int(5)})
                 .ValueOrDie();
  Delta delta;
  delta.Create(Sym("robot"), {Value::Symbol("r2"), Value::Nil()});
  delta.Delete(9999);  // dead — whole delta must be rejected
  EXPECT_TRUE(wm_.Apply(delta).status().IsNotFound());
  EXPECT_EQ(wm_.Count(Sym("robot")), 0u);  // create was not applied
  EXPECT_TRUE(wm_.IsCurrent(wme->id(), wme->tag()));
}

TEST_F(WorkingMemoryTest, ApplyRejectsModifyAfterDeleteOfSameWme) {
  auto wme = wm_.Insert("box", {Value::Int(1), Value::Symbol("a"),
                                Value::Int(5)})
                 .ValueOrDie();
  Delta delta;
  delta.Delete(wme->id());
  delta.Modify(wme->id(), {{2, Value::Int(9)}});
  EXPECT_FALSE(wm_.Apply(delta).ok());
}

TEST_F(WorkingMemoryTest, ApplyAllowsModifyThenDelete) {
  auto wme = wm_.Insert("box", {Value::Int(1), Value::Symbol("a"),
                                Value::Int(5)})
                 .ValueOrDie();
  Delta delta;
  delta.Modify(wme->id(), {{2, Value::Int(9)}});
  delta.Delete(wme->id());
  auto change = wm_.Apply(delta);
  ASSERT_TRUE(change.ok()) << change.status();
  EXPECT_EQ(wm_.Get(wme->id()), nullptr);
}

TEST_F(WorkingMemoryTest, DeterministicIdAssignment) {
  // Identical deltas applied to clones assign identical ids — the
  // property the replay validator depends on.
  auto clone = wm_.Clone();
  Delta delta;
  delta.Create(Sym("box"),
               {Value::Int(7), Value::Symbol("z"), Value::Int(1)});
  delta.Create(Sym("robot"), {Value::Symbol("r"), Value::Nil()});
  auto a = wm_.Apply(delta).ValueOrDie();
  auto b = clone->Apply(delta).ValueOrDie();
  ASSERT_EQ(a.added.size(), b.added.size());
  for (size_t i = 0; i < a.added.size(); ++i) {
    EXPECT_EQ(a.added[i]->id(), b.added[i]->id());
    EXPECT_EQ(a.added[i]->tag(), b.added[i]->tag());
  }
}

TEST_F(WorkingMemoryTest, CloneIsIndependent) {
  auto wme = wm_.Insert("box", {Value::Int(1), Value::Symbol("a"),
                                Value::Int(5)})
                 .ValueOrDie();
  auto clone = wm_.Clone();
  ASSERT_TRUE(wm_.Delete(wme->id()).ok());
  EXPECT_EQ(clone->Count(Sym("box")), 1u);
  EXPECT_EQ(wm_.Count(Sym("box")), 0u);
}

TEST(Delta, EqualityAndToString) {
  Delta a, b;
  a.Create(Sym("r-delta"), {Value::Int(1)});
  b.Create(Sym("r-delta"), {Value::Int(1)});
  EXPECT_TRUE(a == b);
  b.SetHalt();
  EXPECT_FALSE(a == b);
  EXPECT_NE(b.ToString().find("halt"), std::string::npos);
  Delta c;
  c.Modify(3, {{0, Value::Int(2)}});
  Delta d;
  d.Delete(3);
  EXPECT_FALSE(c == d);
  EXPECT_TRUE(Delta{} == Delta{});
  EXPECT_TRUE(Delta{}.empty());
}

}  // namespace
}  // namespace dbps
