// PartitionedMatcher differential + stress tests.
//
// The core property: a PartitionedMatcher over any (partitions, inner
// algorithm) combination reaches a conflict set that dumps
// byte-identically to the unpartitioned serial matcher after EVERY batch
// of a randomized multi-relation workload — including cross-partition
// joins (handoffs) and single-relation skew. A TSan-targeted stress test
// additionally hammers the shared conflict set with concurrent
// Claim/Contains readers while batches propagate, which is exactly the
// engine's access pattern.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "dbps.h"
#include "match/partitioned_matcher.h"

namespace dbps {
namespace {

// Four relations, rules that join across them (fill, shipped) and rules
// local to one relation (low, watch) — so routing exercises both the
// home-partition path and cross-partition handoffs.
constexpr const char* kWorkloadProgram = R"(
(relation order (id int) (qty int))
(relation stock (id int) (qty int))
(relation ship (id int))
(relation alert (id int))

(rule fill
  (order ^id <i> ^qty <q>)
  (stock ^id <i> ^qty { > 0 })
  -->
  (remove 1))

(rule low
  (stock ^id <i> ^qty { < 2 })
  -->
  (remove 1))

(rule shipped
  (ship ^id <i>)
  (order ^id <i> ^qty <q>)
  -->
  (remove 1))

(rule watch
  (alert ^id <i>)
  -->
  (remove 1))
)";

/// One randomized batch against `wm`: a single multi-op delta (creates,
/// deletes, modifies over distinct WMEs), applied to the WM and returned
/// as the engine-shaped change list.
std::vector<WmChange> RandomBatch(WorkingMemory* wm, Random* rng) {
  Delta delta;
  const size_t ops = 1 + rng->Uniform(5);
  std::vector<WmeId> touched;
  auto untouched = [&](WmeId id) {
    for (WmeId t : touched) {
      if (t == id) return false;
    }
    return true;
  };
  for (size_t op = 0; op < ops; ++op) {
    switch (rng->Uniform(4)) {
      case 0:
        delta.Create(Sym("order"),
                     {Value::Int(static_cast<int64_t>(rng->Uniform(8))),
                      Value::Int(static_cast<int64_t>(rng->Uniform(5)))});
        break;
      case 1:
        delta.Create(Sym("stock"),
                     {Value::Int(static_cast<int64_t>(rng->Uniform(8))),
                      Value::Int(static_cast<int64_t>(rng->Uniform(4)))});
        break;
      case 2: {
        const SymbolId rel = rng->Uniform(2) == 0 ? Sym("ship") : Sym("alert");
        delta.Create(rel,
                     {Value::Int(static_cast<int64_t>(rng->Uniform(8)))});
        break;
      }
      case 3: {
        // Delete or modify one existing row (skipping rows this batch
        // already touched — commit batches are pairwise disjoint).
        const SymbolId rel = rng->Uniform(2) == 0 ? Sym("order") : Sym("stock");
        auto rows = wm->Scan(rel);
        if (rows.empty()) break;
        const WmePtr& row = rows[rng->Uniform(rows.size())];
        if (!untouched(row->id())) break;
        touched.push_back(row->id());
        if (rng->Uniform(3) == 0 && rel == Sym("stock")) {
          delta.Modify(row->id(),
                       {{1, Value::Int(static_cast<int64_t>(
                                rng->Uniform(6)))}});
        } else {
          delta.Delete(row->id());
        }
        break;
      }
    }
  }
  auto change_or = wm->Apply(delta);
  DBPS_CHECK(change_or.ok()) << change_or.status();
  return {std::move(change_or).ValueOrDie()};
}

class PartitionedEquivalenceTest
    : public ::testing::TestWithParam<MatcherKind> {};

// The differential gate, unit-sized: serial matcher and partitioned
// matcher consume the identical change stream; their conflict sets must
// dump byte-identically after initialization and after every batch.
TEST_P(PartitionedEquivalenceTest, MatchesSerialByteForByte) {
  const MatcherKind kind = GetParam();

  WorkingMemory wm;
  auto rules = LoadProgram(kWorkloadProgram, &wm).ValueOrDie();
  // Pre-populate so initialization is non-trivial.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        wm.Insert("order", {Value::Int(i), Value::Int(i % 3)}).ok());
    ASSERT_TRUE(
        wm.Insert("stock", {Value::Int(i), Value::Int((i + 1) % 4)}).ok());
  }

  auto serial = CreateMatcher(kind);
  ASSERT_TRUE(serial->Initialize(rules, wm).ok());

  PartitionedMatcher::Options options;
  options.num_partitions = 4;
  options.inner = kind;
  PartitionedMatcher partitioned(options);
  ASSERT_TRUE(partitioned.Initialize(rules, wm).ok());

  EXPECT_EQ(serial->conflict_set().CanonicalDump(),
            partitioned.conflict_set().CanonicalDump());

  Random rng(1235 + static_cast<uint64_t>(kind) * 100);
  for (int batch = 0; batch < 60; ++batch) {
    const std::vector<WmChange> changes = RandomBatch(&wm, &rng);
    serial->ApplyChanges(changes);
    partitioned.ApplyChanges(changes);
    ASSERT_EQ(serial->conflict_set().CanonicalDump(),
              partitioned.conflict_set().CanonicalDump())
        << "diverged at batch " << batch << " (" << MatcherKindToString(kind)
        << ")";
  }

  const PartitionedMatcher::Stats stats = partitioned.GetStats();
  EXPECT_EQ(stats.batches, 60u);
  EXPECT_GT(stats.morsels, 0u);
  // `fill` and `shipped` join relations that may be homed elsewhere;
  // handoffs occur whenever two joined relations hash to different
  // partitions (relation-name dependent, so only assert consistency).
  uint64_t per_partition_routed = 0;
  for (const auto& p : stats.partitions) per_partition_routed += p.wmes_routed;
  EXPECT_GT(per_partition_routed, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllInnerKinds, PartitionedEquivalenceTest,
    ::testing::Values(MatcherKind::kRete, MatcherKind::kTreat),
    [](const ::testing::TestParamInfo<MatcherKind>& info) {
      return std::string(MatcherKindToString(info.param));
    });

// The in-process shadow check (the chaos trials' differential) agrees
// with itself: a full random run under shadow_check never trips.
TEST(PartitionedMatcherShadowTest, ShadowStaysClean) {
  WorkingMemory wm;
  auto rules = LoadProgram(kWorkloadProgram, &wm).ValueOrDie();
  // Pre-populate: the shadow must also track activations captured during
  // initialization, not just post-init batches.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(wm.Insert("order", {Value::Int(i), Value::Int(2)}).ok());
    ASSERT_TRUE(wm.Insert("stock", {Value::Int(i), Value::Int(1)}).ok());
  }
  PartitionedMatcher::Options options;
  options.num_partitions = 8;
  options.shadow_check = true;
  PartitionedMatcher matcher(options);
  ASSERT_TRUE(matcher.Initialize(rules, wm).ok());
  Random rng(99);
  for (int batch = 0; batch < 40; ++batch) {
    matcher.ApplyChanges(RandomBatch(&wm, &rng));
    ASSERT_TRUE(matcher.shadow_status().ok()) << matcher.shadow_status();
  }
}

// Skew: a workload touching ONE relation routes every WME to a single
// partition — one morsel per batch, no handoffs, top skew bin — i.e. the
// partitioned matcher degrades to exactly the serial matcher's work, not
// worse (plus the merge replay, which is O(events)).
TEST(PartitionedMatcherSkewTest, SingleRelationDegradesToSerial) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation hot (id int) (v int))
(rule hot-high (hot ^id <i> ^v { > 5 }) --> (remove 1))
(rule hot-low (hot ^id <i> ^v { < 2 }) --> (remove 1))
)",
                           &wm)
                   .ValueOrDie();
  PartitionedMatcher::Options options;
  options.num_partitions = 8;
  PartitionedMatcher matcher(options);
  ASSERT_TRUE(matcher.Initialize(rules, wm).ok());

  auto serial = CreateMatcher(MatcherKind::kRete);
  ASSERT_TRUE(serial->Initialize(rules, wm).ok());

  Random rng(7);
  for (int batch = 0; batch < 20; ++batch) {
    Delta delta;
    for (int i = 0; i < 4; ++i) {
      delta.Create(Sym("hot"),
                   {Value::Int(static_cast<int64_t>(rng.Uniform(100))),
                    Value::Int(static_cast<int64_t>(rng.Uniform(10)))});
    }
    auto change_or = wm.Apply(delta);
    ASSERT_TRUE(change_or.ok());
    std::vector<WmChange> changes{std::move(change_or).ValueOrDie()};
    serial->ApplyChanges(changes);
    matcher.ApplyChanges(changes);
    ASSERT_EQ(serial->conflict_set().CanonicalDump(),
              matcher.conflict_set().CanonicalDump());
  }

  const PartitionedMatcher::Stats stats = matcher.GetStats();
  EXPECT_EQ(stats.batches, 20u);
  // All work in the home partition: one morsel per batch, nothing else.
  EXPECT_EQ(stats.morsels, stats.batches);
  EXPECT_EQ(stats.handoffs, 0u);
  const size_t home = matcher.PartitionOfRelation(Sym("hot"));
  for (size_t p = 0; p < stats.partitions.size(); ++p) {
    if (p == home) {
      EXPECT_GT(stats.partitions[p].wmes_routed, 0u);
    } else {
      EXPECT_EQ(stats.partitions[p].wmes_routed, 0u);
    }
  }
  // Every batch lands in the 90-100% max-share bin.
  EXPECT_EQ(stats.skew_histogram[9], 20u);
}

// Routing invariants: the partition function is stable, bounded, and the
// same for every call (it mirrors the lock manager's shard mix).
TEST(PartitionedMatcherTest, PartitionOfRelationIsStable) {
  WorkingMemory wm;
  auto rules = LoadProgram(kWorkloadProgram, &wm).ValueOrDie();
  PartitionedMatcher::Options options;
  options.num_partitions = 8;
  PartitionedMatcher matcher(options);
  ASSERT_TRUE(matcher.Initialize(rules, wm).ok());
  for (const char* name : {"order", "stock", "ship", "alert"}) {
    const size_t p = matcher.PartitionOfRelation(Sym(name));
    EXPECT_LT(p, matcher.num_partitions());
    EXPECT_EQ(p, matcher.PartitionOfRelation(Sym(name)));
  }
}

// TSan stress: engine workers Claim/Contains/Snapshot the shared conflict
// set concurrently with propagation — a hot partition
// (every batch hits `hot`) plus a cross-partition rule, the shape the
// tentpole's data-race surface actually has. Run under
// -fsanitize=thread to verify; the assertions hold regardless.
TEST(PartitionedMatcherStressTest, ConcurrentReadersDuringPropagation) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation hot (id int) (v int))
(relation cold (id int))
(rule pair (hot ^id <i> ^v <v>) (cold ^id <i>) --> (remove 1))
(rule spike (hot ^id <i> ^v { > 7 }) --> (remove 1))
)",
                           &wm)
                   .ValueOrDie();
  PartitionedMatcher::Options options;
  options.num_partitions = 4;
  PartitionedMatcher matcher(options);
  ASSERT_TRUE(matcher.Initialize(rules, wm).ok());

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Random rng(500 + r);
      ConflictSet& cs = matcher.conflict_set();
      while (!stop.load(std::memory_order_acquire)) {
        InstPtr claimed = cs.Claim(ConflictResolution::kPriority, &rng);
        if (claimed != nullptr) {
          cs.Contains(claimed->key());
          cs.Unclaim(claimed->key());
        }
        (void)cs.Snapshot();
        (void)cs.size();
      }
    });
  }

  Random rng(41);
  for (int batch = 0; batch < 80; ++batch) {
    Delta delta;
    delta.Create(Sym("hot"),
                 {Value::Int(static_cast<int64_t>(rng.Uniform(12))),
                  Value::Int(static_cast<int64_t>(rng.Uniform(10)))});
    if (rng.Uniform(3) == 0) {
      delta.Create(Sym("cold"),
                   {Value::Int(static_cast<int64_t>(rng.Uniform(12)))});
    }
    auto change_or = wm.Apply(delta);
    ASSERT_TRUE(change_or.ok());
    matcher.ApplyChanges({std::move(change_or).ValueOrDie()});
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  // Ground truth after the dust settles: a fresh serial matcher over the
  // final WM state must agree with the incrementally-maintained set.
  auto serial = CreateMatcher(MatcherKind::kRete);
  ASSERT_TRUE(serial->Initialize(rules, wm).ok());
  EXPECT_EQ(serial->conflict_set().CanonicalDump(),
            matcher.conflict_set().CanonicalDump());
}

// ---------------------------------------------------------------------
// Skew adaptation: hot-partition value-hash splitting.

// A hot self-join workload: every batch lands on `hot`, whose only rules
// eq-join on field `k` — split-eligible, so with streak 1 the home
// partition splits after the first batch. Every subsequent batch must
// still dump byte-identically to the serial matcher, including removals,
// modifies, and the negated-CE blocker rule.
constexpr const char* kHotJoinProgram = R"(
(relation hot (k int) (v int))
(relation mark (k int))

(rule pairup
  (hot ^k <x> ^v <a>)
  (hot ^k <x> ^v { > 3 })
  -->
  (remove 1))

(rule unmarked
  (hot ^k <x> ^v { > 8 })
  -(mark ^k <x>)
  -->
  (remove 1))
)";

std::vector<WmChange> RandomHotBatch(WorkingMemory* wm, Random* rng) {
  Delta delta;
  const size_t ops = 1 + rng->Uniform(4);
  std::vector<WmeId> touched;
  for (size_t op = 0; op < ops; ++op) {
    switch (rng->Uniform(4)) {
      case 0:
      case 1:
        delta.Create(Sym("hot"),
                     {Value::Int(static_cast<int64_t>(rng->Uniform(10))),
                      Value::Int(static_cast<int64_t>(rng->Uniform(12)))});
        break;
      case 2:
        delta.Create(Sym("mark"),
                     {Value::Int(static_cast<int64_t>(rng->Uniform(10)))});
        break;
      case 3: {
        auto rows = wm->Scan(Sym("hot"));
        if (rows.empty()) break;
        const WmePtr& row = rows[rng->Uniform(rows.size())];
        if (std::find(touched.begin(), touched.end(), row->id()) !=
            touched.end()) {
          break;
        }
        touched.push_back(row->id());
        delta.Delete(row->id());
        break;
      }
    }
  }
  if (delta.empty()) {
    delta.Create(Sym("hot"), {Value::Int(0), Value::Int(0)});
  }
  auto change_or = wm->Apply(delta);
  DBPS_CHECK(change_or.ok()) << change_or.status();
  return {std::move(change_or).ValueOrDie()};
}

TEST(PartitionedSplitTest, SplitEquivalenceByteForByte) {
  for (MatcherKind kind : {MatcherKind::kRete, MatcherKind::kTreat}) {
    WorkingMemory wm;
    auto rules = LoadProgram(kHotJoinProgram, &wm).ValueOrDie();
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(
          wm.Insert("hot", {Value::Int(i % 6), Value::Int(i)}).ok());
    }
    auto serial = CreateMatcher(kind);
    ASSERT_TRUE(serial->Initialize(rules, wm).ok());

    PartitionedMatcher::Options options;
    options.num_partitions = 4;
    options.inner = kind;
    options.split_hot = true;
    options.split_ways = 3;
    options.split_streak = 1;
    options.split_share = 0.5;
    PartitionedMatcher matcher(options);
    ASSERT_TRUE(matcher.Initialize(rules, wm).ok());
    EXPECT_EQ(serial->conflict_set().CanonicalDump(),
              matcher.conflict_set().CanonicalDump());

    Random rng(4242 + static_cast<uint64_t>(kind));
    for (int batch = 0; batch < 60; ++batch) {
      const std::vector<WmChange> changes = RandomHotBatch(&wm, &rng);
      serial->ApplyChanges(changes);
      matcher.ApplyChanges(changes);
      ASSERT_EQ(serial->conflict_set().CanonicalDump(),
                matcher.conflict_set().CanonicalDump())
          << "diverged at batch " << batch << " ("
          << MatcherKindToString(kind) << ")";
    }

    const PartitionedMatcher::Stats stats = matcher.GetStats();
    EXPECT_EQ(stats.splits, 1u) << MatcherKindToString(kind);
    const size_t home = matcher.PartitionOfRelation(Sym("hot"));
    EXPECT_EQ(matcher.num_subpartitions(home), 3u);
    EXPECT_EQ(stats.partitions[home].subs, 3u);
  }
}

// A rule whose later CE joins a MIDDLE CE (not the first) is not
// split-eligible — routing by the first CE's attribute would separate
// the chained pair into different sub-partitions. The partition must
// stay hot-but-unsplit forever.
TEST(PartitionedSplitTest, TransitiveJoinChainNeverSplits) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation hot (k int) (j int))
(rule chain
  (hot ^k <x> ^j <y>)
  (hot ^k <x> ^j <z>)
  (hot ^k <w> ^j <z>)
  -->
  (remove 1))
)",
                           &wm)
                   .ValueOrDie();
  auto serial = CreateMatcher(MatcherKind::kRete);
  ASSERT_TRUE(serial->Initialize(rules, wm).ok());

  PartitionedMatcher::Options options;
  options.num_partitions = 4;
  options.split_hot = true;
  options.split_streak = 1;
  options.split_share = 0.5;
  PartitionedMatcher matcher(options);
  ASSERT_TRUE(matcher.Initialize(rules, wm).ok());

  Random rng(77);
  for (int batch = 0; batch < 20; ++batch) {
    Delta delta;
    delta.Create(Sym("hot"),
                 {Value::Int(static_cast<int64_t>(rng.Uniform(4))),
                  Value::Int(static_cast<int64_t>(rng.Uniform(4)))});
    auto change_or = wm.Apply(delta);
    ASSERT_TRUE(change_or.ok());
    std::vector<WmChange> changes{std::move(change_or).ValueOrDie()};
    serial->ApplyChanges(changes);
    matcher.ApplyChanges(changes);
    ASSERT_EQ(serial->conflict_set().CanonicalDump(),
              matcher.conflict_set().CanonicalDump());
  }
  EXPECT_EQ(matcher.GetStats().splits, 0u);
  EXPECT_EQ(matcher.num_subpartitions(matcher.PartitionOfRelation(Sym("hot"))),
            1u);
}

// TSan stress for the split surface: engine-shaped readers hammer the
// shared conflict set while batches propagate AND the matcher splits its
// hot partition mid-run. An aggressive streak knob forces the rebuild to
// actually happen while readers are live. Run under -fsanitize=thread to
// verify; assertions hold regardless.
TEST(PartitionedMatcherStressTest, ConcurrentReadersDuringSplit) {
  WorkingMemory wm;
  auto rules = LoadProgram(kHotJoinProgram, &wm).ValueOrDie();
  PartitionedMatcher::Options options;
  options.num_partitions = 4;
  options.split_hot = true;
  options.split_ways = 3;
  options.split_streak = 1;
  options.split_share = 0.5;
  PartitionedMatcher matcher(options);
  ASSERT_TRUE(matcher.Initialize(rules, wm).ok());

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Random rng(900 + r);
      ConflictSet& cs = matcher.conflict_set();
      while (!stop.load(std::memory_order_acquire)) {
        InstPtr claimed = cs.Claim(ConflictResolution::kPriority, &rng);
        if (claimed != nullptr) {
          cs.Contains(claimed->key());
          cs.Unclaim(claimed->key());
        }
        (void)cs.Snapshot();
        (void)cs.size();
      }
    });
  }

  Random rng(53);
  for (int batch = 0; batch < 80; ++batch) {
    matcher.ApplyChanges(RandomHotBatch(&wm, &rng));
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  const PartitionedMatcher::Stats stats = matcher.GetStats();
  EXPECT_GE(stats.splits, 1u);

  auto serial = CreateMatcher(MatcherKind::kRete);
  ASSERT_TRUE(serial->Initialize(rules, wm).ok());
  EXPECT_EQ(serial->conflict_set().CanonicalDump(),
            matcher.conflict_set().CanonicalDump());
}

}  // namespace
}  // namespace dbps
