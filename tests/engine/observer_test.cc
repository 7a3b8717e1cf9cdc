// EngineObserver lifecycle events.

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>

#include "engine/parallel_engine.h"
#include "engine/single_thread_engine.h"
#include "lang/compiler.h"

namespace dbps {
namespace {

TEST(Observer, SingleThreadCommitEvents) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation t (v int))
(rule consume (t ^v <v>) --> (remove 1))
(make t ^v 1)
(make t ^v 2)
(make t ^v 3)
)",
                           &wm)
                   .ValueOrDie();
  std::vector<std::string> commits;
  uint64_t batch_ends = 0;
  uint64_t run_ends = 0;
  uint64_t last_seq = 0;
  EngineOptions options;
  options.observer = [&](const EngineEvent& event) {
    if (event.kind == EngineEvent::Kind::kBatchEnd) {
      ++batch_ends;
      return;
    }
    if (event.kind == EngineEvent::Kind::kRunEnd) {
      ++run_ends;
      EXPECT_EQ(event.seq, commits.size());
      return;
    }
    ASSERT_EQ(run_ends, 0u) << "an event after kRunEnd";
    ASSERT_EQ(event.kind, EngineEvent::Kind::kCommit);
    commits.push_back(event.key->rule_name);
    last_seq = event.seq;
  };
  SingleThreadEngine engine(&wm, rules, options);
  auto result = engine.Run().ValueOrDie();
  ASSERT_EQ(commits.size(), result.stats.firings);
  for (const auto& name : commits) EXPECT_EQ(name, "consume");
  // The single-thread engine commits in batches of one: every commit is
  // followed by its own batch-end, and commit seqs count up from 0.
  EXPECT_EQ(batch_ends, commits.size());
  EXPECT_EQ(last_seq + 1, result.stats.firings);
  EXPECT_EQ(run_ends, 1u);
}

TEST(Observer, ParallelEventsMatchStats) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation hot (v int))
(rule bump :cost 100 (hot ^v { < 25 } ^v <v>) --> (modify 1 ^v (+ <v> 1)))
(make hot ^v 0)
)",
                           &wm)
                   .ValueOrDie();
  std::mutex mu;
  uint64_t commits = 0, aborts = 0, stales = 0, batch_ends = 0, run_ends = 0;
  uint64_t commits_at_last_batch_end = 0;
  ParallelEngineOptions options;
  options.num_workers = 4;
  options.base.observer = [&](const EngineEvent& event) {
    std::lock_guard<std::mutex> guard(mu);
    switch (event.kind) {
      case EngineEvent::Kind::kCommit:
        ++commits;
        break;
      case EngineEvent::Kind::kAbort:
        ++aborts;
        break;
      case EngineEvent::Kind::kStale:
        ++stales;
        break;
      case EngineEvent::Kind::kBatchEnd:
        ++batch_ends;
        commits_at_last_batch_end = commits;
        // The post-batch high-water mark equals commits seen so far: no
        // commit event is ever still pending at its batch boundary.
        EXPECT_EQ(event.seq, commits);
        break;
      case EngineEvent::Kind::kRunEnd:
        ++run_ends;
        EXPECT_EQ(event.seq, commits);
        break;
    }
  };
  ParallelEngine engine(&wm, rules, options);
  auto result = engine.Run().ValueOrDie();
  EXPECT_EQ(commits, result.stats.firings);
  EXPECT_EQ(aborts, result.stats.aborts);
  EXPECT_EQ(stales, result.stats.stale_skips);
  EXPECT_EQ(commits, 25u);
  // Batches group >= 1 commits, and every commit belongs to a batch.
  EXPECT_GE(batch_ends, 1u);
  EXPECT_LE(batch_ends, commits);
  EXPECT_EQ(commits_at_last_batch_end, commits);
  EXPECT_EQ(run_ends, 1u);
}

TEST(Observer, CommitEventsAreInCommitOrder) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation t (v int))
(rule consume (t ^v <v>) --> (remove 1))
)",
                           &wm)
                   .ValueOrDie();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(wm.Insert("t", {Value::Int(i)}).ok());
  }
  std::vector<std::string> keys;  // guarded by the commit lock
  ParallelEngineOptions options;
  options.num_workers = 4;
  options.base.observer = [&keys](const EngineEvent& event) {
    if (event.kind == EngineEvent::Kind::kCommit) {
      keys.push_back(event.key->ToString());
    }
  };
  ParallelEngine engine(&wm, rules, options);
  auto result = engine.Run().ValueOrDie();
  ASSERT_EQ(keys.size(), result.log.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(keys[i], result.log[i].key.ToString());
  }
}

}  // namespace
}  // namespace dbps
