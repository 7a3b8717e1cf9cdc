// JournalFeed durability edges: WaitDurable before the fsync happened,
// on an already-durable seq, and after a sticky sync failure; the
// pipelined group flush (kBatchEnd hands off and returns, kRunEnd and the
// destructor drain, a checkpoint keeps its place between batches); and
// the journal open modes — append preserves history (the recovery
// contract), fail-if-exists refuses to clobber, truncate only destroys
// when explicitly asked.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <fstream>
#include <sstream>
#include <string>

#include "dbps.h"

namespace dbps {
namespace {

using std::chrono::milliseconds;

Delta MakeItem(int64_t id) {
  Delta delta;
  delta.Create(Sym("item"), {Value::Int(id)});
  return delta;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

/// Drives a feed's observer the way an engine's commit stage does.
class FeedDriver {
 public:
  explicit FeedDriver(JournalFeed* feed) : observer_(feed->MakeObserver()) {}

  void Commit(const Delta& delta, uint64_t seq) {
    observer_(EngineEvent{EngineEvent::Kind::kCommit, nullptr, &delta, seq});
  }
  void BatchEnd(uint64_t seq) {
    observer_(EngineEvent{EngineEvent::Kind::kBatchEnd, nullptr, nullptr,
                          seq});
  }
  void RunEnd(uint64_t seq) {
    observer_(EngineEvent{EngineEvent::Kind::kRunEnd, nullptr, nullptr,
                          seq});
  }

 private:
  EngineObserver observer_;
};

/// Holds the next group's fsync back by `delay` on the flusher thread;
/// disarms every failpoint on scope exit.
class DelayNextFsync {
 public:
  explicit DelayNextFsync(std::chrono::microseconds delay) {
    FailpointRegistry::Instance().Configure(
        "server.journal.fsync_delay",
        {.one_in = 1, .max_fires = 1, .delay = delay});
  }
  ~DelayNextFsync() { FailpointRegistry::Instance().DisableAll(); }
};

TEST(JournalFeedTest, WaitDurableWithoutDurabilityOwesNothing) {
  JournalFeed feed;
  feed.Append(MakeItem(1));
  EXPECT_TRUE(feed.WaitDurable(0, milliseconds(0)).ok());
}

TEST(JournalFeedTest, WaitDurableTimesOutBeforeGroupFsync) {
  // Group mode syncs at batch boundaries; a bare Append stages the
  // record without fsyncing, so a bounded wait must time out — and say
  // so, distinctly from a sync failure.
  JournalFeed feed;
  DurabilityOptions durability;
  durability.group_commit = true;  // simulated device
  ASSERT_TRUE(feed.EnableDurability(durability).ok());
  feed.Append(MakeItem(1));
  Status st = feed.WaitDurable(0, milliseconds(50));
  EXPECT_TRUE(st.IsInternal());
  EXPECT_NE(st.message().find("timed out"), std::string::npos) << st;
  EXPECT_EQ(feed.durable_seq(), 0u);
}

TEST(JournalFeedTest, WaitDurableAlreadyDurableReturnsImmediately) {
  JournalFeed feed;
  DurabilityOptions durability;  // per-commit: Append syncs inline
  ASSERT_TRUE(feed.EnableDurability(durability).ok());
  feed.Append(MakeItem(1));
  EXPECT_EQ(feed.durable_seq(), 1u);
  // Zero timeout: the verdict must already be in.
  EXPECT_TRUE(feed.WaitDurable(0, milliseconds(0)).ok());
}

TEST(JournalFeedTest, StartSeqInitializesTheDurableHorizon) {
  // After recovery the reopened feed starts at next_seq: every recovered
  // seq below it is already durable and must not block.
  JournalFeed feed;
  DurabilityOptions durability;
  durability.start_seq = 5;
  ASSERT_TRUE(feed.EnableDurability(durability).ok());
  EXPECT_EQ(feed.durable_seq(), 5u);
  EXPECT_TRUE(feed.WaitDurable(4, milliseconds(0)).ok());
  EXPECT_FALSE(feed.WaitDurable(5, milliseconds(10)).ok());
}

TEST(JournalFeedTest, WaitDurableAfterSyncFailureIsStickyInternal) {
  JournalFeed feed;
  DurabilityOptions durability;
  ASSERT_TRUE(feed.EnableDurability(durability).ok());
  feed.Append(MakeItem(1));  // seq 0 becomes durable
  FailpointRegistry::Instance().Configure("server.journal.fsync_fail",
                                          {.probability = 1.0});
  feed.Append(MakeItem(2));  // seq 1: its fsync fails
  FailpointRegistry::Instance().DisableAll();

  Status st = feed.WaitDurable(1, milliseconds(0));
  EXPECT_TRUE(st.IsInternal());
  EXPECT_NE(st.message().find("sync failed"), std::string::npos) << st;
  // Sticky: the failpoint is gone, but the log has a hole — later
  // records must not become durable either.
  feed.Append(MakeItem(3));
  EXPECT_FALSE(feed.WaitDurable(2, milliseconds(0)).ok());
  EXPECT_EQ(feed.durable_seq(), 1u);
  EXPECT_GE(feed.durability().sync_failures, 2u);
  // The already-durable prefix is still acknowledged.
  EXPECT_TRUE(feed.WaitDurable(0, milliseconds(0)).ok());
}

TEST(JournalFeedTest, BatchEndHandsOffAndRunEndWaitsForBothGroups) {
  DelayNextFsync delay(std::chrono::seconds(2));
  JournalFeed feed;
  DurabilityOptions durability;
  durability.group_commit = true;  // simulated device
  ASSERT_TRUE(feed.EnableDurability(durability).ok());
  FeedDriver engine(&feed);

  engine.Commit(MakeItem(0), 0);
  engine.BatchEnd(1);
  // The first group is at the device, its fsync held back for 2 s; the
  // batch boundary did not wait for it.
  EXPECT_EQ(feed.durable_seq(), 0u);
  engine.Commit(MakeItem(1), 1);  // the next batch does not block either
  EXPECT_EQ(feed.durable_seq(), 0u);
  EXPECT_EQ(feed.size(), 2u);
  engine.BatchEnd(2);

  engine.RunEnd(2);
  EXPECT_EQ(feed.durable_seq(), 2u);
  EXPECT_TRUE(feed.WaitDurable(1, milliseconds(0)).ok());
  const DurabilityStats stats = feed.durability();
  EXPECT_EQ(stats.records_synced, 2u);
  // One group per batch, or one for both when the flusher had not taken
  // the first batch yet by the time the second was handed over.
  EXPECT_GE(stats.fsyncs, 1u);
  EXPECT_LE(stats.fsyncs, 2u);
  EXPECT_EQ(stats.sync_failures, 0u);
  // The delayed group's fsync time is on the books.
  EXPECT_GE(stats.max_sync_ns, 2000000000u);
  EXPECT_GE(stats.sync_ns, stats.max_sync_ns);
}

TEST(JournalFeedTest, CheckpointLandsBetweenItsBoundaryAndTheNextBatch) {
  const std::string path = testing::TempDir() + "feed_checkpoint_order.wal";
  WorkingMemory wm;
  ASSERT_TRUE(LoadProgram("(relation item (id int))", &wm).ok());
  {
    // The first group (both deltas and the checkpoint) is held at the
    // device while the next batch is appended and released.
    DelayNextFsync delay(std::chrono::milliseconds(200));
    JournalFeed feed;
    DurabilityOptions durability;
    durability.path = path;
    durability.open_mode = JournalOpenMode::kTruncate;
    durability.group_commit = true;
    durability.checkpoint_every = 2;
    ASSERT_TRUE(feed.EnableDurability(durability).ok());
    ASSERT_TRUE(feed.EnableCheckpoints(&wm).ok());
    FeedDriver engine(&feed);
    for (uint64_t seq = 0; seq < 3; ++seq) {
      const Delta delta = MakeItem(static_cast<int64_t>(seq));
      ASSERT_TRUE(wm.Apply(delta).ok());
      engine.Commit(delta, seq);
      // Batches {0, 1} and {2}: the checkpoint falls due at the first
      // boundary, fence 2.
      if (seq != 0) engine.BatchEnd(seq + 1);
    }
    engine.RunEnd(3);
    EXPECT_EQ(feed.durable_seq(), 3u);
    EXPECT_EQ(feed.durability().checkpoints_written, 1u);
  }
  const WalScan scan = ScanWalBuffer(ReadFileBytes(path));
  EXPECT_EQ(scan.tail, WalTail::kClean) << scan.tail_detail;
  ASSERT_EQ(scan.records.size(), 4u);
  EXPECT_EQ(scan.records[0].type, WalRecordType::kDelta);
  EXPECT_EQ(scan.records[0].seq, 0u);
  EXPECT_EQ(scan.records[1].type, WalRecordType::kDelta);
  EXPECT_EQ(scan.records[1].seq, 1u);
  EXPECT_EQ(scan.records[2].type, WalRecordType::kCheckpoint);
  EXPECT_EQ(scan.records[2].seq, 2u);
  EXPECT_EQ(scan.records[3].type, WalRecordType::kDelta);
  EXPECT_EQ(scan.records[3].seq, 2u);
  std::remove(path.c_str());
}

TEST(JournalFeedTest, DestroyingTheFeedWritesEveryReleasedGroup) {
  const std::string path = testing::TempDir() + "feed_destroy_drain.wal";
  {
    DelayNextFsync delay(std::chrono::seconds(1));
    JournalFeed feed;
    DurabilityOptions durability;
    durability.path = path;
    durability.open_mode = JournalOpenMode::kTruncate;
    durability.group_commit = true;
    ASSERT_TRUE(feed.EnableDurability(durability).ok());
    FeedDriver engine(&feed);
    engine.Commit(MakeItem(0), 0);
    engine.BatchEnd(1);
    engine.Commit(MakeItem(1), 1);
    engine.BatchEnd(2);
    // No kRunEnd: the first group is still in flight, the second queued.
    EXPECT_EQ(feed.durable_seq(), 0u);
  }
  const WalScan scan = ScanWalBuffer(ReadFileBytes(path));
  EXPECT_EQ(scan.tail, WalTail::kClean) << scan.tail_detail;
  ASSERT_EQ(scan.records.size(), 2u);
  for (size_t i = 0; i < 2; ++i) EXPECT_EQ(scan.records[i].seq, i);
  std::remove(path.c_str());
}

TEST(JournalFeedTest, DefaultOpenModeIsAppend) {
  EXPECT_EQ(DurabilityOptions{}.open_mode, JournalOpenMode::kAppend);
}

TEST(JournalFeedTest, AppendModePreservesHistoryAcrossReopen) {
  const std::string path = testing::TempDir() + "feed_append_journal.wal";
  std::remove(path.c_str());
  {
    JournalFeed feed;
    DurabilityOptions durability;
    durability.path = path;
    durability.open_mode = JournalOpenMode::kTruncate;
    ASSERT_TRUE(feed.EnableDurability(durability).ok());
    for (int i = 0; i < 3; ++i) feed.Append(MakeItem(i));
  }
  {
    // The restart: append mode with start_seq where the log left off.
    JournalFeed feed;
    DurabilityOptions durability;
    durability.path = path;
    durability.start_seq = 3;  // open_mode defaults to kAppend
    ASSERT_TRUE(feed.EnableDurability(durability).ok());
    for (int i = 3; i < 5; ++i) feed.Append(MakeItem(i));
  }
  const WalScan scan = ScanWalBuffer(ReadFileBytes(path));
  EXPECT_EQ(scan.tail, WalTail::kClean) << scan.tail_detail;
  ASSERT_EQ(scan.records.size(), 5u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(scan.records[i].seq, i);
  std::remove(path.c_str());
}

TEST(JournalFeedTest, TruncateModeStartsAFreshLog) {
  const std::string path = testing::TempDir() + "feed_truncate_journal.wal";
  for (int round = 0; round < 2; ++round) {
    JournalFeed feed;
    DurabilityOptions durability;
    durability.path = path;
    durability.open_mode = JournalOpenMode::kTruncate;
    ASSERT_TRUE(feed.EnableDurability(durability).ok());
    feed.Append(MakeItem(round));
  }
  const WalScan scan = ScanWalBuffer(ReadFileBytes(path));
  ASSERT_EQ(scan.records.size(), 1u);  // round 2 destroyed round 1
  EXPECT_EQ(scan.records[0].seq, 0u);
  std::remove(path.c_str());
}

TEST(JournalFeedTest, FailIfExistsRefusesToClobber) {
  const std::string path = testing::TempDir() + "feed_exclusive_journal.wal";
  std::remove(path.c_str());
  {
    JournalFeed feed;
    DurabilityOptions durability;
    durability.path = path;
    durability.open_mode = JournalOpenMode::kFailIfExists;
    ASSERT_TRUE(feed.EnableDurability(durability).ok());  // fresh: fine
    feed.Append(MakeItem(1));
  }
  JournalFeed second;
  DurabilityOptions durability;
  durability.path = path;
  durability.open_mode = JournalOpenMode::kFailIfExists;
  Status st = second.EnableDurability(durability);
  EXPECT_TRUE(st.IsAlreadyExists()) << st;
  // The existing log was not touched.
  EXPECT_EQ(ScanWalBuffer(ReadFileBytes(path)).records.size(), 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dbps
