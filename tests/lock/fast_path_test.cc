// Lock-manager cases first written for the lock-free CAS grant path,
// which the one-table manager replaced. They keep their suite and test
// names, so their history stays continuous, and now check the semantics
// that survive on the single table: the victim sweep finds a Wa-over-Rc
// reader, self-upgrade, a 2PL writer woken on release, a relation-level
// Wa blocking a tuple grant, a blocking transaction, wound-wait and
// no-wait against a holder, and — under TSan — two Rc/Wa stress runs that
// lose no wake-up and count every grant.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "lock/lock_manager.h"

namespace dbps {
namespace {

LockObjectId Tuple(SymbolId relation, WmeId id) {
  return LockObjectId{relation, id};
}
LockObjectId RelationLock(SymbolId relation) {
  return LockObjectId{relation, kRelationLevel};
}

LockManager::Options Opts(LockProtocol protocol,
                          DeadlockPolicy policy = DeadlockPolicy::kDetect) {
  LockManager::Options options;
  options.protocol = protocol;
  options.deadlock_policy = policy;
  options.wait_timeout = std::chrono::milliseconds(2000);
  return options;
}

TEST(FastPath, WaOverRcIsFastAndVictimSweepStillSeesTheReader) {
  // The paper's key cell: the Wa is granted over the live Rc, and the
  // commit-time settlement must find the Rc holder.
  LockManager lm(Opts(LockProtocol::kRcRaWa));
  const SymbolId rel = Sym("fp-waoverrc");
  TxnId reader = lm.Begin(), writer = lm.Begin();
  ASSERT_TRUE(lm.Acquire(reader, Tuple(rel, 1), LockMode::kRc).ok());
  ASSERT_TRUE(lm.Acquire(writer, Tuple(rel, 1), LockMode::kWa).ok());
  EXPECT_EQ(lm.GetStats().blocked, 0u);

  std::vector<TxnId> victims = lm.CollectRcVictims(writer);
  EXPECT_EQ(victims, std::vector<TxnId>{reader});

  lm.Release(reader);
  lm.Release(writer);
  EXPECT_EQ(lm.live_transactions(), 0u);
}

TEST(FastPath, SelfUpgradeFallsBackToTheSlowPathButSucceeds) {
  // Wa on a tuple whose own Rc is held: a transaction never conflicts
  // with itself, under either protocol.
  LockManager lm(Opts(LockProtocol::kRcRaWa));
  const SymbolId rel = Sym("fp-upgrade");
  TxnId txn = lm.Begin();
  ASSERT_TRUE(lm.Acquire(txn, Tuple(rel, 1), LockMode::kRc).ok());
  ASSERT_TRUE(lm.Acquire(txn, Tuple(rel, 1), LockMode::kWa).ok());
  EXPECT_TRUE(lm.Holds(txn, Tuple(rel, 1), LockMode::kWa));
  LockManager::Stats stats = lm.GetStats();
  EXPECT_EQ(stats.acquired, 2u);
  EXPECT_EQ(stats.blocked, 0u);
  lm.Release(txn);
}

TEST(FastPath, TwoPhaseConflictSealsTheSlotAndWakesTheWriter) {
  // Under 2PL a Wa over an outstanding Rc must block, and the reader's
  // release must wake the writer.
  LockManager lm(Opts(LockProtocol::kTwoPhase));
  const SymbolId rel = Sym("fp-seal");
  TxnId reader = lm.Begin(), writer = lm.Begin();
  ASSERT_TRUE(lm.Acquire(reader, Tuple(rel, 1), LockMode::kRc).ok());

  auto blocked = std::async(std::launch::async, [&] {
    return lm.Acquire(writer, Tuple(rel, 1), LockMode::kWa);
  });
  ASSERT_EQ(blocked.wait_for(std::chrono::milliseconds(100)),
            std::future_status::timeout)
      << "writer was granted Wa over a live Rc under kTwoPhase";
  lm.Release(reader);
  ASSERT_TRUE(blocked.get().ok());

  LockManager::Stats stats = lm.GetStats();
  EXPECT_GE(stats.blocked, 1u);
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_EQ(stats.acquired, 2u);
  lm.Release(writer);
}

TEST(FastPath, FastGrantCannotBypassARelationLevelWa) {
  // Hierarchy safety end to end: with a relation-level Wa outstanding, a
  // tuple Rc in that relation is refused (kNoWait).
  LockManager lm(Opts(LockProtocol::kTwoPhase, DeadlockPolicy::kNoWait));
  const SymbolId rel = Sym("fp-hier");
  TxnId writer = lm.Begin(), reader = lm.Begin();
  ASSERT_TRUE(lm.Acquire(writer, RelationLock(rel), LockMode::kWa).ok());
  Status st = lm.Acquire(reader, Tuple(rel, 1), LockMode::kRc);
  EXPECT_TRUE(st.IsDeadlock()) << st.ToString();
  EXPECT_FALSE(lm.Holds(reader, Tuple(rel, 1), LockMode::kRc));
  lm.Release(reader);
  lm.Release(writer);
}

TEST(FastPath, BlockingTransactionSkipsTheFastPath) {
  // An escalated transaction's uncontended grants go through like any
  // other, and it is counted once.
  LockManager lm(Opts(LockProtocol::kRcRaWa));
  const SymbolId rel = Sym("fp-blocking");
  TxnId txn = lm.Begin();
  lm.SetBlocking(txn);
  ASSERT_TRUE(lm.Acquire(txn, Tuple(rel, 1), LockMode::kRc).ok());
  EXPECT_TRUE(lm.IsBlocking(txn));
  EXPECT_TRUE(lm.Holds(txn, Tuple(rel, 1), LockMode::kRc));
  EXPECT_EQ(lm.GetStats().blocking_txns, 1u);
  lm.Release(txn);
}

TEST(FastPath, WoundWaitWoundsAFastHolder) {
  LockManager lm(Opts(LockProtocol::kTwoPhase, DeadlockPolicy::kWoundWait));
  const SymbolId rel = Sym("fp-wound");
  TxnId older = lm.Begin(), younger = lm.Begin();
  ASSERT_LT(older, younger);
  ASSERT_TRUE(lm.Acquire(younger, Tuple(rel, 1), LockMode::kWa).ok());

  // The older requester wounds the younger holder, then waits for it.
  auto older_wait = std::async(std::launch::async, [&] {
    return lm.Acquire(older, Tuple(rel, 1), LockMode::kWa);
  });
  for (int i = 0; i < 200 && !lm.IsAborted(younger); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(lm.IsAborted(younger));
  lm.Release(younger);
  ASSERT_TRUE(older_wait.get().ok());
  EXPECT_GE(lm.GetStats().wounds, 1u);
  EXPECT_EQ(lm.GetStats().timeouts, 0u);
  lm.Release(older);
}

TEST(FastPath, NoWaitRefusesAConflictWithAFastHolder) {
  LockManager lm(Opts(LockProtocol::kTwoPhase, DeadlockPolicy::kNoWait));
  const SymbolId rel = Sym("fp-nowait");
  TxnId holder = lm.Begin(), loser = lm.Begin();
  ASSERT_TRUE(lm.Acquire(holder, Tuple(rel, 1), LockMode::kWa).ok());
  Status st = lm.Acquire(loser, Tuple(rel, 1), LockMode::kWa);
  EXPECT_TRUE(st.IsDeadlock()) << st.ToString();
  EXPECT_GE(lm.GetStats().deadlocks, 1u);
  lm.Release(holder);
  lm.Release(loser);
}

// --- concurrency stress (the TSan gate) -----------------------------------

TEST(FastPath, RcReadersVsSealingWaWriterStress) {
  // Readers hammer one tuple with Rc grants while a 2PL writer waits
  // for them and writes. Terminating without a timeout proves no wake-up
  // is lost; the grant count proves none went uncounted.
  LockManager lm(Opts(LockProtocol::kTwoPhase));
  const SymbolId rel = Sym("fp-stress-2pl");
  constexpr int kReaders = 4;
  constexpr int kReadsPerReader = 300;
  constexpr int kWrites = 10;

  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      for (int i = 0; i < kReadsPerReader; ++i) {
        TxnId txn = lm.Begin();
        Status st = lm.Acquire(txn, Tuple(rel, 1), LockMode::kRc);
        ASSERT_TRUE(st.ok()) << st.ToString();
        lm.Release(txn);
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < kWrites; ++i) {
      TxnId txn = lm.Begin();
      Status st = lm.Acquire(txn, Tuple(rel, 1), LockMode::kWa);
      ASSERT_TRUE(st.ok()) << st.ToString();
      lm.Release(txn);
      std::this_thread::yield();
    }
  });
  for (auto& thread : threads) thread.join();

  LockManager::Stats stats = lm.GetStats();
  EXPECT_EQ(stats.acquired,
            static_cast<uint64_t>(kReaders) * kReadsPerReader + kWrites);
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_EQ(lm.live_transactions(), 0u);
}

TEST(FastPath, RcRaWaVictimizationStress) {
  // The production shape: Rc readers, Wa-over-Rc writers that settle
  // the Rc debt (CollectRcVictims + MarkAborted) at commit, and readers
  // that observe their abort mark, roll back, and retry.
  LockManager lm(Opts(LockProtocol::kRcRaWa));
  const SymbolId rel = Sym("fp-stress-rcrawa");
  constexpr int kReaders = 3;
  constexpr int kOpsPerReader = 200;
  constexpr int kWrites = 50;
  std::atomic<uint64_t> reader_aborts{0};

  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      for (int i = 0; i < kOpsPerReader; ++i) {
        TxnId txn = lm.Begin();
        Status st = lm.Acquire(txn, Tuple(rel, 1), LockMode::kRc);
        if (st.ok() && lm.IsAborted(txn)) st = Status::Aborted("marked");
        if (!st.ok()) reader_aborts.fetch_add(1);
        ASSERT_TRUE(st.ok() || st.IsAborted()) << st.ToString();
        lm.Release(txn);
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < kWrites; ++i) {
      TxnId txn = lm.Begin();
      Status st = lm.Acquire(txn, Tuple(rel, 1), LockMode::kWa);
      ASSERT_TRUE(st.ok()) << st.ToString();
      for (TxnId victim : lm.CollectRcVictims(txn)) lm.MarkAborted(victim);
      lm.Release(txn);
    }
  });
  for (auto& thread : threads) thread.join();

  LockManager::Stats stats = lm.GetStats();
  // A reader can only be marked after its Rc is granted, so every
  // Acquire succeeds; a mark can land after the reader looked.
  EXPECT_EQ(stats.acquired,
            static_cast<uint64_t>(kReaders) * kOpsPerReader + kWrites);
  EXPECT_LE(reader_aborts.load(), stats.aborts_marked);
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_EQ(lm.live_transactions(), 0u);
}

}  // namespace
}  // namespace dbps
