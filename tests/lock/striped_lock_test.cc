// Lock-manager cases first written for the relation-hash striped table,
// which the one-table manager replaced. They keep their suite and test
// names, so their history stays continuous, and now check the semantics
// that survive: a deadlock spanning two relations under each policy, an
// Rc-victim sweep whose Wa set spans two relations, and the trace-sink
// contract (events are emitted outside the manager's mutex, so a sink
// may call back into the manager).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <mutex>
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

LockManager::Options Opts(LockProtocol protocol, DeadlockPolicy policy) {
  LockManager::Options options;
  options.protocol = protocol;
  options.deadlock_policy = policy;
  options.wait_timeout = std::chrono::milliseconds(2000);
  return options;
}

/// Two distinct relations: the scenarios below span both.
std::pair<SymbolId, SymbolId> TwoRelations() {
  return {Sym("xshard-rel-0"), Sym("xshard-rel-1")};
}

// --- deadlocks spanning two relations ----------------------------------
//
// A cycle whose two edges sit on objects of two different relations must
// be detected / prevented / avoided.

TEST(StripedLock, CrossShardDeadlockDetected) {
  LockManager lm(Opts(LockProtocol::kTwoPhase, DeadlockPolicy::kDetect));
  auto [rel_a, rel_b] = TwoRelations();

  TxnId t1 = lm.Begin(), t2 = lm.Begin();
  ASSERT_TRUE(lm.Acquire(t1, Tuple(rel_a, 1), LockMode::kWa).ok());
  ASSERT_TRUE(lm.Acquire(t2, Tuple(rel_b, 1), LockMode::kWa).ok());

  // t1 blocks on t2's object (edge in relation B)...
  auto blocked = std::async(std::launch::async, [&] {
    return lm.Acquire(t1, Tuple(rel_b, 1), LockMode::kWa);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // ...then t2 requests t1's object (edge in relation A), closing the
  // cycle.
  Status st2 = lm.Acquire(t2, Tuple(rel_a, 1), LockMode::kWa);
  if (st2.IsDeadlock()) {
    // The common order: t1's wait was registered first, so t2's request
    // closed the cycle and t2 is the victim. Its release unblocks t1.
    lm.Release(t2);
    Status st1 = blocked.get();
    EXPECT_TRUE(st1.ok()) << st1.ToString();
  } else {
    // Rare order (t2's request beat t1's block): t1 closed the cycle.
    Status st1 = blocked.get();
    EXPECT_TRUE(st1.IsDeadlock()) << st1.ToString();
    // t2 stays blocked behind t1's surviving Wa hold until the timeout;
    // either outcome is fine — no cycle remains.
    EXPECT_TRUE(st2.ok() || st2.IsLockTimeout()) << st2.ToString();
    lm.Release(t2);
  }
  EXPECT_GE(lm.GetStats().deadlocks, 1u);
  lm.Release(t1);
  EXPECT_EQ(lm.live_transactions(), 0u);
}

TEST(StripedLock, CrossShardDeadlockWoundWait) {
  LockManager lm(Opts(LockProtocol::kTwoPhase, DeadlockPolicy::kWoundWait));
  auto [rel_a, rel_b] = TwoRelations();

  TxnId older = lm.Begin(), younger = lm.Begin();
  ASSERT_LT(older, younger);
  ASSERT_TRUE(lm.Acquire(older, Tuple(rel_a, 1), LockMode::kWa).ok());
  ASSERT_TRUE(lm.Acquire(younger, Tuple(rel_b, 1), LockMode::kWa).ok());

  // Younger waits behind older (in wound-wait a younger requester just
  // waits), and rolls back as soon as it is wounded — like a real worker.
  auto younger_wait = std::async(std::launch::async, [&] {
    Status st = lm.Acquire(younger, Tuple(rel_a, 1), LockMode::kWa);
    lm.Release(younger);
    return st;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // The older requester wounds the younger holder, then
  // waits for its release.
  Status older_st = lm.Acquire(older, Tuple(rel_b, 1), LockMode::kWa);

  Status younger_st = younger_wait.get();
  EXPECT_TRUE(younger_st.IsAborted()) << younger_st.ToString();
  EXPECT_TRUE(older_st.ok()) << older_st.ToString();
  EXPECT_GE(lm.GetStats().wounds, 1u);
  lm.Release(older);
  EXPECT_EQ(lm.live_transactions(), 0u);
}

TEST(StripedLock, CrossShardDeadlockNoWait) {
  LockManager lm(Opts(LockProtocol::kTwoPhase, DeadlockPolicy::kNoWait));
  auto [rel_a, rel_b] = TwoRelations();

  TxnId t1 = lm.Begin(), t2 = lm.Begin();
  ASSERT_TRUE(lm.Acquire(t1, Tuple(rel_a, 1), LockMode::kWa).ok());
  ASSERT_TRUE(lm.Acquire(t2, Tuple(rel_b, 1), LockMode::kWa).ok());
  // Both closing requests refuse immediately — no blocking, no cycle.
  EXPECT_TRUE(lm.Acquire(t1, Tuple(rel_b, 1), LockMode::kWa).IsDeadlock());
  EXPECT_TRUE(lm.Acquire(t2, Tuple(rel_a, 1), LockMode::kWa).IsDeadlock());
  lm.Release(t1);
  lm.Release(t2);
}

// --- Rc-victim sweeps spanning relations -------------------------------

TEST(StripedLock, RcVictimCollectionStraddlesShards) {
  LockManager lm(Opts(LockProtocol::kRcRaWa, DeadlockPolicy::kDetect));
  auto [rel_a, rel_b] = TwoRelations();

  // Readers: tuple-level Rc in relation A, tuple-level and relation-level
  // Rc in relation B. One reader (both_reader) appears in both — the
  // merged victim set must still name it once.
  TxnId reader_a = lm.Begin(), reader_b = lm.Begin(),
        rel_reader_b = lm.Begin(), both_reader = lm.Begin(),
        bystander = lm.Begin();
  ASSERT_TRUE(lm.Acquire(reader_a, Tuple(rel_a, 1), LockMode::kRc).ok());
  ASSERT_TRUE(lm.Acquire(reader_b, Tuple(rel_b, 2), LockMode::kRc).ok());
  ASSERT_TRUE(
      lm.Acquire(rel_reader_b, RelationLock(rel_b), LockMode::kRc).ok());
  ASSERT_TRUE(lm.Acquire(both_reader, Tuple(rel_a, 1), LockMode::kRc).ok());
  ASSERT_TRUE(lm.Acquire(both_reader, Tuple(rel_b, 2), LockMode::kRc).ok());
  // Unrelated tuple: must NOT be victimized.
  ASSERT_TRUE(lm.Acquire(bystander, Tuple(rel_a, 99), LockMode::kRc).ok());

  // The committer's Wa set spans both relations.
  TxnId writer = lm.Begin();
  ASSERT_TRUE(lm.Acquire(writer, Tuple(rel_a, 1), LockMode::kWa).ok());
  ASSERT_TRUE(lm.Acquire(writer, Tuple(rel_b, 2), LockMode::kWa).ok());

  std::vector<TxnId> victims = lm.CollectRcVictims(writer);
  std::sort(victims.begin(), victims.end());
  EXPECT_EQ(victims, (std::vector<TxnId>{reader_a, reader_b, rel_reader_b,
                                         both_reader}));

  for (TxnId t :
       {reader_a, reader_b, rel_reader_b, both_reader, bystander, writer}) {
    lm.Release(t);
  }
  EXPECT_EQ(lm.live_transactions(), 0u);
}

// --- trace sink contract -------------------------------------------------
//
// Events are buffered while the manager's mutex is held and emitted only
// after it is dropped, so a sink may call straight back into the
// manager. A sink run under the mutex would deadlock here.

TEST(StripedLock, TraceSinkMayReenterTheManager) {
  LockManager* manager = nullptr;
  std::mutex sink_mu;
  std::vector<LockEvent> events;

  LockManager::Options options =
      Opts(LockProtocol::kRcRaWa, DeadlockPolicy::kDetect);
  options.trace = [&](const LockEvent& event) {
    // Reentrancy: query the manager from inside the sink.
    if (manager != nullptr) {
      (void)manager->IsAborted(event.txn);
      (void)manager->Holds(event.txn, event.object, event.mode);
      (void)manager->GetStats();
    }
    std::lock_guard<std::mutex> lock(sink_mu);
    events.push_back(event);
  };
  LockManager lm(options);
  manager = &lm;

  TxnId t1 = lm.Begin(), t2 = lm.Begin();
  ASSERT_TRUE(lm.Acquire(t1, Tuple(Sym("trace-rel"), 1), LockMode::kRc).ok());
  ASSERT_TRUE(lm.Acquire(t2, Tuple(Sym("trace-rel"), 1), LockMode::kWa).ok());
  for (TxnId victim : lm.CollectRcVictims(t2)) lm.MarkAborted(victim);
  lm.Release(t1);
  lm.Release(t2);

  std::lock_guard<std::mutex> lock(sink_mu);
  auto count = [&](LockEvent::Kind kind) {
    return std::count_if(events.begin(), events.end(),
                         [&](const LockEvent& e) { return e.kind == kind; });
  };
  EXPECT_EQ(count(LockEvent::Kind::kGrant), 2);
  EXPECT_EQ(count(LockEvent::Kind::kAbortMark), 1);
  EXPECT_EQ(count(LockEvent::Kind::kRelease), 2);
}

/// Hammer one manager from many threads with the reentrant sink attached:
/// under TSan this is the no-lock-held-at-emission proof.
TEST(StripedLock, ConcurrentTrafficWithReentrantSink) {
  LockManager* manager = nullptr;
  std::atomic<uint64_t> observed{0};

  LockManager::Options options =
      Opts(LockProtocol::kRcRaWa, DeadlockPolicy::kNoWait);
  options.trace = [&](const LockEvent& event) {
    if (manager != nullptr) (void)manager->IsAborted(event.txn);
    observed.fetch_add(1, std::memory_order_relaxed);
  };
  LockManager lm(options);
  manager = &lm;

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 50;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int op = 0; op < kOpsPerThread; ++op) {
        TxnId txn = lm.Begin();
        SymbolId rel = Sym("hammer-" + std::to_string(op % 7));
        (void)lm.Acquire(txn, Tuple(rel, op % 5), LockMode::kRc);
        if ((op + i) % 3 == 0) {
          if (lm.Acquire(txn, Tuple(rel, op % 5), LockMode::kWa).ok()) {
            for (TxnId victim : lm.CollectRcVictims(txn)) {
              lm.MarkAborted(victim);
            }
          }
        }
        lm.Release(txn);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(lm.live_transactions(), 0u);
  EXPECT_GT(observed.load(), 0u);
}

}  // namespace
}  // namespace dbps
