// Deadlock prevention/avoidance/detection alternatives (§4.3's remark
// that standard 2PL schemes apply unchanged), plus engine-level
// consistency under every policy.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "engine/parallel_engine.h"
#include "lang/compiler.h"
#include "lock/lock_manager.h"
#include "semantics/replay_validator.h"
#include "server/session_manager.h"

namespace dbps {
namespace {

LockObjectId Tuple(const char* relation, WmeId id) {
  return LockObjectId{Sym(relation), id};
}

LockManager::Options Opts(DeadlockPolicy policy) {
  LockManager::Options options;
  options.protocol = LockProtocol::kTwoPhase;
  options.deadlock_policy = policy;
  options.wait_timeout = std::chrono::milliseconds(2000);
  return options;
}

LockManager::Options RcRaWaOpts(DeadlockPolicy policy) {
  LockManager::Options options = Opts(policy);
  options.protocol = LockProtocol::kRcRaWa;
  return options;
}

// Every case below makes progress through its policy — a grant, a
// refusal, a wound — and asserts that no lock wait ran into its timeout.

TEST(DeadlockPolicy, NoWaitRefusesImmediately) {
  LockManager lm(Opts(DeadlockPolicy::kNoWait));
  TxnId t1 = lm.Begin(), t2 = lm.Begin();
  ASSERT_TRUE(lm.Acquire(t1, Tuple("r", 1), LockMode::kWa).ok());
  // No blocking, instant refusal.
  Status st = lm.Acquire(t2, Tuple("r", 1), LockMode::kRc);
  EXPECT_TRUE(st.IsDeadlock()) << st;
  EXPECT_GE(lm.GetStats().deadlocks, 1u);
  EXPECT_EQ(lm.GetStats().blocked, 0u);
  EXPECT_EQ(lm.GetStats().timeouts, 0u);
}

TEST(DeadlockPolicy, NoWaitGrantsWhenFree) {
  LockManager lm(Opts(DeadlockPolicy::kNoWait));
  TxnId t1 = lm.Begin();
  EXPECT_TRUE(lm.Acquire(t1, Tuple("r", 1), LockMode::kWa).ok());
  EXPECT_TRUE(lm.Acquire(t1, Tuple("r", 2), LockMode::kRc).ok());
  EXPECT_EQ(lm.GetStats().timeouts, 0u);
}

TEST(DeadlockPolicy, WoundWaitOlderWoundsYounger) {
  LockManager lm(Opts(DeadlockPolicy::kWoundWait));
  TxnId older = lm.Begin();   // smaller id
  TxnId younger = lm.Begin();
  ASSERT_TRUE(lm.Acquire(younger, Tuple("r", 1), LockMode::kWa).ok());

  // The older requester wounds the younger holder and then waits for its
  // release.
  auto request = std::async(std::launch::async, [&] {
    return lm.Acquire(older, Tuple("r", 1), LockMode::kWa);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(lm.IsAborted(younger));
  EXPECT_GE(lm.GetStats().wounds, 1u);
  lm.Release(younger);  // the wounded transaction rolls back
  EXPECT_TRUE(request.get().ok());
  EXPECT_EQ(lm.GetStats().timeouts, 0u);
}

TEST(DeadlockPolicy, WoundWaitYoungerWaitsForOlder) {
  LockManager lm(Opts(DeadlockPolicy::kWoundWait));
  TxnId older = lm.Begin();
  TxnId younger = lm.Begin();
  ASSERT_TRUE(lm.Acquire(older, Tuple("r", 1), LockMode::kWa).ok());

  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    Status st = lm.Acquire(younger, Tuple("r", 1), LockMode::kWa);
    EXPECT_TRUE(st.ok()) << st;
    granted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(granted.load());
  EXPECT_FALSE(lm.IsAborted(older));  // younger never wounds
  lm.Release(older);
  waiter.join();
  EXPECT_TRUE(granted.load());
  EXPECT_EQ(lm.GetStats().timeouts, 0u);
}

TEST(DeadlockPolicy, WoundWaitResolvesUpgradeRace) {
  // Both hold Rc, both upgrade to Wa: under wound-wait the older one
  // wounds the younger instead of deadlocking.
  LockManager lm(Opts(DeadlockPolicy::kWoundWait));
  TxnId older = lm.Begin();
  TxnId younger = lm.Begin();
  ASSERT_TRUE(lm.Acquire(older, Tuple("r", 1), LockMode::kRc).ok());
  ASSERT_TRUE(lm.Acquire(younger, Tuple("r", 1), LockMode::kRc).ok());

  auto older_upgrade = std::async(std::launch::async, [&] {
    return lm.Acquire(older, Tuple("r", 1), LockMode::kWa);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(lm.IsAborted(younger));
  // The younger's own upgrade attempt fails with Aborted.
  EXPECT_TRUE(
      lm.Acquire(younger, Tuple("r", 1), LockMode::kWa).IsAborted());
  lm.Release(younger);
  EXPECT_TRUE(older_upgrade.get().ok());
  EXPECT_EQ(lm.GetStats().timeouts, 0u);
}

// --- the same policies under the Rc/Ra/Wa protocol ---------------------
//
// Under kRcRaWa Wa-over-Rc never blocks (so that classic conflict can't
// deadlock at all); the remaining blocking cells — Wa-Wa, Rc/Ra-over-Wa —
// still can, and the standard 2PL schemes must apply unchanged (§4.3).

TEST(DeadlockPolicy, RcRaWaNoWaitRefusesOnWaWaConflict) {
  LockManager lm(RcRaWaOpts(DeadlockPolicy::kNoWait));
  TxnId t1 = lm.Begin(), t2 = lm.Begin();
  ASSERT_TRUE(lm.Acquire(t1, Tuple("r", 1), LockMode::kWa).ok());
  // Wa over Rc would have been granted; Wa over Wa refuses instantly.
  Status st = lm.Acquire(t2, Tuple("r", 1), LockMode::kWa);
  EXPECT_TRUE(st.IsDeadlock()) << st;
  EXPECT_EQ(lm.GetStats().blocked, 0u);
  EXPECT_EQ(lm.GetStats().timeouts, 0u);
}

TEST(DeadlockPolicy, RcRaWaNoWaitStillGrantsWaOverRc) {
  // The protocol's enhanced grant is unaffected by the no-wait policy:
  // no conflict is ever reached, so nothing to refuse.
  LockManager lm(RcRaWaOpts(DeadlockPolicy::kNoWait));
  TxnId reader = lm.Begin(), writer = lm.Begin();
  ASSERT_TRUE(lm.Acquire(reader, Tuple("r", 1), LockMode::kRc).ok());
  EXPECT_TRUE(lm.Acquire(writer, Tuple("r", 1), LockMode::kWa).ok());
  EXPECT_EQ(lm.GetStats().deadlocks, 0u);
  EXPECT_EQ(lm.GetStats().timeouts, 0u);
}

TEST(DeadlockPolicy, RcRaWaWoundWaitOnRcOverWa) {
  // Rc requested over an outstanding Wa blocks under kRcRaWa; an older
  // reader wounds the younger writer instead of waiting forever.
  LockManager lm(RcRaWaOpts(DeadlockPolicy::kWoundWait));
  TxnId older = lm.Begin();
  TxnId younger = lm.Begin();
  ASSERT_TRUE(lm.Acquire(younger, Tuple("r", 1), LockMode::kWa).ok());

  auto request = std::async(std::launch::async, [&] {
    return lm.Acquire(older, Tuple("r", 1), LockMode::kRc);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(lm.IsAborted(younger));
  EXPECT_GE(lm.GetStats().wounds, 1u);
  lm.Release(younger);
  EXPECT_TRUE(request.get().ok());
  EXPECT_EQ(lm.GetStats().timeouts, 0u);
}

TEST(DeadlockPolicy, RcRaWaWoundWaitYoungerWaitsOnInsertIntentConflict) {
  // Hierarchy cell: an insert intent (tuple Wa) over a relation Rc is the
  // enhanced grant — settled at commit by victimization, never blocking —
  // so the waiting direction is the reverse: a relation Rc requested over
  // an outstanding insert intent is Rc-over-Wa, denied in both matrices.
  // The requester here is younger, so under wound-wait it waits rather
  // than wounding the older creator.
  LockManager lm(RcRaWaOpts(DeadlockPolicy::kWoundWait));
  TxnId older = lm.Begin();
  TxnId younger = lm.Begin();
  ASSERT_TRUE(lm.Acquire(older,
                         LockObjectId{Sym("r"), kInsertLockBase + older},
                         LockMode::kWa)
                  .ok());

  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    EXPECT_TRUE(
        lm.Acquire(younger, LockObjectId{Sym("r"), kRelationLevel},
                   LockMode::kRc)
            .ok());
    granted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(granted.load());
  EXPECT_FALSE(lm.IsAborted(older));
  lm.Release(older);
  waiter.join();
  EXPECT_TRUE(granted.load());
  EXPECT_EQ(lm.GetStats().timeouts, 0u);
}

TEST(DeadlockPolicy, ToStringNames) {
  EXPECT_STREQ(DeadlockPolicyToString(DeadlockPolicy::kDetect), "detect");
  EXPECT_STREQ(DeadlockPolicyToString(DeadlockPolicy::kWoundWait),
               "wound-wait");
  EXPECT_STREQ(DeadlockPolicyToString(DeadlockPolicy::kNoWait), "no-wait");
}

// Engine-level: the contended-counter workload stays exact and replayable
// under every (protocol, deadlock policy) combination.
class DeadlockPolicyEngine
    : public ::testing::TestWithParam<std::tuple<LockProtocol,
                                                 DeadlockPolicy>> {};

TEST_P(DeadlockPolicyEngine, ContendedCounterStaysConsistent) {
  auto [protocol, policy] = GetParam();
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation counter (v int))
(rule bump (counter ^v { < 25 } ^v <v>) --> (modify 1 ^v (+ <v> 1)))
(make counter ^v 0)
)",
                           &wm)
                   .ValueOrDie();
  auto pristine = wm.Clone();
  ParallelEngineOptions options;
  options.num_workers = 6;
  options.protocol = protocol;
  options.deadlock_policy = policy;
  ParallelEngine engine(&wm, rules, options);
  auto result = engine.Run().ValueOrDie();
  EXPECT_EQ(result.stats.firings, 25u);
  EXPECT_EQ(wm.Scan(Sym("counter"))[0]->value(0), Value::Int(25));
  Status valid = ValidateReplay(pristine.get(), rules, result.log);
  EXPECT_TRUE(valid.ok()) << valid;
  EXPECT_EQ(engine.lock_stats().timeouts, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, DeadlockPolicyEngine,
    ::testing::Combine(::testing::Values(LockProtocol::kTwoPhase,
                                         LockProtocol::kRcRaWa),
                       ::testing::Values(DeadlockPolicy::kDetect,
                                         DeadlockPolicy::kWoundWait,
                                         DeadlockPolicy::kNoWait)),
    [](const auto& info) {
      std::string name =
          std::get<0>(info.param) == LockProtocol::kTwoPhase ? "TwoPhase"
                                                             : "RcRaWa";
      switch (std::get<1>(info.param)) {
        case DeadlockPolicy::kDetect:
          return name + "Detect";
        case DeadlockPolicy::kWoundWait:
          return name + "WoundWait";
        case DeadlockPolicy::kNoWait:
          return name + "NoWait";
      }
      return name;
    });

// --- mixed rule-firing + external-transaction deadlocks ----------------
//
// Client sessions and rule firings wait on each other's locks in both
// directions: the `respond` firing holds Wa on a req tuple and needs an
// insert intent into `ack`, while a client holds relation Rc on `ack`
// (repeatable read) and then needs relation Rc on `req` — a cycle across
// the rule/client boundary whenever the timing lines up. Under kWoundWait
// one side is wounded and retried; under kNoWait the requester is
// refused and retried. Either way every transaction must eventually get
// through and the log must stay replayable.

constexpr const char* kMixedDeadlockProgram = R"(
(relation req (id int))
(relation ack (id int))

(rule respond :cost 100
  (req ^id <i>)
  -(ack ^id <i>)
  -->
  (remove 1)
  (make ack ^id <i>))
)";

class MixedDeadlockTest
    : public ::testing::TestWithParam<std::tuple<LockProtocol,
                                                 DeadlockPolicy>> {};

TEST_P(MixedDeadlockTest, ClientsAndFiringsResolveCrossBoundaryCycles) {
  auto [protocol, policy] = GetParam();
  constexpr size_t kClients = 3;
  constexpr uint64_t kTxnsPerClient = 8;

  WorkingMemory wm;
  auto rules = LoadProgram(kMixedDeadlockProgram, &wm).ValueOrDie();
  auto pristine = wm.Clone();

  ServerOptions server_options;
  server_options.session.max_txn_retries = 64;  // ample under heavy conflict
  SessionManager manager(&wm, server_options);
  ParallelEngineOptions options;
  options.num_workers = 4;
  options.protocol = protocol;
  options.deadlock_policy = policy;
  options.external_source = &manager;
  ParallelEngine engine(&wm, rules, options);
  manager.BindEngine(&engine);

  StatusOr<RunResult> result_or{Status::Internal("not run")};
  std::thread serve([&] { result_or = engine.Run(); });

  std::atomic<uint64_t> committed{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto session_or = manager.Connect("mixed-" + std::to_string(c));
      ASSERT_TRUE(session_or.ok()) << session_or.status();
      SessionPtr session = session_or.ValueOrDie();
      for (uint64_t i = 0; i < kTxnsPerClient; ++i) {
        Status st = session->Perform([&, i](Session& s) -> Status {
          DBPS_RETURN_NOT_OK(s.Begin());
          // Repeatable reads over both relations — the client side of
          // the cross-boundary cycle.
          auto acks_or = s.Read("ack");
          if (!acks_or.ok()) return acks_or.status();
          auto reqs_or = s.Read("req");
          if (!reqs_or.ok()) return reqs_or.status();
          Delta delta;
          delta.Create(Sym("req"),
                       {Value::Int(static_cast<int64_t>(c * 1000 + i))});
          DBPS_RETURN_NOT_OK(s.Write(delta));
          return s.Commit().status();
        });
        ASSERT_TRUE(st.ok())
            << "client " << c << " txn " << i << ": " << st;
        committed.fetch_add(1);
      }
      session->Close();
    });
  }
  for (auto& t : clients) t.join();
  manager.Close();
  serve.join();

  ASSERT_TRUE(result_or.ok()) << result_or.status();
  const RunResult& result = result_or.ValueOrDie();

  // Full progress on both sides of the boundary: every client request
  // committed and was answered by exactly one firing.
  const uint64_t expected = kClients * kTxnsPerClient;
  EXPECT_EQ(committed.load(), expected);
  EXPECT_EQ(result.stats.firings, expected);
  EXPECT_EQ(wm.Count(Sym("req")), 0u);
  EXPECT_EQ(wm.Count(Sym("ack")), expected);
  EXPECT_EQ(engine.live_lock_transactions(), 0u);
  // Every cycle was broken by the policy, not by a lock timeout.
  EXPECT_EQ(engine.lock_stats().timeouts, 0u);

  // And the interleaved log is still a valid single-thread execution.
  Status replay = ValidateReplay(pristine.get(), rules, result.log);
  ASSERT_TRUE(replay.ok()) << replay;
  EXPECT_EQ(pristine->TotalCount(), wm.TotalCount());
}

INSTANTIATE_TEST_SUITE_P(
    Policies, MixedDeadlockTest,
    ::testing::Combine(::testing::Values(LockProtocol::kTwoPhase,
                                         LockProtocol::kRcRaWa),
                       ::testing::Values(DeadlockPolicy::kWoundWait,
                                         DeadlockPolicy::kNoWait)),
    [](const auto& info) {
      std::string name =
          std::get<0>(info.param) == LockProtocol::kTwoPhase ? "TwoPhase"
                                                             : "RcRaWa";
      name += std::get<1>(info.param) == DeadlockPolicy::kWoundWait
                  ? "WoundWait"
                  : "NoWait";
      return name;
    });

}  // namespace
}  // namespace dbps
