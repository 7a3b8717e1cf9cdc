// SessionManager / Session unit tests: admission control, the external
// transaction lifecycle, lock-protocol behavior of client transactions
// (2PL blocking vs Rc/Ra/Wa victimization, §4.3), and journal-feed
// durability.

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include <gtest/gtest.h>

#include "dbps.h"

namespace dbps {
namespace {

using std::chrono::milliseconds;

// Two relations, no rules: the engine idles as a pure transaction server
// until the manager drains.
constexpr const char* kPlainProgram = R"(
(relation item (id int))
(relation out (id int))
)";

// A server program whose rule reacts to client inserts.
constexpr const char* kServeProgram = R"(
(relation inbox (id int))
(relation done (id int))
(rule serve
  (inbox ^id <i>)
  -->
  (remove 1)
  (make done ^id <i>))
)";

/// Engine + manager + serve thread, torn down in order.
class TestServer {
 public:
  explicit TestServer(const char* program, ServerOptions server_options = {},
                      ParallelEngineOptions engine_options = {}) {
    rules_ = LoadProgram(program, &wm_).ValueOrDie();
    pristine_ = wm_.Clone();
    manager_ =
        std::make_unique<SessionManager>(&wm_, std::move(server_options));
    engine_options.external_source = manager_.get();
    engine_ = std::make_unique<ParallelEngine>(&wm_, rules_, engine_options);
    manager_->BindEngine(engine_.get());
    thread_ = std::thread([this] { result_ = engine_->Run(); });
  }

  ~TestServer() { Shutdown(); }

  /// Closes the manager and joins the engine; idempotent.
  void Shutdown() {
    manager_->Close();
    if (thread_.joinable()) thread_.join();
  }

  const RunResult& Finish() {
    Shutdown();
    EXPECT_TRUE(result_.ok()) << result_.status().ToString();
    return result_.ValueOrDie();
  }

  WorkingMemory& wm() { return wm_; }
  WorkingMemory* pristine() { return pristine_.get(); }
  RuleSetPtr rules() { return rules_; }
  SessionManager& manager() { return *manager_; }

 private:
  WorkingMemory wm_;
  RuleSetPtr rules_;
  std::unique_ptr<WorkingMemory> pristine_;
  std::unique_ptr<SessionManager> manager_;
  std::unique_ptr<ParallelEngine> engine_;
  std::thread thread_;
  StatusOr<RunResult> result_{Status::Internal("engine not run")};
};

Delta MakeItem(int64_t id, const char* relation = "item") {
  Delta delta;
  delta.Create(Sym(relation), {Value::Int(id)});
  return delta;
}

TEST(SessionManagerTest, ConnectFailsWithoutServingEngine) {
  WorkingMemory wm;
  auto rules = LoadProgram(kPlainProgram, &wm).ValueOrDie();
  ServerOptions options;
  options.connect_timeout = milliseconds(50);
  SessionManager manager(&wm, options);
  ParallelEngine engine(&wm, rules, {});  // never Run()
  manager.BindEngine(&engine);
  auto session = manager.Connect("early");
  EXPECT_TRUE(session.status().IsUnavailable()) << session.status();
}

TEST(SessionManagerTest, ConnectFailsAfterClose) {
  TestServer server(kPlainProgram);
  server.Finish();
  auto session = server.manager().Connect("late");
  EXPECT_TRUE(session.status().IsUnavailable()) << session.status();
}

TEST(SessionManagerTest, MaxSessionsAdmissionControl) {
  ServerOptions options;
  options.max_sessions = 2;
  TestServer server(kPlainProgram, options);
  auto a = server.manager().Connect("a").ValueOrDie();
  auto b = server.manager().Connect("b").ValueOrDie();
  auto c = server.manager().Connect("c");
  EXPECT_TRUE(c.status().IsResourceExhausted()) << c.status();
  a->Close();
  auto d = server.manager().Connect("d");
  EXPECT_TRUE(d.ok()) << d.status();
  d.ValueOrDie()->Close();
  b->Close();
  auto stats = server.manager().GetStats();
  EXPECT_EQ(stats.sessions_admitted, 3u);
  EXPECT_EQ(stats.sessions_rejected, 1u);
}

TEST(SessionTest, CommitAppearsInLogAndReplays) {
  TestServer server(kPlainProgram);
  auto session = server.manager().Connect("alice").ValueOrDie();

  ASSERT_TRUE(session->Begin().ok());
  auto rows = session->Read("item");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_TRUE(rows.ValueOrDie().empty());
  ASSERT_TRUE(session->Write(MakeItem(7)).ok());
  auto seq = session->Commit();
  ASSERT_TRUE(seq.ok()) << seq.status();
  session->Close();

  const RunResult& result = server.Finish();
  EXPECT_EQ(server.wm().Count(Sym("item")), 1u);
  ASSERT_EQ(result.log.size(), 1u);
  EXPECT_TRUE(IsClientFiring(result.log[0].key));
  EXPECT_EQ(result.log[0].key.rule_name,
            std::string(kClientRulePrefix) + "alice");
  EXPECT_EQ(result.stats.client_commits, 1u);
  EXPECT_EQ(result.stats.firings, 0u);

  // Definition 3.2, multi-user form: the log replays as given input.
  ASSERT_TRUE(
      ValidateReplay(server.pristine(), server.rules(), result.log).ok());
  EXPECT_EQ(server.pristine()->Count(Sym("item")), 1u);
}

TEST(SessionTest, EmptyCommitLeavesNoLogRecord) {
  TestServer server(kPlainProgram);
  auto session = server.manager().Connect("alice").ValueOrDie();
  ASSERT_TRUE(session->Begin().ok());
  auto seq = session->Commit();
  ASSERT_TRUE(seq.ok()) << seq.status();
  session->Close();
  const RunResult& result = server.Finish();
  EXPECT_TRUE(result.log.empty());
  EXPECT_EQ(result.stats.client_commits, 1u);
}

TEST(SessionTest, OperationsRequireOpenTransaction) {
  TestServer server(kPlainProgram);
  auto session = server.manager().Connect("alice").ValueOrDie();
  EXPECT_TRUE(session->Read("item").status().IsInvalidArgument());
  EXPECT_TRUE(session->Write(MakeItem(1)).IsInvalidArgument());
  EXPECT_TRUE(session->Commit().status().IsInvalidArgument());
  ASSERT_TRUE(session->Begin().ok());
  EXPECT_TRUE(session->Begin().IsInvalidArgument());  // no nesting
  session->Abort();
  EXPECT_EQ(session->stats().aborts, 1u);
  session->Close();
}

TEST(SessionTest, ReadUnknownRelationKeepsTransactionAlive) {
  TestServer server(kPlainProgram);
  auto session = server.manager().Connect("alice").ValueOrDie();
  ASSERT_TRUE(session->Begin().ok());
  EXPECT_TRUE(session->Read("nope").status().IsNotFound());
  EXPECT_TRUE(session->in_txn());
  EXPECT_TRUE(session->Commit().ok());
  session->Close();
}

TEST(SessionTest, WriteToDeadWmeAbortsTransaction) {
  TestServer server(kPlainProgram);
  auto session = server.manager().Connect("alice").ValueOrDie();
  ASSERT_TRUE(session->Begin().ok());
  Delta delta;
  delta.Modify(999, {{0, Value::Int(1)}});
  EXPECT_TRUE(session->Write(delta).IsNotFound());
  EXPECT_FALSE(session->in_txn());  // failed writes poison the txn
  EXPECT_EQ(session->stats().aborts, 1u);
  session->Close();
}

TEST(SessionTest, TxnGateAppliesBackpressure) {
  ServerOptions options;
  options.max_concurrent_txns = 1;
  options.session.txn_admission_timeout = milliseconds(50);
  TestServer server(kPlainProgram, options);
  auto a = server.manager().Connect("a").ValueOrDie();
  auto b = server.manager().Connect("b").ValueOrDie();

  ASSERT_TRUE(a->Begin().ok());
  Status blocked = b->Begin();
  EXPECT_TRUE(blocked.IsResourceExhausted()) << blocked;
  ASSERT_TRUE(a->Commit().ok());
  EXPECT_TRUE(b->Begin().ok());
  EXPECT_TRUE(b->Commit().ok());
  a->Close();
  b->Close();
  server.Finish();
  auto stats = server.manager().GetStats();
  EXPECT_GE(stats.txn_gate.timeouts, 1u);
  EXPECT_GE(stats.txn_gate.waited, 1u);
}

// §4.3 under kRcRaWa: a writer's Wa is granted over an outstanding Rc;
// its COMMIT aborts the Rc holder — here a client repeatable reader.
TEST(SessionTest, RcRaWaWriterCommitVictimizesReader) {
  ParallelEngineOptions engine_options;
  engine_options.protocol = LockProtocol::kRcRaWa;
  TestServer server(kPlainProgram, {}, engine_options);
  auto reader = server.manager().Connect("reader").ValueOrDie();
  auto writer = server.manager().Connect("writer").ValueOrDie();

  ASSERT_TRUE(reader->Begin().ok());
  ASSERT_TRUE(reader->Read("item").ok());  // relation-level Rc, held

  ASSERT_TRUE(writer->Begin().ok());
  ASSERT_TRUE(writer->Write(MakeItem(1)).ok());  // Wa granted, no block
  ASSERT_TRUE(writer->Commit().ok());            // commit settles victims

  auto seq = reader->Commit();
  EXPECT_TRUE(seq.status().IsAborted()) << seq.status();
  EXPECT_EQ(reader->stats().rc_victim_aborts, 1u);

  // The reader can start over and see the committed write.
  ASSERT_TRUE(reader->Begin().ok());
  auto rows = reader->Read("item");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.ValueOrDie().size(), 1u);
  ASSERT_TRUE(reader->Commit().ok());
  reader->Close();
  writer->Close();
  const RunResult& result = server.Finish();
  EXPECT_EQ(result.stats.client_commits, 2u);
  EXPECT_EQ(result.stats.client_aborts, 1u);
}

// Query() Rc-locks every relation its LHS touches, so it is victimized
// exactly like Read().
TEST(SessionTest, QueryHoldsRepeatableReadLocks) {
  ParallelEngineOptions engine_options;
  engine_options.protocol = LockProtocol::kRcRaWa;
  TestServer server(kPlainProgram, {}, engine_options);
  auto reader = server.manager().Connect("reader").ValueOrDie();
  auto writer = server.manager().Connect("writer").ValueOrDie();

  ASSERT_TRUE(reader->Begin().ok());
  auto rows = reader->Query("(item ^id <i>)");
  ASSERT_TRUE(rows.ok()) << rows.status();

  ASSERT_TRUE(writer->Begin().ok());
  ASSERT_TRUE(writer->Write(MakeItem(2)).ok());
  ASSERT_TRUE(writer->Commit().ok());

  EXPECT_TRUE(reader->Commit().status().IsAborted());
  reader->Close();
  writer->Close();
  server.Finish();
}

// Under kTwoPhase the same conflict BLOCKS the writer until the reader
// commits (Table 4.1: no mode is granted over a held Rc).
TEST(SessionTest, TwoPhaseWriterBlocksBehindReader) {
  ParallelEngineOptions engine_options;
  engine_options.protocol = LockProtocol::kTwoPhase;
  TestServer server(kPlainProgram, {}, engine_options);
  auto reader = server.manager().Connect("reader").ValueOrDie();
  auto writer = server.manager().Connect("writer").ValueOrDie();

  ASSERT_TRUE(reader->Begin().ok());
  ASSERT_TRUE(reader->Read("item").ok());

  std::atomic<bool> writer_committed{false};
  std::thread writing([&] {
    ASSERT_TRUE(writer->Begin().ok());
    ASSERT_TRUE(writer->Write(MakeItem(3)).ok());  // blocks on reader's Rc
    ASSERT_TRUE(writer->Commit().ok());
    writer_committed.store(true);
  });

  std::this_thread::sleep_for(milliseconds(100));
  EXPECT_FALSE(writer_committed.load());  // still blocked
  ASSERT_TRUE(reader->Commit().ok());     // release -> writer proceeds
  writing.join();
  EXPECT_TRUE(writer_committed.load());
  EXPECT_EQ(reader->stats().rc_victim_aborts, 0u);
  reader->Close();
  writer->Close();
  const RunResult& result = server.Finish();
  EXPECT_EQ(result.stats.client_commits, 2u);
  EXPECT_EQ(result.stats.client_aborts, 0u);
}

// Client inserts activate rules; the journal feed sees BOTH kinds of
// commit in commit order, and replaying it reproduces the final state.
TEST(SessionTest, JournalFeedReplaysClientAndRuleCommits) {
  JournalFeed feed;
  ParallelEngineOptions engine_options;
  engine_options.base.observer = feed.MakeObserver();
  TestServer server(kServeProgram, {}, engine_options);
  auto session = server.manager().Connect("alice").ValueOrDie();

  for (int64_t id = 0; id < 3; ++id) {
    ASSERT_TRUE(session->Begin().ok());
    ASSERT_TRUE(session->Write(MakeItem(id, "inbox")).ok());
    ASSERT_TRUE(session->Commit().ok());
  }
  // Durability subscription: wait for the rule commits to land too.
  feed.WaitForSize(6, milliseconds(5000));
  session->Close();
  const RunResult& result = server.Finish();

  EXPECT_EQ(result.stats.client_commits, 3u);
  EXPECT_EQ(result.stats.firings, 3u);
  EXPECT_EQ(server.wm().Count(Sym("inbox")), 0u);
  EXPECT_EQ(server.wm().Count(Sym("done")), 3u);
  ASSERT_EQ(feed.size(), result.log.size());
  EXPECT_EQ(feed.serialize_errors(), 0u);
  EXPECT_EQ(feed.LinesFrom(feed.size() - 1).size(), 1u);  // cursor drain

  // Journal round trip: text replays to the exact final database.
  WorkingMemory replayed;
  ASSERT_TRUE(LoadProgram(kServeProgram, &replayed).ok());
  ASSERT_TRUE(ReplayJournal(feed.TextFrom(0), &replayed).ok());
  EXPECT_EQ(replayed.Count(Sym("inbox")), 0u);
  EXPECT_EQ(replayed.Count(Sym("done")), 3u);
}

// Engine locks are released before a commit is durable, so a client that
// read a firing's output and commits without writes must still not be
// acknowledged before that firing's record is durable (Aether's rule for
// early lock release). The firing is the run's first commit, and its
// group fsync is held back by a 2 s injected delay on the flusher.
TEST(SessionTest, ReadOnlyCommitWaitsUntilTheFiringItReadIsDurable) {
  struct DisarmOnExit {
    ~DisarmOnExit() { FailpointRegistry::Instance().DisableAll(); }
  } disarm;
  FailpointRegistry::Instance().Configure(
      "server.journal.fsync_delay",
      {.one_in = 1, .max_fires = 1, .delay = std::chrono::seconds(2)});
  JournalFeed feed;
  DurabilityOptions durability;
  durability.group_commit = true;  // simulated device
  ASSERT_TRUE(feed.EnableDurability(durability).ok());
  ServerOptions server_options;
  server_options.durable_feed = &feed;
  ParallelEngineOptions engine_options;
  engine_options.base.observer = feed.MakeObserver();
  TestServer server(R"(
(relation inbox (id int))
(relation done (id int))
(rule serve (inbox ^id <i>) --> (remove 1) (make done ^id <i>))
(make inbox ^id 7)
)",
                    server_options, engine_options);
  auto session = server.manager().Connect("reader").ValueOrDie();
  std::vector<WmePtr> rows;
  for (int i = 0; i < 5000 && rows.empty(); ++i) {
    // The firing's commit victimizes a reader holding Rc on `done`;
    // Perform retries that.
    Status st = session->Perform([&](Session& s) -> Status {
      DBPS_RETURN_NOT_OK(s.Begin());
      DBPS_ASSIGN_OR_RETURN(rows, s.Read("done"));
      return s.Commit().status();
    });
    ASSERT_TRUE(st.ok()) << st;
    if (rows.empty()) std::this_thread::sleep_for(milliseconds(1));
  }
  ASSERT_EQ(rows.size(), 1u);
  // The firing committed as seq 0; the OK above came only after it was
  // durable.
  EXPECT_GT(feed.durable_seq(), 0u);
  EXPECT_EQ(session->stats().durable_ack_failures, 0u);
  session->Close();
  const RunResult& result = server.Finish();
  EXPECT_EQ(result.stats.firings, 1u);
}

// A client commit whose delta carries the halt flag stops the server the
// same way a rule's (halt) action would.
TEST(SessionTest, ClientHaltStopsEngine) {
  TestServer server(kPlainProgram);
  auto session = server.manager().Connect("alice").ValueOrDie();
  ASSERT_TRUE(session->Begin().ok());
  Delta halt;
  halt.SetHalt();
  ASSERT_TRUE(session->Write(halt).ok());
  ASSERT_TRUE(session->Commit().ok());
  // The engine run ends even though the manager is still accepting.
  const RunResult& result = server.Finish();
  EXPECT_EQ(result.stats.halted, 1u);
  // Post-halt transactions are refused.
  EXPECT_TRUE(session->Begin().IsUnavailable());
  session->Close();
}

TEST(AdmissionGateTest, BlocksAtCapacityAndTimesOut) {
  AdmissionGate gate(1);
  ASSERT_TRUE(gate.Enter(milliseconds(10)).ok());
  EXPECT_EQ(gate.in_use(), 1u);
  EXPECT_TRUE(gate.Enter(milliseconds(10)).IsResourceExhausted());
  gate.Leave();
  ASSERT_TRUE(gate.Enter(milliseconds(10)).ok());
  gate.Leave();
  auto stats = gate.GetStats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(stats.peak_in_use, 1u);
}

TEST(AdmissionGateTest, UnboundedNeverBlocks) {
  AdmissionGate gate(0);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(gate.Enter(milliseconds(0)).ok());
  }
  EXPECT_EQ(gate.in_use(), 100u);
}

TEST(AdmissionGateTest, CloseFailsWaiters) {
  AdmissionGate gate(1);
  ASSERT_TRUE(gate.Enter(milliseconds(10)).ok());
  std::thread closer([&] {
    std::this_thread::sleep_for(milliseconds(50));
    gate.Close();
  });
  EXPECT_TRUE(gate.Enter(milliseconds(5000)).IsUnavailable());
  closer.join();
  EXPECT_TRUE(gate.Enter(milliseconds(0)).IsUnavailable());
}

}  // namespace
}  // namespace dbps
