// NetServer end-to-end over loopback: the wire protocol against a live
// engine — session lifecycle, pipelining, backpressure frames, protocol
// violations, rule activation from network writes, and stats.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dbps.h"
#include "net/client.h"
#include "net/net_server.h"
#include "net/wire.h"

namespace dbps {
namespace net {
namespace {

using std::chrono::milliseconds;

constexpr const char* kPlainProgram = R"(
(relation item (id int))
(relation out (id int))
)";

constexpr const char* kServeProgram = R"(
(relation inbox (id int))
(relation done (id int))
(rule serve
  (inbox ^id <i>)
  -->
  (remove 1)
  (make done ^id <i>))
)";

/// Engine + manager + socket front-end, torn down in the documented
/// order: NetServer, then manager, then engine join.
class NetTestServer {
 public:
  explicit NetTestServer(const char* program,
                         ServerOptions server_options = {},
                         NetServerOptions net_options = {}) {
    rules_ = LoadProgram(program, &wm_).ValueOrDie();
    manager_ =
        std::make_unique<SessionManager>(&wm_, std::move(server_options));
    ParallelEngineOptions engine_options;
    engine_options.num_workers = 2;
    engine_options.external_source = manager_.get();
    engine_ = std::make_unique<ParallelEngine>(&wm_, rules_, engine_options);
    manager_->BindEngine(engine_.get());
    thread_ = std::thread([this] { result_ = engine_->Run(); });
    net_ = std::make_unique<NetServer>(manager_.get(), net_options);
    DBPS_CHECK_OK(net_->Start());
  }

  ~NetTestServer() { Shutdown(); }

  void Shutdown() {
    if (net_) net_->Stop();
    manager_->Close();
    if (thread_.joinable()) thread_.join();
  }

  std::unique_ptr<DbpsClient> Client(const std::string& name) {
    auto client_or =
        DbpsClient::Connect("127.0.0.1", net_->port(), name);
    DBPS_CHECK_OK(client_or.status());
    return std::move(client_or).ValueOrDie();
  }

  NetServer& net() { return *net_; }
  SessionManager& manager() { return *manager_; }
  WorkingMemory& wm() { return wm_; }

 private:
  WorkingMemory wm_;
  RuleSetPtr rules_;
  std::unique_ptr<SessionManager> manager_;
  std::unique_ptr<ParallelEngine> engine_;
  std::unique_ptr<NetServer> net_;
  std::thread thread_;
  StatusOr<RunResult> result_{Status::Internal("engine not run")};
};

TEST(NetServerTest, HelloTransactRoundTrip) {
  NetTestServer server(kPlainProgram);
  auto client = server.Client("alice");
  EXPECT_GT(client->session_id(), 0u);
  EXPECT_TRUE(client->Ping().ok());

  ASSERT_TRUE(client->Begin().ok());
  ASSERT_TRUE(client->WriteLine("(delta (make item 7))").ok());
  auto seq = client->Commit();
  ASSERT_TRUE(seq.ok()) << seq.status();

  ASSERT_TRUE(client->Begin().ok());
  auto rows = client->Read("item");
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows.ValueOrDie().size(), 1u);
  EXPECT_NE(rows.ValueOrDie()[0].find("item"), std::string::npos);
  EXPECT_TRUE(client->Abort().ok());
  EXPECT_TRUE(client->Goodbye().ok());
}

TEST(NetServerTest, PipelinedTransactionAnswersInOrder) {
  NetTestServer server(kPlainProgram);
  auto client = server.Client("pipeline");
  // A whole transaction leaves in one burst before any response is read.
  uint64_t b = client->Send(FrameType::kBegin).ValueOrDie();
  std::string wbody;
  PutString(&wbody, "(delta (make item 1))");
  uint64_t w = client->Send(FrameType::kWrite, wbody).ValueOrDie();
  uint64_t c = client->Send(FrameType::kCommit).ValueOrDie();
  EXPECT_EQ(client->in_flight(), 3u);

  EXPECT_TRUE(DbpsClient::ExpectOk(client->Await(b).ValueOrDie()).ok());
  EXPECT_TRUE(DbpsClient::ExpectOk(client->Await(w).ValueOrDie()).ok());
  auto seq = DbpsClient::ExpectCommitOk(client->Await(c).ValueOrDie());
  ASSERT_TRUE(seq.ok()) << seq.status();
  EXPECT_EQ(client->in_flight(), 0u);
}

TEST(NetServerTest, AwaitOutOfOrderBuffersEarlierResponses) {
  NetTestServer server(kPlainProgram);
  auto client = server.Client("ooo");
  uint64_t p1 = client->Send(FrameType::kPing).ValueOrDie();
  uint64_t p2 = client->Send(FrameType::kPing).ValueOrDie();
  // Await the LATER id first; the earlier response must be buffered.
  EXPECT_EQ(client->Await(p2).ValueOrDie().type, FrameType::kPong);
  EXPECT_EQ(client->Await(p1).ValueOrDie().type, FrameType::kPong);
}

TEST(NetServerTest, SessionTableFullYieldsBusy) {
  ServerOptions options;
  options.max_sessions = 1;
  NetTestServer server(kPlainProgram, options);
  auto first = server.Client("only");
  auto second =
      DbpsClient::Connect("127.0.0.1", server.net().port(), "crowd");
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsResourceExhausted()) << second.status();
  EXPECT_NE(second.status().message().find("retry"), std::string::npos);
  EXPECT_GE(server.net().GetStats().busy_frames, 1u);
}

TEST(NetServerTest, TxnGatePressureYieldsBusyOnBegin) {
  ServerOptions options;
  options.max_concurrent_txns = 1;
  NetServerOptions net_options;
  net_options.txn_gate_timeout = milliseconds(5);
  NetTestServer server(kPlainProgram, options, net_options);
  auto holder = server.Client("holder");
  ASSERT_TRUE(holder->Begin().ok());  // occupies the only gate slot
  auto blocked = server.Client("blocked");
  Status st = blocked->Begin();
  EXPECT_TRUE(st.IsResourceExhausted()) << st;
  // Release the slot; the blocked client's retry succeeds.
  ASSERT_TRUE(holder->Commit().ok());
  EXPECT_TRUE(blocked->Begin().ok());
  EXPECT_TRUE(blocked->Commit().ok());
}

TEST(NetServerTest, RequestsBeforeHelloAreRejected) {
  NetTestServer server(kPlainProgram);
  // Raw connection, no Hello: Begin must come back as an Error frame
  // (not a closed connection, not a crash).
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.net().port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request = EncodeFrame(FrameType::kBegin, 5);
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  char buf[256];
  FrameReader reader;
  Frame frame;
  bool got = false;
  for (int i = 0; i < 100 && !got; ++i) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    reader.Feed(std::string_view(buf, static_cast<size_t>(n)));
    got = reader.Next(&frame).ValueOrDie();
  }
  ASSERT_TRUE(got);
  EXPECT_EQ(frame.type, FrameType::kError);
  EXPECT_EQ(frame.request_id, 5u);
  EXPECT_TRUE(DecodeError(frame).IsInvalidArgument());
  ::close(fd);
}

TEST(NetServerTest, GarbageBytesKillTheConnection) {
  NetTestServer server(kPlainProgram);
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.net().port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string garbage(64, '\xff');  // insane length prefix
  ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), 0),
            static_cast<ssize_t>(garbage.size()));
  char buf[64];
  EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);  // server hangs up
  ::close(fd);
  for (int i = 0; i < 200 && server.net().GetStats().protocol_errors == 0;
       ++i) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_GE(server.net().GetStats().protocol_errors, 1u);
}

TEST(NetServerTest, NetworkWriteActivatesRules) {
  NetTestServer server(kServeProgram);
  auto client = server.Client("producer");
  ASSERT_TRUE(client->Begin().ok());
  ASSERT_TRUE(client->WriteLine("(delta (make inbox 42))").ok());
  ASSERT_TRUE(client->Commit().ok());
  // The serve rule consumes inbox and produces done; poll through the
  // same wire protocol until it lands. The rule's commit inserts into
  // `done` and so victimizes a poll holding Rc on it; like
  // Session::Perform, the poll retries a commit that came back Aborted.
  std::vector<std::string> done;
  for (int i = 0; i < 2000 && done.empty(); ++i) {
    ASSERT_TRUE(client->Begin().ok());
    auto rows = client->Read("done");
    ASSERT_TRUE(rows.ok()) << rows.status();
    auto commit = client->Commit();
    if (!commit.status().IsAborted()) {
      ASSERT_TRUE(commit.ok()) << commit.status();
      done = std::move(rows).ValueOrDie();
    }
    if (done.empty()) std::this_thread::sleep_for(milliseconds(1));
  }
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NE(done[0].find("42"), std::string::npos);
}

TEST(NetServerTest, QueryOverTheWire) {
  NetTestServer server(kPlainProgram);
  auto client = server.Client("q");
  ASSERT_TRUE(client->Begin().ok());
  ASSERT_TRUE(client->WriteLine("(delta (make item 1))").ok());
  ASSERT_TRUE(client->WriteLine("(delta (make item 2))").ok());
  ASSERT_TRUE(client->Commit().ok());
  ASSERT_TRUE(client->Begin().ok());
  auto rows = client->Query("(item ^id <i>)");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows.ValueOrDie().size(), 2u);
  EXPECT_TRUE(client->Commit().ok());
}

TEST(NetServerTest, ManyConcurrentConnectionsStatsAndTeardown) {
  ServerOptions options;
  options.max_sessions = 128;
  NetServerOptions net_options;
  net_options.num_loops = 2;
  net_options.num_dispatchers = 4;
  NetTestServer server(kPlainProgram, options, net_options);
  constexpr int kClients = 24;
  constexpr int kTxns = 5;
  std::vector<std::thread> threads;
  std::atomic<int> commits{0};
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&server, &commits, t] {
      auto client = server.Client("c" + std::to_string(t));
      for (int i = 0; i < kTxns; ++i) {
        ASSERT_TRUE(client->Begin().ok());
        ASSERT_TRUE(client
                        ->WriteLine("(delta (make item " +
                                    std::to_string(t * 1000 + i) + "))")
                        .ok());
        ASSERT_TRUE(client->Commit().ok());
        ++commits;
      }
      EXPECT_TRUE(client->Goodbye().ok());
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(commits.load(), kClients * kTxns);
  for (int i = 0; i < 500 && server.net().open_connections() > 0; ++i) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  NetStats stats = server.net().GetStats();
  EXPECT_EQ(stats.open_connections, 0u);
  EXPECT_EQ(stats.connections_accepted, static_cast<uint64_t>(kClients));
  EXPECT_EQ(stats.connections_closed, stats.connections_accepted);
  EXPECT_GE(stats.frames_in,
            static_cast<uint64_t>(kClients * kTxns * 3));
  EXPECT_EQ(stats.frames_in, stats.frames_out);
  EXPECT_EQ(server.wm().Count(Sym("item")),
            static_cast<size_t>(kClients * kTxns));
}

TEST(NetServerTest, StopWithLiveConnectionsClosesCleanly) {
  auto server = std::make_unique<NetTestServer>(kPlainProgram);
  auto client = server->Client("lingering");
  ASSERT_TRUE(client->Begin().ok());
  server->Shutdown();  // server goes away under an open transaction
  // The client's next operation fails instead of hanging.
  Status st = client->Ping();
  EXPECT_FALSE(st.ok());
}

}  // namespace
}  // namespace net
}  // namespace dbps
