#include "testing/chaos_runner.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "engine/busy_work.h"
#include "net/client.h"
#include "net/net_server.h"
#include "testing/workloads.h"
#include "util/string_util.h"

namespace dbps {
namespace testing {
namespace {

// The multi-user chaos program: clients file requests, rules triage and
// resolve them, and every third client transaction takes a repeatable
// read over `resolved` — so rule commits victimize clients under kRcRaWa
// and block behind them under kTwoPhase (same contention shape as the
// multi-user property test, now with faults layered on top).
constexpr const char* kChaosProgram = R"(
(relation request (id int) (state symbol))
(relation resolved (id int))

(rule triage :cost 30
  (request ^id <i> ^state new)
  -->
  (modify 1 ^state triaged))

(rule resolve :cost 30
  (request ^id <i> ^state triaged)
  -->
  (remove 1)
  (make resolved ^id <i>))
)";

/// Disarms every failpoint on scope exit, no matter how the trial ends.
struct FailpointDisarm {
  ~FailpointDisarm() { FailpointRegistry::Instance().DisableAll(); }
};

ParallelEngineOptions EngineOptionsFor(const ChaosOptions& options) {
  ParallelEngineOptions eo;
  eo.base.seed = options.seed;
  eo.num_workers = options.num_workers;
  eo.protocol = options.protocol;
  eo.abort_policy = options.abort_policy;
  eo.deadlock_policy = options.deadlock_policy;
  eo.commit_batch_limit = options.commit_batch_limit;
  eo.num_match_partitions = options.match_partitions;
  eo.match_shadow_check = options.match_shadow_check;
  eo.match_split = options.match_split;
  eo.match_split_ways = options.match_split_ways;
  eo.match_split_streak = options.match_split_streak;
  eo.match_split_share = options.match_split_share;
  eo.audit_every = options.audit_every;
  return eo;
}

/// The post-run safety checks shared by every workload. `audit_out`
/// (optional) receives the consistency audit of the commit log.
Status CheckRun(const StatusOr<RunResult>& result_or, WorkingMemory* wm,
                WorkingMemory* pristine, const RuleSetPtr& rules,
                size_t live_transactions, AuditReport* audit_out = nullptr) {
  if (!result_or.ok()) {
    return Status::Internal("run failed: " + result_or.status().ToString());
  }
  const RunResult& result = result_or.ValueOrDie();
  if (live_transactions != 0) {
    return Status::Internal(
        StringPrintf("leaked %zu live transactions", live_transactions));
  }
  Status replay = ValidateReplay(pristine, rules, result.log);
  if (!replay.ok()) {
    return Status::Internal("replay validation failed: " +
                            replay.ToString());
  }
  if (pristine->TotalCount() != wm->TotalCount()) {
    return Status::Internal(StringPrintf(
        "replayed database diverged: replay has %zu WMEs, run has %zu",
        pristine->TotalCount(), wm->TotalCount()));
  }
  // The independent oracle: re-derive serializability, Rc/Wa semantics,
  // and the victim ledger from the log alone (none of the engine's apply
  // code). ValidateReplay and the audit share no logic, so agreement
  // here is two independent proofs.
  ConsistencyAuditor auditor;
  for (const FiringRecord& record : result.log) {
    auditor.AddCommit(record.seq, record.delta, record.audit);
  }
  AuditReport audit = auditor.Finish();
  if (audit_out != nullptr) *audit_out = audit;
  if (!audit.clean()) {
    return Status::Internal("consistency audit failed: " + audit.ToString());
  }
  return Status::OK();
}

ChaosReport RunRulesOnlyTrial(const ChaosOptions& options) {
  ChaosReport report;
  RuleSetPtr rules;
  auto wm = MakeLogisticsWm(/*boxes=*/12, /*robots=*/4, /*sites=*/4, &rules);
  auto pristine = wm->Clone();

  FailpointDisarm disarm;
  ApplyChaosProfile(options.fail_rate, options.seed);

  ParallelEngine engine(wm.get(), rules, EngineOptionsFor(options));
  auto result_or = engine.Run();
  FailpointRegistry::Instance().DisableAll();

  if (result_or.ok()) report.stats = result_or.ValueOrDie().stats;
  report.live_transactions = engine.live_lock_transactions();
  report.verdict = CheckRun(result_or, wm.get(), pristine.get(), rules,
                            report.live_transactions, &report.audit);
  return report;
}

ChaosReport RunMultiUserTrial(const ChaosOptions& options) {
  ChaosReport report;
  WorkingMemory wm;
  auto rules_or = LoadProgram(kChaosProgram, &wm);
  DBPS_CHECK(rules_or.ok()) << rules_or.status();
  RuleSetPtr rules = rules_or.ValueOrDie();
  auto pristine = wm.Clone();

  SessionManager manager(&wm);
  ParallelEngineOptions eo = EngineOptionsFor(options);
  eo.external_source = &manager;
  ParallelEngine engine(&wm, rules, eo);
  manager.BindEngine(&engine);

  FailpointDisarm disarm;
  ApplyChaosProfile(options.fail_rate, options.seed);

  StatusOr<RunResult> result_or{Status::Internal("not run")};
  std::thread serve([&] { result_or = engine.Run(); });

  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> gave_up{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < options.client_sessions; ++c) {
    clients.emplace_back([&, c] {
      // Connect can be rejected by the injected admission failpoint;
      // retry like a real client would.
      SessionPtr session;
      for (int attempt = 0; attempt < 64 && session == nullptr; ++attempt) {
        auto session_or = manager.Connect("chaos-" + std::to_string(c));
        if (session_or.ok()) {
          session = session_or.ValueOrDie();
        } else {
          SleepMicros(200);
        }
      }
      if (session == nullptr) {
        gave_up.fetch_add(options.txns_per_session);
        return;
      }
      for (uint64_t i = 0; i < options.txns_per_session; ++i) {
        Status st = session->Perform([&, i](Session& s) -> Status {
          DBPS_RETURN_NOT_OK(s.Begin());
          if (i % 3 == 0) {
            auto rows_or = s.Read("resolved");
            if (!rows_or.ok()) return rows_or.status();
          }
          Delta delta;
          delta.Create(Sym("request"),
                       {Value::Int(static_cast<int64_t>(c * 1000 + i)),
                        Value::Symbol("new")});
          DBPS_RETURN_NOT_OK(s.Write(delta));
          return s.Commit().status();
        });
        if (st.ok()) {
          committed.fetch_add(1);
        } else {
          gave_up.fetch_add(1);
        }
      }
      session->Close();
    });
  }
  for (auto& t : clients) t.join();
  manager.Close();
  serve.join();
  // Disarm before validation so the replay cannot trip engine/lock sites.
  FailpointRegistry::Instance().DisableAll();

  report.committed_client_txns = committed.load();
  report.client_give_ups = gave_up.load();
  if (result_or.ok()) report.stats = result_or.ValueOrDie().stats;
  report.live_transactions = engine.live_lock_transactions();
  report.verdict = CheckRun(result_or, &wm, pristine.get(), rules,
                            report.live_transactions, &report.audit);
  return report;
}

ChaosReport RunNetworkTrial(const ChaosOptions& options) {
  ChaosReport report;
  WorkingMemory wm;
  auto rules_or = LoadProgram(kChaosProgram, &wm);
  DBPS_CHECK(rules_or.ok()) << rules_or.status();
  RuleSetPtr rules = rules_or.ValueOrDie();
  auto pristine = wm.Clone();

  // Durable group-commit journal: commit acks over the wire are
  // fsync-acknowledged, so the chaos faults also stress the ack path.
  JournalFeed feed;
  DurabilityOptions durability;
  durability.group_commit = true;
  DBPS_CHECK_OK(feed.EnableDurability(durability));

  ServerOptions server_options;
  server_options.durable_feed = &feed;
  SessionManager manager(&wm, server_options);
  ParallelEngineOptions eo = EngineOptionsFor(options);
  eo.external_source = &manager;
  eo.base.observer = feed.MakeObserver();
  ParallelEngine engine(&wm, rules, eo);
  manager.BindEngine(&engine);

  StatusOr<RunResult> result_or{Status::Internal("not run")};
  std::thread serve([&] { result_or = engine.Run(); });

  net::NetServerOptions net_options;
  net_options.num_loops = 2;
  net_options.num_dispatchers = 4;
  net::NetServer net(&manager, net_options);
  DBPS_CHECK_OK(net.Start());
  const uint16_t port = net.port();

  FailpointDisarm disarm;
  ApplyNetworkChaosProfile(options.fail_rate, options.seed);

  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> gave_up{0};
  std::atomic<uint64_t> unknown{0};
  std::atomic<uint64_t> reconnects{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < options.client_sessions; ++c) {
    clients.emplace_back([&, c] {
      const std::string name = "net-chaos-" + std::to_string(c);
      std::unique_ptr<net::DbpsClient> client;
      // (Re)connects through injected accept drops and Busy rejections.
      auto ensure_connected = [&]() -> bool {
        if (client != nullptr) return true;
        // Short receive timeout: under chaos a response can legitimately
        // never arrive (dropped connection); fail fast and reconnect
        // rather than park the trial on the default 30s timeout.
        net::ClientOptions client_options;
        client_options.recv_timeout = std::chrono::milliseconds(2000);
        for (int attempt = 0; attempt < 64; ++attempt) {
          auto client_or =
              net::DbpsClient::Connect("127.0.0.1", port, name, client_options);
          if (client_or.ok()) {
            client = std::move(client_or).ValueOrDie();
            return true;
          }
          SleepMicros(300);
        }
        return false;
      };
      for (uint64_t i = 0; i < options.txns_per_session; ++i) {
        bool done = false;
        for (int attempt = 0; attempt < 32 && !done; ++attempt) {
          if (!ensure_connected()) break;
          Status st = client->Begin();
          if (st.ok()) {
            auto line_or = DeltaToJournalLine([&] {
              Delta delta;
              delta.Create(Sym("request"),
                           {Value::Int(static_cast<int64_t>(c * 1000 + i)),
                            Value::Symbol("new")});
              return delta;
            }());
            DBPS_CHECK(line_or.ok());
            st = client->WriteLine(line_or.ValueOrDie());
            if (st.ok()) {
              auto seq_or = client->Commit();
              if (seq_or.ok()) {
                committed.fetch_add(1);
                done = true;
                continue;
              }
              st = seq_or.status();
              if (st.IsUnavailable()) {
                // Connection died carrying the commit verdict: the
                // outcome is unknown; do NOT re-run this transaction
                // (it may have committed — replay decides the truth).
                unknown.fetch_add(1);
                done = true;
              }
            }
          }
          if (!done && st.IsUnavailable()) {
            // Dead connection: drop it and reconnect.
            client.reset();
            reconnects.fetch_add(1);
          }
          if (!done) SleepMicros(300);
        }
        if (!done) gave_up.fetch_add(1);
      }
      if (client != nullptr) (void)client->Goodbye();
    });
  }
  for (auto& t : clients) t.join();
  net.Stop();
  manager.Close();
  serve.join();
  FailpointRegistry::Instance().DisableAll();

  report.committed_client_txns = committed.load();
  report.client_give_ups = gave_up.load();
  report.unknown_outcomes = unknown.load();
  report.reconnects = reconnects.load();
  if (result_or.ok()) report.stats = result_or.ValueOrDie().stats;
  report.live_transactions = engine.live_lock_transactions();
  report.verdict = CheckRun(result_or, &wm, pristine.get(), rules,
                            report.live_transactions, &report.audit);
  // The durable journal must never over-promise: everything below the
  // durable high-water actually reached the feed.
  if (report.verdict.ok() && feed.durable_seq() > feed.size()) {
    report.verdict = Status::Internal(StringPrintf(
        "durable_seq %llu exceeds journal size %zu",
        (unsigned long long)feed.durable_seq(), feed.size()));
  }
  return report;
}

ChaosReport RunCrashRecoverTrial(const ChaosOptions& options) {
  ChaosReport report;
  if (options.journal_path.empty()) {
    report.verdict = Status::InvalidArgument(
        "kCrashRecover requires ChaosOptions::journal_path");
    return report;
  }
  WorkingMemory wm;
  auto rules_or = LoadProgram(kChaosProgram, &wm);
  DBPS_CHECK(rules_or.ok()) << rules_or.status();
  RuleSetPtr rules = rules_or.ValueOrDie();
  auto pristine = wm.Clone();

  // File-backed durable journal: a fresh WAL per trial, optionally with
  // group commit and auto-checkpoints, per the seeded matrix.
  JournalFeed feed;
  DurabilityOptions durability;
  durability.path = options.journal_path;
  durability.open_mode = JournalOpenMode::kTruncate;
  durability.group_commit = options.group_commit;
  durability.checkpoint_every = options.checkpoint_every;
  Status enabled = feed.EnableDurability(durability);
  if (enabled.ok()) enabled = feed.EnableCheckpoints(&wm);
  if (!enabled.ok()) {
    report.verdict = enabled;
    return report;
  }

  ServerOptions server_options;
  server_options.durable_feed = &feed;
  SessionManager manager(&wm, server_options);
  ParallelEngineOptions eo = EngineOptionsFor(options);
  eo.external_source = &manager;
  eo.base.observer = feed.MakeObserver();
  ParallelEngine engine(&wm, rules, eo);
  manager.BindEngine(&engine);

  // Arm exactly ONE crash site, both choices derived from the seed: which
  // failure shape (all frames written vs torn mid-frame) and how many
  // successful syncs happen first. one_in=1 makes the armed site fire
  // deterministically once the skip count is spent.
  FailpointDisarm disarm;
  FailpointRegistry::Instance().SetSeed(options.seed);
  const std::vector<std::string>& sites = CrashChaosSites();
  const std::string site = sites[options.seed % sites.size()];
  const uint64_t skip =
      1 + options.seed % (options.group_commit ? 6 : 16);
  FailpointRegistry::Instance().Configure(
      site, {.one_in = 1, .skip = skip, .max_fires = 1});

  StatusOr<RunResult> result_or{Status::Internal("not run")};
  std::thread serve([&] { result_or = engine.Run(); });

  // Clients record every ACKED commit: Session::Commit only returns OK
  // after the commit's journal frame is fsync-durable, so (id, seq) here
  // is exactly the set recovery must preserve.
  std::mutex mu;
  std::vector<std::pair<int64_t, uint64_t>> acked;
  std::atomic<uint64_t> gave_up{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < options.client_sessions; ++c) {
    clients.emplace_back([&, c] {
      auto session_or = manager.Connect("crash-" + std::to_string(c));
      if (!session_or.ok()) {
        gave_up.fetch_add(options.txns_per_session);
        return;
      }
      SessionPtr session = session_or.ValueOrDie();
      for (uint64_t i = 0; i < options.txns_per_session; ++i) {
        const int64_t id = static_cast<int64_t>(c * 1000 + i);
        uint64_t seq = 0;
        Status st = session->Perform([&](Session& s) -> Status {
          DBPS_RETURN_NOT_OK(s.Begin());
          Delta delta;
          delta.Create(Sym("request"),
                       {Value::Int(id), Value::Symbol("new")});
          DBPS_RETURN_NOT_OK(s.Write(delta));
          auto seq_or = s.Commit();
          if (seq_or.ok()) seq = seq_or.ValueOrDie();
          return seq_or.status();
        });
        if (st.ok()) {
          std::lock_guard<std::mutex> guard(mu);
          acked.emplace_back(id, seq);
        } else {
          // After the injected crash every commit fails its durable
          // wait — bounded give-up is the correct client behavior.
          gave_up.fetch_add(1);
        }
      }
      session->Close();
    });
  }
  for (auto& t : clients) t.join();
  manager.Close();
  serve.join();
  FailpointRegistry::Instance().DisableAll();

  report.committed_client_txns = acked.size();
  report.acked_commits = acked.size();
  report.client_give_ups = gave_up.load();
  report.injected_crashes = feed.durability().injected_crashes;
  if (result_or.ok()) report.stats = result_or.ValueOrDie().stats;
  report.live_transactions = engine.live_lock_transactions();
  report.verdict = CheckRun(result_or, &wm, pristine.get(), rules,
                            report.live_transactions, &report.audit);
  if (!report.verdict.ok()) return report;

  // --- The crash happened (or the workload outran the crash point);
  // either way, recover the on-disk journal into a fresh program WM. ---
  WorkingMemory recovered;
  DBPS_CHECK(LoadProgram(kChaosProgram, &recovered).ok());
  RecoveryManager recovery(options.journal_path);
  auto recover_or = recovery.Recover(&recovered);
  if (!recover_or.ok()) {
    report.verdict = Status::Internal("recovery failed: " +
                                      recover_or.status().ToString());
    return report;
  }
  report.recovery = recover_or.ValueOrDie();

  // (b) Nothing durable was lost: recovery reaches at least the feed's
  // frozen durable high-water.
  if (report.recovery.next_seq < feed.durable_seq()) {
    report.verdict = Status::Internal(StringPrintf(
        "durable suffix lost: recovery stops at seq %llu, durable "
        "high-water is %llu",
        (unsigned long long)report.recovery.next_seq,
        (unsigned long long)feed.durable_seq()));
    return report;
  }

  // (a) Every ACKED commit survived: its seq is inside the recovered
  // prefix AND its tuple is present (as `request`, or as `resolved` if a
  // logged rule firing already consumed it).
  for (const auto& entry : acked) {
    const int64_t id = entry.first;
    const uint64_t seq = entry.second;
    if (seq >= report.recovery.next_seq) {
      report.verdict = Status::Internal(StringPrintf(
          "acked commit seq %llu lost: recovery stops at seq %llu",
          (unsigned long long)seq,
          (unsigned long long)report.recovery.next_seq));
      return report;
    }
    const bool survived =
        !recovered.Lookup(Sym("request"), 0, Value::Int(id)).empty() ||
        !recovered.Lookup(Sym("resolved"), 0, Value::Int(id)).empty();
    if (!survived) {
      report.verdict = Status::Internal(StringPrintf(
          "acked request id %lld (seq %llu) missing from recovered state",
          (long long)id, (unsigned long long)seq));
      return report;
    }
  }

  // (c) The recovered (truncated) journal scans clean end to end.
  auto validate_or = recovery.Validate();
  if (!validate_or.ok()) {
    report.verdict = Status::Internal("post-recovery validate failed: " +
                                      validate_or.status().ToString());
    return report;
  }
  const RecoveryStats& revalidated = validate_or.ValueOrDie();
  if (revalidated.tail != WalTail::kClean ||
      revalidated.bytes_truncated != 0) {
    report.verdict = Status::Internal(
        "recovered journal does not scan clean: " + revalidated.ToString());
    return report;
  }

  // (d) Checkpoint-based recovery equals an independent full replay of
  // the same log's delta payloads onto a fresh program WM — the
  // checkpoint is a pure accelerator, never a semantic shortcut.
  auto it_or = WalIterator::OpenFile(options.journal_path);
  if (!it_or.ok()) {
    report.verdict = it_or.status();
    return report;
  }
  WalIterator it = std::move(it_or).ValueOrDie();
  std::string text;
  WalRecord record;
  while (it.Next(&record)) {
    if (record.type != WalRecordType::kDelta) continue;
    text += record.payload;
    text += '\n';
  }
  WorkingMemory replayed;
  DBPS_CHECK(LoadProgram(kChaosProgram, &replayed).ok());
  Status replay = ReplayJournal(text, &replayed);
  if (!replay.ok()) {
    report.verdict =
        Status::Internal("recovered journal does not replay: " +
                         replay.ToString());
    return report;
  }
  if (CanonicalWmDump(recovered) != CanonicalWmDump(replayed)) {
    report.verdict = Status::Internal(
        "checkpoint recovery diverged from full journal replay");
    return report;
  }

  // (e) The recovered WAL passes the offline consistency audit — the
  // crash must not leave a log that replays but encodes an impossible
  // history.
  auto audit_or = ConsistencyAuditor::AuditWalFile(options.journal_path);
  if (!audit_or.ok()) {
    report.verdict = Status::Internal("post-recovery audit failed to run: " +
                                      audit_or.status().ToString());
    return report;
  }
  report.audit = std::move(audit_or).ValueOrDie();
  if (!report.audit.clean()) {
    report.verdict = Status::Internal("post-recovery audit failed: " +
                                      report.audit.ToString());
    return report;
  }
  return report;
}

// The adversarial OLTP schema shared by the Zipfian and snapshot-scan
// families. The guard rule can never fire (ids are non-negative): the
// matcher stays engaged on every commit without perturbing balances, so
// conservation stays checkable.
constexpr const char* kAccountProgram = R"(
(relation account (id int) (balance int))
(relation receipt (reader int) (total int))

(rule account-guard
  (account ^id { < 0 })
  -->
  (remove 1))
)";

/// Seeds `keys` zero-balance accounts (pre-log tuples: created before
/// the engine, so the audit exercises its pre-log registration path).
void SeedAccounts(WorkingMemory* wm, size_t keys) {
  for (size_t k = 0; k < keys; ++k) {
    DBPS_CHECK(wm->Insert("account", {Value::Int(static_cast<int64_t>(k)),
                                      Value::Int(0)})
                   .ok());
  }
}

int64_t TotalBalance(const WorkingMemory& wm) {
  int64_t total = 0;
  for (const WmePtr& row : wm.Scan(Sym("account"))) {
    total += row->value(1).AsInt();
  }
  return total;
}

ChaosReport RunZipfianTrial(const ChaosOptions& options) {
  ChaosReport report;
  WorkingMemory wm;
  auto rules_or = LoadProgram(kAccountProgram, &wm);
  DBPS_CHECK(rules_or.ok()) << rules_or.status();
  RuleSetPtr rules = rules_or.ValueOrDie();
  SeedAccounts(&wm, options.zipfian_keys);
  auto pristine = wm.Clone();

  SessionManager manager(&wm);
  ParallelEngineOptions eo = EngineOptionsFor(options);
  eo.external_source = &manager;
  ParallelEngine engine(&wm, rules, eo);
  manager.BindEngine(&engine);

  FailpointDisarm disarm;
  ApplyChaosProfile(options.fail_rate, options.seed);

  StatusOr<RunResult> result_or{Status::Internal("not run")};
  std::thread serve([&] { result_or = engine.Run(); });

  const ZipfianGenerator zipf(options.zipfian_keys, options.zipfian_theta);
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> gave_up{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < options.client_sessions; ++c) {
    clients.emplace_back([&, c] {
      Random rng(options.seed * 1000 + c);
      SessionPtr session;
      for (int attempt = 0; attempt < 64 && session == nullptr; ++attempt) {
        auto session_or = manager.Connect("zipf-" + std::to_string(c));
        if (session_or.ok()) {
          session = session_or.ValueOrDie();
        } else {
          SleepMicros(200);
        }
      }
      if (session == nullptr) {
        gave_up.fetch_add(options.txns_per_session);
        return;
      }
      for (uint64_t i = 0; i < options.txns_per_session; ++i) {
        // The Zipfian draw happens OUTSIDE the retry loop: a victimized
        // transaction retries the same hot key, which is exactly how a
        // real skewed workload pile-up behaves.
        const int64_t target = static_cast<int64_t>(zipf.Next(&rng));
        Status st = session->Perform([&](Session& s) -> Status {
          DBPS_RETURN_NOT_OK(s.Begin());
          DBPS_ASSIGN_OR_RETURN(std::vector<WmePtr> rows, s.Read("account"));
          const Wme* hit = nullptr;
          for (const WmePtr& row : rows) {
            if (row->value(0).AsInt() == target) {
              hit = row.get();
              break;
            }
          }
          if (hit == nullptr) {
            return Status::Internal("account missing: " +
                                    std::to_string(target));
          }
          Delta delta;
          delta.Modify(hit->id(),
                       {{1, Value::Int(hit->value(1).AsInt() + 1)}});
          DBPS_RETURN_NOT_OK(s.Write(delta));
          return s.Commit().status();
        });
        if (st.ok()) {
          committed.fetch_add(1);
        } else {
          gave_up.fetch_add(1);
        }
      }
      session->Close();
    });
  }
  for (auto& t : clients) t.join();
  manager.Close();
  serve.join();
  FailpointRegistry::Instance().DisableAll();

  report.committed_client_txns = committed.load();
  report.client_give_ups = gave_up.load();
  if (result_or.ok()) report.stats = result_or.ValueOrDie().stats;
  report.live_transactions = engine.live_lock_transactions();
  report.verdict = CheckRun(result_or, &wm, pristine.get(), rules,
                            report.live_transactions, &report.audit);
  // Conservation: every committed increment is worth exactly +1, so a
  // lost update (the classic hot-key failure) shows up as a shortfall.
  if (report.verdict.ok() &&
      TotalBalance(wm) != static_cast<int64_t>(committed.load())) {
    report.verdict = Status::Internal(StringPrintf(
        "lost update: %lld total balance after %llu committed increments",
        (long long)TotalBalance(wm), (unsigned long long)committed.load()));
  }
  return report;
}

ChaosReport RunSnapshotScanTrial(const ChaosOptions& options) {
  ChaosReport report;
  WorkingMemory wm;
  auto rules_or = LoadProgram(kAccountProgram, &wm);
  DBPS_CHECK(rules_or.ok()) << rules_or.status();
  RuleSetPtr rules = rules_or.ValueOrDie();
  SeedAccounts(&wm, options.zipfian_keys);
  auto pristine = wm.Clone();

  SessionManager manager(&wm);
  ParallelEngineOptions eo = EngineOptionsFor(options);
  eo.external_source = &manager;
  ParallelEngine engine(&wm, rules, eo);
  manager.BindEngine(&engine);

  FailpointDisarm disarm;
  ApplyChaosProfile(options.fail_rate, options.seed);

  StatusOr<RunResult> result_or{Status::Internal("not run")};
  std::thread serve([&] { result_or = engine.Run(); });

  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> gave_up{0};
  std::mutex verdict_mu;
  Status reader_verdict;  // first snapshot-stability violation, if any

  std::vector<std::thread> writers;
  for (size_t c = 0; c < options.client_sessions; ++c) {
    writers.emplace_back([&, c] {
      Random rng(options.seed * 2000 + c);
      auto session_or = manager.Connect("writer-" + std::to_string(c));
      if (!session_or.ok()) {
        gave_up.fetch_add(options.txns_per_session);
        return;
      }
      SessionPtr session = session_or.ValueOrDie();
      for (uint64_t i = 0; i < options.txns_per_session; ++i) {
        const int64_t target =
            static_cast<int64_t>(rng.Uniform(options.zipfian_keys));
        Status st = session->Perform([&](Session& s) -> Status {
          DBPS_RETURN_NOT_OK(s.Begin());
          DBPS_ASSIGN_OR_RETURN(std::vector<WmePtr> rows, s.Read("account"));
          for (const WmePtr& row : rows) {
            if (row->value(0).AsInt() != target) continue;
            Delta delta;
            delta.Modify(row->id(),
                         {{1, Value::Int(row->value(1).AsInt() + 1)}});
            DBPS_RETURN_NOT_OK(s.Write(delta));
            break;
          }
          return s.Commit().status();
        });
        if (st.ok()) {
          committed.fetch_add(1);
        } else {
          gave_up.fetch_add(1);
        }
      }
      session->Close();
    });
  }

  // Long-running snapshot readers: each transaction pins a CSN at Begin,
  // re-reads the relation across many commit batches (writers are
  // committing the whole time), and must observe the IDENTICAL version
  // set every time — then publishes its snapshot total so the evidence
  // lands in the journal for the auditor.
  std::vector<std::thread> readers;
  for (size_t r = 0; r < options.snapshot_readers; ++r) {
    readers.emplace_back([&, r] {
      SessionOptions session_options;
      session_options.snapshot_reads = true;
      auto session_or = manager.Connect("snap-" + std::to_string(r),
                                        session_options);
      if (!session_or.ok()) return;
      SessionPtr session = session_or.ValueOrDie();
      for (int txn = 0; txn < 3; ++txn) {
        Status st = session->Perform([&](Session& s) -> Status {
          DBPS_RETURN_NOT_OK(s.Begin());
          DBPS_ASSIGN_OR_RETURN(std::vector<WmePtr> first,
                                s.Read("account"));
          std::vector<std::pair<WmeId, TimeTag>> baseline;
          int64_t total = 0;
          for (const WmePtr& row : first) {
            baseline.emplace_back(row->id(), row->tag());
            total += row->value(1).AsInt();
          }
          std::sort(baseline.begin(), baseline.end());
          for (size_t again = 0; again < options.snapshot_rereads; ++again) {
            SleepMicros(300);  // span several commit batches
            DBPS_ASSIGN_OR_RETURN(std::vector<WmePtr> rows,
                                  s.Read("account"));
            std::vector<std::pair<WmeId, TimeTag>> observed;
            for (const WmePtr& row : rows) {
              observed.emplace_back(row->id(), row->tag());
            }
            std::sort(observed.begin(), observed.end());
            if (observed != baseline) {
              return Status::Internal(StringPrintf(
                  "snapshot instability: re-read %zu saw a different "
                  "version set (%zu vs %zu rows)",
                  again, observed.size(), baseline.size()));
            }
          }
          Delta delta;
          delta.Create(Sym("receipt"), {Value::Int(static_cast<int64_t>(r)),
                                        Value::Int(total)});
          DBPS_RETURN_NOT_OK(s.Write(delta));
          return s.Commit().status();
        });
        if (st.ok()) {
          committed.fetch_add(1);
        } else if (st.IsInternal()) {
          std::lock_guard<std::mutex> guard(verdict_mu);
          if (reader_verdict.ok()) reader_verdict = st;
          break;
        } else {
          gave_up.fetch_add(1);
        }
      }
      session->Close();
    });
  }
  for (auto& t : writers) t.join();
  for (auto& t : readers) t.join();
  manager.Close();
  serve.join();
  FailpointRegistry::Instance().DisableAll();

  report.committed_client_txns = committed.load();
  report.client_give_ups = gave_up.load();
  if (result_or.ok()) report.stats = result_or.ValueOrDie().stats;
  report.live_transactions = engine.live_lock_transactions();
  report.verdict = CheckRun(result_or, &wm, pristine.get(), rules,
                            report.live_transactions, &report.audit);
  if (report.verdict.ok() && !reader_verdict.ok()) {
    report.verdict = reader_verdict;
  }
  return report;
}

ChaosReport RunMixedOltpTrial(const ChaosOptions& options) {
  ChaosReport report;
  // Logistics rules + a disjoint OLTP relation in ONE program: rule
  // firings and external client commits share the commit order, the
  // journal, and the audit.
  const std::string program =
      std::string(kLogisticsProgram) +
      "\n(relation ticket (id int) (state symbol))\n";
  WorkingMemory wm;
  auto rules_or = LoadProgram(program, &wm);
  DBPS_CHECK(rules_or.ok()) << rules_or.status();
  RuleSetPtr rules = rules_or.ValueOrDie();
  auto site = [&](int i) {
    return Value::Symbol("site" + std::to_string(i % 4));
  };
  for (int i = 0; i < 4; ++i) {
    DBPS_CHECK(wm.Insert("route", {site(i), site(i + 1)}).ok());
  }
  for (int b = 0; b < 12; ++b) {
    DBPS_CHECK(wm.Insert("box", {Value::Int(b + 1), site(b),
                                 Value::Int(1 + b % 5),
                                 Value::Symbol("loose")})
                   .ok());
  }
  for (int r = 0; r < 4; ++r) {
    DBPS_CHECK(wm.Insert("robot",
                         {Value::Symbol("r" + std::to_string(r)), site(r),
                          Value::Int(0), Value::Int(3 + r % 3)})
                   .ok());
  }
  auto pristine = wm.Clone();

  SessionManager manager(&wm);
  ParallelEngineOptions eo = EngineOptionsFor(options);
  eo.external_source = &manager;
  ParallelEngine engine(&wm, rules, eo);
  manager.BindEngine(&engine);

  FailpointDisarm disarm;
  ApplyChaosProfile(options.fail_rate, options.seed);

  StatusOr<RunResult> result_or{Status::Internal("not run")};
  std::thread serve([&] { result_or = engine.Run(); });

  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> gave_up{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < options.client_sessions; ++c) {
    clients.emplace_back([&, c] {
      SessionPtr session;
      for (int attempt = 0; attempt < 64 && session == nullptr; ++attempt) {
        auto session_or = manager.Connect("oltp-" + std::to_string(c));
        if (session_or.ok()) {
          session = session_or.ValueOrDie();
        } else {
          SleepMicros(200);
        }
      }
      if (session == nullptr) {
        gave_up.fetch_add(options.txns_per_session);
        return;
      }
      for (uint64_t i = 0; i < options.txns_per_session; ++i) {
        Status st = session->Perform([&, i](Session& s) -> Status {
          DBPS_RETURN_NOT_OK(s.Begin());
          if (i % 3 == 0) {
            // Rc-read a RULE-produced relation: client read sets cross
            // the firing/transaction boundary, so rule commits victimize
            // OLTP clients and the audit sees mixed WR edges.
            auto rows_or = s.Read("done");
            if (!rows_or.ok()) return rows_or.status();
          }
          Delta delta;
          delta.Create(Sym("ticket"),
                       {Value::Int(static_cast<int64_t>(c * 1000 + i)),
                        Value::Symbol("open")});
          DBPS_RETURN_NOT_OK(s.Write(delta));
          return s.Commit().status();
        });
        if (st.ok()) {
          committed.fetch_add(1);
        } else {
          gave_up.fetch_add(1);
        }
      }
      session->Close();
    });
  }
  for (auto& t : clients) t.join();
  manager.Close();
  serve.join();
  FailpointRegistry::Instance().DisableAll();

  report.committed_client_txns = committed.load();
  report.client_give_ups = gave_up.load();
  if (result_or.ok()) report.stats = result_or.ValueOrDie().stats;
  report.live_transactions = engine.live_lock_transactions();
  report.verdict = CheckRun(result_or, &wm, pristine.get(), rules,
                            report.live_transactions, &report.audit);
  return report;
}

}  // namespace

size_t ChaosTrialMultiplier() {
  const char* env = std::getenv("DBPS_CHAOS_TRIALS");
  if (env == nullptr || *env == '\0') return 1;
  const long long parsed = std::atoll(env);
  return parsed < 1 ? 1 : static_cast<size_t>(parsed);
}

uint64_t ChaosSeedBase() {
  const char* env = std::getenv("DBPS_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 0;
  return std::strtoull(env, nullptr, 10);
}

std::string ChaosReport::ToString() const {
  return StringPrintf(
      "verdict=%s committed=%llu give_ups=%llu unknown=%llu "
      "reconnects=%llu live_txns=%zu acked=%llu crashes=%llu "
      "audited=%llu/%llu [%s]",
      verdict.ToString().c_str(),
      (unsigned long long)committed_client_txns,
      (unsigned long long)client_give_ups,
      (unsigned long long)unknown_outcomes,
      (unsigned long long)reconnects, live_transactions,
      (unsigned long long)acked_commits,
      (unsigned long long)injected_crashes,
      (unsigned long long)audit.audited_records,
      (unsigned long long)audit.records, stats.ToString().c_str());
}

ChaosReport ChaosRunner::RunTrial(const ChaosOptions& options) {
  switch (options.workload) {
    case ChaosWorkload::kRulesOnly:
      return RunRulesOnlyTrial(options);
    case ChaosWorkload::kMultiUser:
      return RunMultiUserTrial(options);
    case ChaosWorkload::kNetwork:
      return RunNetworkTrial(options);
    case ChaosWorkload::kCrashRecover:
      return RunCrashRecoverTrial(options);
    case ChaosWorkload::kZipfian:
      return RunZipfianTrial(options);
    case ChaosWorkload::kSnapshotScan:
      return RunSnapshotScanTrial(options);
    case ChaosWorkload::kMixedOltp:
      return RunMixedOltpTrial(options);
  }
  ChaosReport report;
  report.verdict = Status::InvalidArgument("unknown chaos workload");
  return report;
}

}  // namespace testing
}  // namespace dbps
