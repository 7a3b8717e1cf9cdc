// Lock-manager microbenchmarks (google-benchmark): the cost of the
// centralized lock manager's primitive operations under both protocols —
// the "minor modifications to conventional lock managers" the paper
// claims (§6). Before the microbenchmarks run, main() prints an
// abort-storm report: the §4.3 livelock (a hot relation-level Rc under
// continuous writers) with blocking escalation off vs on, showing the
// engine's robustness counters.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "dbps.h"
#include "engine/busy_work.h"
#include "lock/lock_manager.h"
#include "report.h"
#include "util/logging.h"

namespace dbps {
namespace {

LockManager::Options Opts(LockProtocol protocol) {
  LockManager::Options options;
  options.protocol = protocol;
  return options;
}

void BM_UncontendedAcquireRelease(benchmark::State& state) {
  LockManager lm(Opts(static_cast<LockProtocol>(state.range(0))));
  SymbolId relation = Sym("r");
  for (auto _ : state) {
    TxnId txn = lm.Begin();
    DBPS_CHECK_OK(lm.Acquire(txn, {relation, 1}, LockMode::kRc));
    DBPS_CHECK_OK(lm.Acquire(txn, {relation, 2}, LockMode::kRa));
    DBPS_CHECK_OK(lm.Acquire(txn, {relation, 1}, LockMode::kWa));
    lm.Release(txn);
  }
}
BENCHMARK(BM_UncontendedAcquireRelease)
    ->Arg(static_cast<int>(LockProtocol::kTwoPhase))
    ->Arg(static_cast<int>(LockProtocol::kRcRaWa));

void BM_SharedRcHolders(benchmark::State& state) {
  // N transactions all hold Rc on the same tuple; measure the next
  // reader's acquire.
  LockManager lm(Opts(LockProtocol::kRcRaWa));
  SymbolId relation = Sym("r");
  const int64_t holders = state.range(0);
  std::vector<TxnId> txns;
  for (int64_t i = 0; i < holders; ++i) {
    TxnId txn = lm.Begin();
    DBPS_CHECK_OK(lm.Acquire(txn, {relation, 1}, LockMode::kRc));
    txns.push_back(txn);
  }
  for (auto _ : state) {
    TxnId txn = lm.Begin();
    DBPS_CHECK_OK(lm.Acquire(txn, {relation, 1}, LockMode::kRc));
    lm.Release(txn);
  }
  for (TxnId txn : txns) lm.Release(txn);
}
BENCHMARK(BM_SharedRcHolders)->Arg(1)->Arg(16)->Arg(128);

void BM_WaOverRcGrant(benchmark::State& state) {
  // The paper's key cell: Wa granted over an outstanding Rc — measured
  // as grant latency (never blocks under kRcRaWa).
  LockManager lm(Opts(LockProtocol::kRcRaWa));
  SymbolId relation = Sym("r");
  TxnId reader = lm.Begin();
  DBPS_CHECK_OK(lm.Acquire(reader, {relation, 1}, LockMode::kRc));
  for (auto _ : state) {
    TxnId writer = lm.Begin();
    DBPS_CHECK_OK(lm.Acquire(writer, {relation, 1}, LockMode::kWa));
    lm.Release(writer);
  }
  lm.Release(reader);
}
BENCHMARK(BM_WaOverRcGrant);

void BM_CollectRcVictims(benchmark::State& state) {
  // Commit-time settlement cost with N outstanding Rc holders.
  LockManager lm(Opts(LockProtocol::kRcRaWa));
  SymbolId relation = Sym("r");
  const int64_t readers = state.range(0);
  std::vector<TxnId> txns;
  for (int64_t i = 0; i < readers; ++i) {
    TxnId txn = lm.Begin();
    DBPS_CHECK_OK(lm.Acquire(txn, {relation, 1}, LockMode::kRc));
    txns.push_back(txn);
  }
  TxnId writer = lm.Begin();
  DBPS_CHECK_OK(lm.Acquire(writer, {relation, 1}, LockMode::kWa));
  for (auto _ : state) {
    auto victims = lm.CollectRcVictims(writer);
    benchmark::DoNotOptimize(victims);
    DBPS_CHECK_EQ(victims.size(), static_cast<size_t>(readers));
  }
  lm.Release(writer);
  for (TxnId txn : txns) lm.Release(txn);
}
BENCHMARK(BM_CollectRcVictims)->Arg(1)->Arg(16)->Arg(128);

void BM_RelationEscalationCheck(benchmark::State& state) {
  // Tuple-level acquire in a relation with many tuple holds elsewhere
  // plus a relation-level Rc (the hierarchy check's worst case).
  LockManager lm(Opts(LockProtocol::kRcRaWa));
  SymbolId relation = Sym("r");
  TxnId neg = lm.Begin();
  DBPS_CHECK_OK(lm.Acquire(neg, {relation, kRelationLevel}, LockMode::kRc));
  std::vector<TxnId> txns;
  for (int64_t i = 0; i < state.range(0); ++i) {
    TxnId txn = lm.Begin();
    DBPS_CHECK_OK(
        lm.Acquire(txn, {relation, static_cast<WmeId>(i + 10)},
                   LockMode::kRc));
    txns.push_back(txn);
  }
  for (auto _ : state) {
    TxnId txn = lm.Begin();
    DBPS_CHECK_OK(lm.Acquire(txn, {relation, 5}, LockMode::kWa));
    lm.Release(txn);
  }
  lm.Release(neg);
  for (TxnId txn : txns) lm.Release(txn);
}
BENCHMARK(BM_RelationEscalationCheck)->Arg(4)->Arg(64);

// --- Uncontended sweep ------------------------------------------------------
//
// Single-threaded begin/acquire/release loops over DISTINCT tuples per
// mode (Rc, Ra, Wa each on their own object, so no grant is a
// self-upgrade): the cost of an Acquire when nobody else holds anything.

void PrintUncontendedSweepReport(bench::JsonReport* report) {
  constexpr uint64_t kTxns = 20000;
  std::printf("uncontended sweep: %llu txns x {Rc,Ra,Wa} on distinct "
              "tuples, 1 thread\n",
              (unsigned long long)kTxns);
  std::printf("  %-10s %10s %12s %12s\n", "protocol", "wall_ms", "grants",
              "ns/grant");
  for (LockProtocol protocol :
       {LockProtocol::kTwoPhase, LockProtocol::kRcRaWa}) {
    const char* name =
        protocol == LockProtocol::kTwoPhase ? "2pl" : "rcrawa";
    LockManager lm(Opts(protocol));
    SymbolId relation = Sym("r");
    Stopwatch stopwatch;
    for (uint64_t i = 0; i < kTxns; ++i) {
      TxnId txn = lm.Begin();
      DBPS_CHECK_OK(lm.Acquire(txn, {relation, 1}, LockMode::kRc));
      DBPS_CHECK_OK(lm.Acquire(txn, {relation, 2}, LockMode::kRa));
      DBPS_CHECK_OK(lm.Acquire(txn, {relation, 3}, LockMode::kWa));
      lm.Release(txn);
    }
    const double wall_ms = stopwatch.ElapsedSeconds() * 1e3;
    LockManager::Stats stats = lm.GetStats();
    std::printf("  %-10s %10.1f %12llu %12.0f\n", name, wall_ms,
                (unsigned long long)stats.acquired,
                stats.acquired == 0 ? 0.0 : wall_ms * 1e6 / stats.acquired);
    bench::JsonRow row;
    row.workload = "uncontended_sweep";
    row.threads = 1;
    row.protocol = name;
    row.wall_ms = wall_ms;
    // Every grant is counted; nothing may block, time out or be marked.
    row.aborts = stats.blocked + stats.timeouts + stats.aborts_marked;
    row.committed = stats.acquired / 3;
    report->Add(row);
  }
  std::printf("\n");
}

// --- Abort-storm report ----------------------------------------------------
//
// The `work` rule holds a relation-level Rc on `hot` (negated CE) while
// client sessions continuously insert into `hot`; under kRcRaWa+kAbort
// every client commit victimizes the in-flight firing (§4.3). Run once
// with escalation disabled and once enabled to show how blocking
// escalation bounds the abort streak.

constexpr const char* kAbortStormProgram = R"(
(relation job (id int) (state symbol))
(relation hot (n int))

(rule work :cost 400
  (job ^id <i> ^state todo)
  -(hot ^n 999999)
  -->
  (modify 1 ^state done))
)";

EngineStats RunAbortStorm(int escalate_after, size_t workers,
                          double* wall_ms) {
  constexpr size_t kClients = 3;
  constexpr uint64_t kWritesPerClient = 24;
  constexpr uint64_t kJobEvery = 8;

  WorkingMemory wm;
  auto rules = LoadProgram(kAbortStormProgram, &wm).ValueOrDie();

  SessionManager manager(&wm);
  ParallelEngineOptions options;
  options.num_workers = workers;
  options.protocol = LockProtocol::kRcRaWa;
  options.abort_policy = AbortPolicy::kAbort;
  options.escalate_after_aborts = escalate_after;
  options.retry_backoff_base = std::chrono::microseconds(20);
  options.retry_backoff_max = std::chrono::microseconds(500);
  options.external_source = &manager;
  ParallelEngine engine(&wm, rules, options);
  manager.BindEngine(&engine);

  StatusOr<RunResult> result{Status::Internal("not run")};
  Stopwatch stopwatch;
  std::thread serve([&] { result = engine.Run(); });

  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto session = manager.Connect("storm-" + std::to_string(c))
                         .ValueOrDie();
      for (uint64_t i = 0; i < kWritesPerClient; ++i) {
        Status st = session->Perform([&, i](Session& s) -> Status {
          DBPS_RETURN_NOT_OK(s.Begin());
          Delta delta;
          delta.Create(Sym("hot"),
                       {Value::Int(static_cast<int64_t>(c * 1000 + i))});
          if (i % kJobEvery == 0) {
            delta.Create(Sym("job"),
                         {Value::Int(static_cast<int64_t>(c * 1000 + i)),
                          Value::Symbol("todo")});
          }
          DBPS_RETURN_NOT_OK(s.Write(delta));
          return s.Commit().status();
        });
        DBPS_CHECK_OK(st);
        // Throttle so the writers stay active across the firing window
        // instead of finishing before the first firing even claims.
        SleepMicros(100);
      }
      session->Close();
    });
  }
  for (auto& t : clients) t.join();
  manager.Close();
  serve.join();
  if (wall_ms != nullptr) *wall_ms = stopwatch.ElapsedSeconds() * 1e3;
  return result.ValueOrDie().stats;
}

void PrintAbortStormReport(bench::JsonReport* report) {
  const size_t workers = bench::MaxBenchThreads(4);
  std::printf(
      "abort-storm: hot relation-level Rc vs continuous writers "
      "(kRcRaWa+kAbort, %zu workers)\n",
      workers);
  std::printf("  %-22s %8s %8s %8s %10s %10s %12s\n", "escalation", "firings",
              "aborts", "retries", "maxstreak", "escalated", "backoff_us");
  for (int escalate_after : {0, 2}) {
    double wall_ms = 0;
    EngineStats stats = RunAbortStorm(escalate_after, workers, &wall_ms);
    char label[32];
    if (escalate_after == 0) {
      std::snprintf(label, sizeof(label), "off");
    } else {
      std::snprintf(label, sizeof(label), "after %d aborts",
                    escalate_after);
    }
    std::printf("  %-22s %8llu %8llu %8llu %10llu %10llu %12llu\n", label,
                (unsigned long long)stats.firings,
                (unsigned long long)stats.aborts,
                (unsigned long long)stats.firing_retries,
                (unsigned long long)stats.max_abort_streak,
                (unsigned long long)stats.escalations,
                (unsigned long long)stats.backoff_micros);
    bench::JsonRow row;
    row.workload = escalate_after == 0 ? "abort_storm_no_escalation"
                                       : "abort_storm_escalation";
    row.threads = workers;
    row.protocol = "rcrawa";
    row.wall_ms = wall_ms;
    row.aborts = stats.aborts;
    row.committed = stats.firings;
    row.batched_commits = stats.batched_commits;
    report->Add(row);
  }
  std::printf("\n");
}

}  // namespace
}  // namespace dbps

int main(int argc, char** argv) {
  dbps::bench::JsonReport report("lock_protocols");
  dbps::PrintUncontendedSweepReport(&report);
  dbps::PrintAbortStormReport(&report);
  report.WriteIfRequested();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
