// Multi-user throughput — K closed-loop client sessions transacting
// against one shared working memory while the parallel engine drains
// their inserts, swept over worker count and lock protocol.
//
// This is the workload the paper's title promises: a *database*
// production system serving concurrent users (§2). Each client commit is
// an external transaction through the engine's Rc/Ra/Wa commit path, so
// client writes and rule firings interleave in one committed log, which
// is replay-validated (Definition 3.2) for every configuration.
//
// Every fifth client transaction also takes a repeatable read over the
// output relation, so under kRcRaWa the serve rule's commits victimize
// client readers (the §4.3 Rc–Wa conflict) and under kTwoPhase they
// block behind them.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dbps.h"
#include "match/partitioned_matcher.h"
#include "report.h"

namespace {

using namespace dbps;

constexpr size_t kSessions = 6;
constexpr uint64_t kOpsPerSession = 25;
constexpr int kMaxAttempts = 64;

constexpr const char* kProgram = R"(
(relation inbox (id int))
(relation done (id int))

(rule serve :cost 400
  (inbox ^id <i>)
  -->
  (remove 1)
  (make done ^id <i>))
)";

struct Outcome {
  double ms = 0;
  uint64_t writes_committed = 0;  // client write txns that committed
  uint64_t client_commits = 0;    // engine view (includes read-only txns)
  uint64_t rc_victims = 0;
  uint64_t firings = 0;
  uint64_t rule_aborts = 0;
  uint64_t fast_path_grants = 0;  // lock grants on the CAS fast path
  uint64_t slow_path_grants = 0;  // grants under the shard mutex
  uint64_t batched_commits = 0;   // commits folded into multi-commit batches
  int peak_parallel = 0;
  bool valid = false;
  bench::LatencyRecorder latency;  // per committed write txn, ms

  double FastHitPct() const {
    const uint64_t total = fast_path_grants + slow_path_grants;
    return total == 0 ? 0.0 : 100.0 * fast_path_grants / total;
  }
};

Outcome Run(size_t workers, LockProtocol protocol) {
  WorkingMemory wm;
  auto rules = LoadProgram(kProgram, &wm).ValueOrDie();
  auto pristine = wm.Clone();

  SessionManager manager(&wm);
  ParallelEngineOptions options;
  options.num_workers = workers;
  options.protocol = protocol;
  options.external_source = &manager;
  ParallelEngine engine(&wm, rules, options);
  manager.BindEngine(&engine);

  StatusOr<RunResult> result{Status::Internal("not run")};
  Stopwatch stopwatch;
  std::thread serve([&] { result = engine.Run(); });

  std::atomic<uint64_t> writes_committed{0};
  std::mutex latency_mu;
  bench::LatencyRecorder latency;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kSessions; ++c) {
    clients.emplace_back([&, c] {
      auto session = manager.Connect("bench-" + std::to_string(c))
                         .ValueOrDie();
      bench::LatencyRecorder local;
      for (uint64_t i = 0; i < kOpsPerSession; ++i) {
        Stopwatch txn_clock;
        for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
          if (!session->Begin().ok()) break;
          if (i % 5 == 0) {
            // Repeatable read held across think time: relation Rc on
            // `done` stays until commit, so the serve rule's inserts
            // conflict with it — blocking under 2PL, victimizing the
            // reader under rcrawa (§4.3).
            if (!session->Read("done").ok()) continue;
            std::this_thread::sleep_for(std::chrono::microseconds(500));
          }
          Delta delta;
          delta.Create(Sym("inbox"),
                       {Value::Int(static_cast<int64_t>(
                           c * 1000000 + i))});
          if (!session->Write(delta).ok()) continue;
          if (session->Commit().ok()) {
            writes_committed.fetch_add(1);
            // Latency of the whole transaction including retries — what
            // a user of the closed-loop session experiences.
            local.Add(txn_clock.ElapsedSeconds() * 1e3);
            break;
          }
        }
      }
      session->Close();
      std::lock_guard<std::mutex> lock(latency_mu);
      latency.Merge(local);
    });
  }
  for (auto& t : clients) t.join();
  manager.Close();
  serve.join();

  Outcome out;
  out.ms = stopwatch.ElapsedSeconds() * 1e3;
  const RunResult& run = result.ValueOrDie();
  auto stats = manager.GetStats();
  out.writes_committed = writes_committed.load();
  out.client_commits = run.stats.client_commits;
  out.rc_victims = stats.closed_sessions.rc_victim_aborts;
  out.firings = run.stats.firings;
  out.rule_aborts = run.stats.aborts;
  for (const LockShardCounters& shard : run.stats.lock_shards) {
    out.fast_path_grants += shard.fast_path_grants;
    out.slow_path_grants += shard.acquires;
  }
  out.batched_commits = run.stats.batched_commits;
  out.peak_parallel = run.stats.peak_parallel_executions;
  out.latency = std::move(latency);
  out.valid = ValidateReplay(pristine.get(), rules, run.log).ok() &&
              wm.Count(Sym("inbox")) == 0 &&
              wm.Count(Sym("done")) == out.writes_committed;
  return out;
}

// ---------------------------------------------------------------------
// Matcher-phase sweep: the partitioned match phase in isolation, serial
// reference vs relation-hash partitions (run inline), over a multi-
// relation workload with cross-partition joins. Per-batch propagation
// latency feeds the percentile columns.

constexpr const char* kMatchProgram = R"(
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

constexpr int kMatchBatches = 400;

struct MatchOutcome {
  double ms = 0;                   // whole sweep, wall
  uint64_t batches = 0;
  uint64_t morsels = 0;
  uint64_t handoffs = 0;
  uint64_t splits = 0;
  bench::LatencyRecorder latency;  // per-batch propagation, ms
  std::string dump;                // final canonical conflict-set dump
  bool valid = false;              // final set matches the reference dump
};

/// One deterministic batch against `wm` (same generator for every
/// configuration, so all sweeps consume the identical change stream).
std::vector<WmChange> MatchBatch(WorkingMemory* wm, Random* rng) {
  Delta delta;
  const size_t ops = 2 + rng->Uniform(5);
  for (size_t op = 0; op < ops; ++op) {
    switch (rng->Uniform(4)) {
      case 0:
        delta.Create(Sym("order"),
                     {Value::Int(static_cast<int64_t>(rng->Uniform(32))),
                      Value::Int(static_cast<int64_t>(rng->Uniform(5)))});
        break;
      case 1:
        delta.Create(Sym("stock"),
                     {Value::Int(static_cast<int64_t>(rng->Uniform(32))),
                      Value::Int(static_cast<int64_t>(rng->Uniform(4)))});
        break;
      case 2:
        delta.Create(Sym("ship"),
                     {Value::Int(static_cast<int64_t>(rng->Uniform(32)))});
        break;
      default:
        delta.Create(Sym("alert"),
                     {Value::Int(static_cast<int64_t>(rng->Uniform(32)))});
        break;
    }
  }
  auto change_or = wm->Apply(delta);
  DBPS_CHECK(change_or.ok()) << change_or.status();
  return {std::move(change_or).ValueOrDie()};
}

/// partitions == 0 selects the serial Rete reference. `expected` is the
/// reference config's final conflict-set dump; pass nullptr for the
/// reference run itself, which validates against a freshly built serial
/// matcher over the final WM state — every config consumes the identical
/// change stream, so one ground-truth rebuild covers the whole sweep.
MatchOutcome RunMatchPhase(size_t partitions, const std::string* expected) {
  WorkingMemory wm;
  auto rules = LoadProgram(kMatchProgram, &wm).ValueOrDie();

  std::unique_ptr<Matcher> matcher;
  PartitionedMatcher* partitioned = nullptr;
  if (partitions == 0) {
    matcher = CreateMatcher(MatcherKind::kRete);
  } else {
    PartitionedMatcher::Options options;
    options.num_partitions = partitions;
    auto owned = std::make_unique<PartitionedMatcher>(options);
    partitioned = owned.get();
    matcher = std::move(owned);
  }
  DBPS_CHECK(matcher->Initialize(rules, wm).ok());

  MatchOutcome out;
  Random rng(20260808);
  Stopwatch sweep;
  for (int b = 0; b < kMatchBatches; ++b) {
    const std::vector<WmChange> changes = MatchBatch(&wm, &rng);
    Stopwatch batch_clock;
    matcher->ApplyChanges(changes);
    out.latency.Add(batch_clock.ElapsedSeconds() * 1e3);
  }
  out.ms = sweep.ElapsedSeconds() * 1e3;
  out.batches = kMatchBatches;
  if (partitioned != nullptr) {
    const PartitionedMatcher::Stats stats = partitioned->GetStats();
    out.morsels = stats.morsels;
    out.handoffs = stats.handoffs;
    out.splits = stats.splits;
  }
  out.dump = matcher->conflict_set().CanonicalDump();
  if (expected != nullptr) {
    out.valid = out.dump == *expected;
  } else {
    // Ground truth, computed once per sweep: a fresh serial matcher over
    // the final WM state must agree with the incremental set.
    auto reference = CreateMatcher(MatcherKind::kRete);
    DBPS_CHECK(reference->Initialize(rules, wm).ok());
    out.valid = reference->conflict_set().CanonicalDump() == out.dump;
  }
  return out;
}

void SweepMatchPhase(bench::JsonReport* report) {
  bench::Section(
      "match phase — serial Rete vs relation-hash partitions (8), " +
      std::to_string(kMatchBatches) + " batches, 4 relations");
  std::printf("\n  %-12s %9s %8s %8s %8s %8s %6s\n", "matcher", "ms",
              "morsels", "handoffs", "p50us", "p99us", "valid");

  auto emit = [&](const char* name, const char* proto,
                  const MatchOutcome& out) {
    std::printf("  %-12s %9.2f %8llu %8llu %8.1f %8.1f %6s\n", name, out.ms,
                (unsigned long long)out.morsels,
                (unsigned long long)out.handoffs,
                out.latency.Percentile(50) * 1e3,
                out.latency.Percentile(99) * 1e3, out.valid ? "OK" : "FAIL");
    DBPS_CHECK(out.valid) << "match phase diverged for " << name;
    bench::JsonRow row;
    row.workload = "match_phase";
    row.threads = 1;
    row.protocol = proto;
    row.wall_ms = out.ms;
    row.committed = out.batches;
    row.SetLatencies(out.latency);
    report->Add(row);
  };
  const MatchOutcome serial = RunMatchPhase(0, nullptr);
  emit("serial", "serial", serial);
  const MatchOutcome part8 = RunMatchPhase(8, &serial.dump);
  emit("part8", "partitioned", part8);
  std::printf("               partitioned: %.2fx vs serial\n",
              serial.ms / part8.ms);
}

// ---------------------------------------------------------------------
// Skew sweep: a single hot relation holding thousands of distinct join
// keys, self-joined on the first field. Relation-hash partitioning is
// useless here — every change lands in the one home partition, so the
// partitioned matcher degrades to the serial scan plus merge overhead.
// Value-hash splitting is the fix: S sub-partitions each hold ~1/S of
// the alpha memory, so the linear join scans that dominate this
// workload shrink by S. The acceptance gate below requires the split
// configuration to beat the unsplit partitioned matcher by >= 1.3x
// wall time with a byte-identical conflict-set dump.

constexpr const char* kSkewProgram = R"(
(relation hot (k int) (v int))

(rule pair
  (hot ^k <x> ^v <a>)
  (hot ^k <x> ^v <b>)
  -->
  (remove 1))
)";

constexpr int kSkewPreload = 2000;
constexpr int kSkewBatches = 800;
constexpr size_t kSkewSplitWays = 4;

/// partitions == 0 selects the serial Rete reference; split_ways > 0 arms
/// value-hash splitting with an immediate trigger (streak 1), so the
/// sweep pays the one-time sub-partition rebuild inside the timed
/// region — the honest accounting for a matcher that splits mid-run.
MatchOutcome RunSkewPhase(size_t partitions, size_t split_ways,
                          const std::string* expected) {
  WorkingMemory wm;
  auto rules = LoadProgram(kSkewProgram, &wm).ValueOrDie();

  {
    // Preload distinct keys so the alpha memories are deep but the
    // conflict set stays small until the random stream adds duplicates.
    Delta preload;
    for (int i = 0; i < kSkewPreload; ++i) {
      preload.Create(Sym("hot"), {Value::Int(i), Value::Int(i % 7)});
    }
    DBPS_CHECK(wm.Apply(preload).ok());
  }

  std::unique_ptr<Matcher> matcher;
  PartitionedMatcher* partitioned = nullptr;
  if (partitions == 0) {
    matcher = CreateMatcher(MatcherKind::kRete);
  } else {
    PartitionedMatcher::Options options;
    options.num_partitions = partitions;
    if (split_ways > 0) {
      options.split_hot = true;
      options.split_ways = split_ways;
      options.split_streak = 1;
      options.split_share = 0.5;
    }
    auto owned = std::make_unique<PartitionedMatcher>(options);
    partitioned = owned.get();
    matcher = std::move(owned);
  }
  DBPS_CHECK(matcher->Initialize(rules, wm).ok());

  MatchOutcome out;
  Random rng(20260809);
  Stopwatch sweep;
  for (int b = 0; b < kSkewBatches; ++b) {
    Delta delta;
    const size_t ops = 2 + rng.Uniform(4);
    for (size_t op = 0; op < ops; ++op) {
      delta.Create(Sym("hot"),
                   {Value::Int(static_cast<int64_t>(
                        rng.Uniform(kSkewPreload))),
                    Value::Int(static_cast<int64_t>(rng.Uniform(1000)))});
    }
    auto change_or = wm.Apply(delta);
    DBPS_CHECK(change_or.ok()) << change_or.status();
    const std::vector<WmChange> changes{std::move(change_or).ValueOrDie()};
    Stopwatch batch_clock;
    matcher->ApplyChanges(changes);
    out.latency.Add(batch_clock.ElapsedSeconds() * 1e3);
  }
  out.ms = sweep.ElapsedSeconds() * 1e3;
  out.batches = kSkewBatches;
  if (partitioned != nullptr) {
    const PartitionedMatcher::Stats stats = partitioned->GetStats();
    out.morsels = stats.morsels;
    out.handoffs = stats.handoffs;
    out.splits = stats.splits;
  }
  out.dump = matcher->conflict_set().CanonicalDump();
  if (expected != nullptr) {
    out.valid = out.dump == *expected;
  } else {
    auto reference = CreateMatcher(MatcherKind::kRete);
    DBPS_CHECK(reference->Initialize(rules, wm).ok());
    out.valid = reference->conflict_set().CanonicalDump() == out.dump;
  }
  return out;
}

void SweepMatchSkew(bench::JsonReport* report) {
  bench::Section(
      "match skew — one hot relation, " + std::to_string(kSkewPreload) +
      " preloaded keys, self-join on ^k; value-hash split (" +
      std::to_string(kSkewSplitWays) + " ways) vs unsplit partitions");
  std::printf("\n  %-12s %9s %8s %8s %8s %8s %6s\n", "matcher", "ms",
              "morsels", "splits", "p50us", "p99us", "valid");

  auto emit = [&](const char* name, const char* proto,
                  const MatchOutcome& out) {
    std::printf("  %-12s %9.2f %8llu %8llu %8.1f %8.1f %6s\n", name, out.ms,
                (unsigned long long)out.morsels,
                (unsigned long long)out.splits,
                out.latency.Percentile(50) * 1e3,
                out.latency.Percentile(99) * 1e3, out.valid ? "OK" : "FAIL");
    DBPS_CHECK(out.valid) << "match skew diverged for " << name;
    bench::JsonRow row;
    row.workload = "match_skew";
    row.threads = 1;
    row.protocol = proto;
    row.wall_ms = out.ms;
    row.committed = out.batches;
    row.SetLatencies(out.latency);
    report->Add(row);
  };

  const MatchOutcome serial = RunSkewPhase(0, 0, nullptr);
  emit("serial", "serial", serial);
  const MatchOutcome unsplit = RunSkewPhase(8, 0, &serial.dump);
  emit("part8", "partitioned", unsplit);
  const MatchOutcome split = RunSkewPhase(8, kSkewSplitWays, &serial.dump);
  emit("part8-split", "split", split);

  std::printf("               split vs unsplit: %.2fx, vs serial: %.2fx\n",
              unsplit.ms / split.ms, serial.ms / split.ms);
  DBPS_CHECK_GE(split.splits, 1u)
      << "hot partition never split under a pure single-relation skew";
  // Acceptance gate: splitting must buy >= 1.3x match-phase throughput
  // over the unsplit partitioned matcher on this workload.
  DBPS_CHECK(split.ms * 1.3 <= unsplit.ms)
      << "value-hash splitting missed the 1.3x gate: split=" << split.ms
      << "ms unsplit=" << unsplit.ms << "ms";
}

// ---------------------------------------------------------------------
// Pipeline ablation: ParallelEngine over independent firings (one
// single-CE rule per queue relation, no joins, no :cost) with 8 match
// partitions, propagating each commit batch inline on the committer vs
// on the MatchPipeline thread. With no firing cost the run is bound by
// the commit path, which is what the pipeline overlaps. The two
// configurations alternate kPipelineReps times; each row reports the
// median wall time, and its percentiles are over the gaps between
// consecutive commit-batch ends, pooled across reps.

constexpr size_t kPipelineQueues = 8;
constexpr int kPipelineJobsPerQueue = 100;
constexpr int kPipelineReps = 5;

std::string PipelineProgram() {
  std::string text;
  for (size_t q = 0; q < kPipelineQueues; ++q) {
    const std::string n = std::to_string(q);
    text += "(relation q" + n + " (id int))\n";
    text += "(rule work" + n + " (q" + n + " ^id <i>) --> (remove 1))\n";
  }
  return text;
}

struct PipelineOutcome {
  double ms = 0;
  uint64_t firings = 0;
  uint64_t aborts = 0;
  uint64_t batched_commits = 0;
  uint64_t drains = 0;
  bool valid = false;
};

PipelineOutcome RunPipelinePhase(size_t workers, bool pipeline,
                                 bench::LatencyRecorder* batch_gaps) {
  WorkingMemory wm;
  auto rules = LoadProgram(PipelineProgram(), &wm).ValueOrDie();
  Delta preload;
  for (size_t q = 0; q < kPipelineQueues; ++q) {
    for (int i = 0; i < kPipelineJobsPerQueue; ++i) {
      preload.Create(Sym("q" + std::to_string(q)), {Value::Int(i)});
    }
  }
  DBPS_CHECK(wm.Apply(preload).ok());
  auto pristine = wm.Clone();

  ParallelEngineOptions options;
  options.num_workers = workers;
  options.num_match_partitions = 8;
  options.match_pipeline = pipeline;
  // Batch ends are emitted by the sequencer head in ticket order, one
  // batch at a time, so the observer needs no lock.
  Stopwatch since_batch;
  options.base.observer = [&](const EngineEvent& event) {
    if (event.kind != EngineEvent::Kind::kBatchEnd) return;
    batch_gaps->Add(since_batch.ElapsedSeconds() * 1e3);
    since_batch.Restart();
  };
  ParallelEngine engine(&wm, rules, options);
  Stopwatch stopwatch;
  since_batch.Restart();
  const RunResult run = engine.Run().ValueOrDie();

  PipelineOutcome out;
  out.ms = stopwatch.ElapsedSeconds() * 1e3;
  out.firings = run.stats.firings;
  out.aborts = run.stats.aborts;
  out.batched_commits = run.stats.batched_commits;
  out.drains = run.stats.match_pipeline_drains;
  out.valid = ValidateReplay(pristine.get(), rules, run.log).ok() &&
              out.firings == kPipelineQueues * kPipelineJobsPerQueue;
  return out;
}

void SweepMatchPipeline(bench::JsonReport* report, size_t max_workers) {
  const size_t workers = max_workers < 4 ? max_workers : 4;
  bench::Section(
      "match pipeline — " + std::to_string(kPipelineQueues) + " queues x " +
      std::to_string(kPipelineJobsPerQueue) +
      " independent firings, 8 match partitions, " +
      std::to_string(workers) + " workers, median of " +
      std::to_string(kPipelineReps) + " alternating runs");
  std::printf("\n  %-12s %9s %8s %8s %8s %8s %8s %8s %6s\n", "propagate",
              "ms", "firings", "aborts", "batched", "drains", "p50us",
              "p99us", "valid");

  struct Config {
    const char* proto;
    bool pipeline;
    std::vector<double> ms;
    PipelineOutcome last;
    bench::LatencyRecorder gaps;
    bool valid = true;
  };
  Config configs[] = {{"inline", false, {}, {}, {}},
                      {"pipeline", true, {}, {}, {}}};
  for (int rep = 0; rep < kPipelineReps; ++rep) {
    for (Config& config : configs) {
      config.last = RunPipelinePhase(workers, config.pipeline, &config.gaps);
      config.ms.push_back(config.last.ms);
      config.valid = config.valid && config.last.valid;
    }
  }
  for (Config& config : configs) {
    std::sort(config.ms.begin(), config.ms.end());
    const double median = config.ms[config.ms.size() / 2];
    const PipelineOutcome& out = config.last;
    std::printf("  %-12s %9.2f %8llu %8llu %8llu %8llu %8.1f %8.1f %6s\n",
                config.proto, median, (unsigned long long)out.firings,
                (unsigned long long)out.aborts,
                (unsigned long long)out.batched_commits,
                (unsigned long long)out.drains,
                config.gaps.Percentile(50) * 1e3,
                config.gaps.Percentile(99) * 1e3,
                config.valid ? "OK" : "FAIL");
    DBPS_CHECK(config.valid) << "match pipeline run failed for "
                             << config.proto;
    bench::JsonRow row;
    row.workload = "match_pipeline";
    row.threads = workers;
    row.protocol = config.proto;
    row.wall_ms = median;
    row.aborts = out.aborts;
    row.committed = out.firings;
    row.batched_commits = out.batched_commits;
    row.SetLatencies(config.gaps);
    report->Add(row);
  }
}

}  // namespace

int main() {
  bench::Header(
      "Multi-user sessions — " + std::to_string(kSessions) +
      " closed-loop clients x " + std::to_string(kOpsPerSession) +
      " txns, serve rule @400us\n"
      "(client transactions interleave with rule firings; every log is\n"
      "replay-validated per Definition 3.2)");

  std::printf(
      "\n  %-8s %-7s %9s %10s %8s %8s %8s %8s %8s %8s %8s %6s %6s\n",
      "protocol", "workers", "ms", "txn/s", "commits", "victims", "firings",
      "fast%", "batched", "p50ms", "p99ms", "peak", "valid");

  const size_t max_workers = bench::MaxBenchThreads(8);
  bench::JsonReport report("multi_user");
  bool peak_parallel_seen = false;
  for (LockProtocol protocol :
       {LockProtocol::kTwoPhase, LockProtocol::kRcRaWa}) {
    const char* name =
        protocol == LockProtocol::kTwoPhase ? "2pl" : "rcrawa";
    for (size_t workers : {1u, 2u, 4u, 8u}) {
      if (workers > max_workers) continue;
      Outcome out = Run(workers, protocol);
      std::printf(
          "  %-8s %-7zu %9.1f %10.0f %8llu %8llu %8llu %7.1f%% %8llu "
          "%8.2f %8.2f %6d %6s\n",
          name, workers, out.ms, out.client_commits / (out.ms / 1e3),
          (unsigned long long)out.client_commits,
          (unsigned long long)out.rc_victims,
          (unsigned long long)out.firings, out.FastHitPct(),
          (unsigned long long)out.batched_commits,
          out.latency.Percentile(50), out.latency.Percentile(99),
          out.peak_parallel, out.valid ? "OK" : "FAIL");
      DBPS_CHECK(out.valid) << "replay validation failed for " << name
                            << " workers=" << workers;
      DBPS_CHECK_EQ(out.writes_committed, kSessions * kOpsPerSession);
      if (out.peak_parallel > 1 && out.client_commits > 0) {
        peak_parallel_seen = true;
      }
      bench::JsonRow row;
      row.workload = "closed_loop_sessions";
      row.threads = workers;
      row.protocol = name;
      row.wall_ms = out.ms;
      row.aborts = out.rule_aborts + out.rc_victims;
      row.committed = out.client_commits + out.firings;
      row.fast_path_grants = out.fast_path_grants;
      row.fast_hit_pct = out.FastHitPct();
      row.batched_commits = out.batched_commits;
      row.SetLatencies(out.latency);
      report.Add(row);
    }
  }
  SweepMatchPhase(&report);
  SweepMatchSkew(&report);
  SweepMatchPipeline(&report, max_workers);

  report.WriteIfRequested();
  DBPS_CHECK(peak_parallel_seen || max_workers <= 1)
      << "no configuration achieved parallel rule firings alongside "
         "client commits";

  std::printf(
      "\nrule firings overlap client transactions (peak > 1 with\n"
      "nonzero client commits); under rcrawa the serve rule's commits\n"
      "victimize repeatable readers instead of blocking behind them.\n");
  return 0;
}
