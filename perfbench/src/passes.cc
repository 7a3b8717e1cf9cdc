#include "passes.h"

#include <poll.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "audit/auditor.h"
#include "durable.h"
#include "engine/parallel_engine.h"
#include "match/rete.h"
#include "net/client.h"
#include "net/net_server.h"
#include "server/recovery.h"
#include "server/session_manager.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "value/symbol_table.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dbps::Status;
using dbps::Stopwatch;
using dbps::net::DbpsClient;
using dbps::net::Frame;
using dbps::net::FrameType;

// Set-up is short, so it runs several times per pass and reports its
// median.
constexpr int kSetupReps = 7;
// Recovery repeats for about a quarter of --seconds and reports its mean:
// the host has fast and slow stretches lasting seconds, and a mean over
// several of them moves less from run to run than a median that picks one.
constexpr int kRuleRecoverRepsPerSecond = 3;
constexpr int kServeRecoverRepsPerSecond = 1;

// --- Workload sizing ------------------------------------------------------
// Work scales with --seconds so one pass measures about that long on a
// 4-core host; the inputs depend only on the seed and --seconds.

MannersSpec MakeMannersSpec(int seconds) {
  MannersSpec spec;
  spec.tables = std::max(2, 4 * seconds);
  return spec;
}

HubSpec MakeHubSpec(int seconds) {
  HubSpec spec;
  spec.steps = std::max(2, 3 * seconds + 3);
  return spec;
}

// A round (5000 closed-loop + 2500 open-loop transactions) takes about
// 4–5 s; rounds spread both loops over the whole phase.
ServeSpec MakeServeSpec(int seconds) {
  ServeSpec spec;
  spec.rounds = std::max(1, seconds / 5);
  return spec;
}

constexpr size_t kHubWorkers = 3;
constexpr size_t kServeWorkers = 2;

// serve_mixed's open loop is valid only if the generator sends on time
// and the server keeps up: the generator's p99 lateness and the time from
// the last due time to the last reply must stay under these limits.
constexpr double kMaxLateMs = 50;
constexpr double kMaxDrainMs = 1000;

void Fail(PassResult* r, const std::string& what) {
  r->correct = false;
  r->errors.push_back(what);
}

std::string Fmt(const char* fmt, double a, double b = 0, double c = 0,
                double d = 0) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c, d);
  return buf;
}

// Every per-layer metric, zero until measured: a layer a workload does not
// exercise (net on the rule workloads, say) reports 0.
void InitLayerMetrics(MetricSet* m) {
  static const std::pair<const char*, const char*> kNames[] = {
      {"lang.load_ms", "ms"},
      {"lang.wal_parse_us", "us"},
      {"lang.checkpoint_parse_ms", "ms"},
      {"wm.preload_ms", "ms"},
      {"wm.apply_us_p50", "us"},
      {"wm.live_wmes", "count"},
      {"match.init_ms", "ms"},
      {"match.apply_us_p50", "us"},
      {"match.apply_us_p99", "us"},
      {"match.select_us_p50", "us"},
      {"match.conflict_set_peak", "count"},
      {"match.share", "1"},
      {"lock.grants", "count"},
      {"lock.fast_share", "1"},
      {"lock.waits", "count"},
      {"lock.hold_ms", "ms"},
      {"lock.cas_retries", "count"},
      {"engine.init_ms", "ms"},
      {"engine.useful_ratio", "1"},
      {"engine.aborts", "count"},
      {"engine.stale_skips", "count"},
      {"engine.backoff_ms", "ms"},
      {"engine.seq_stall_ms", "ms"},
      {"engine.batch_mean", "count"},
      {"engine.commit_gap_us_p50", "us"},
      {"engine.commit_gap_us_p99", "us"},
      {"server.fsyncs_per_commit", "1"},
      {"server.max_group", "count"},
      {"server.checkpoints", "count"},
      {"server.checkpoint_mb", "MB"},
      {"server.rc_victim_aborts", "count"},
      {"server.txn_retries", "count"},
      {"server.admission_waits", "count"},
      {"server.batch_sync_us_p50", "us"},
      {"server.batch_sync_us_p99", "us"},
      {"recovery.scan_ms", "ms"},
      {"recovery.replay_ms", "ms"},
      {"net.begin_us_p50", "us"},
      {"net.write_us_p50", "us"},
      {"net.query_us_p50", "us"},
      {"net.commit_us_p50", "us"},
      {"net.busy_rejects", "count"},
      {"loadgen.saturation_txn_s", "txn/s"},
      {"loadgen.late_ms_p99", "ms"},
      {"loadgen.drain_ms", "ms"},
      {"loadgen.commit_p50_ms", "ms"},
      {"loadgen.commit_p99_ms", "ms"},
      {"loadgen.commit_samples", "count"},
      {"loadgen.read_p50_ms", "ms"},
      {"loadgen.read_p99_ms", "ms"},
      {"loadgen.read_samples", "count"},
  };
  for (const auto& [name, unit] : kNames) m->Set(name, 0.0, unit);
}

// p99 under the percentile rule; a sample too small for it (a short
// --seconds) reports 0 and says so.
double P99(const Samples& samples, const char* what, PassResult* r) {
  auto v = SupportedPercentile(samples, 99);
  if (!v) {
    r->notes.push_back(std::string("p99 not reported for ") + what + ": " +
                       std::to_string(samples.size()) +
                       " samples (needs >= 1000)");
    return 0.0;
  }
  return *v;
}

// The engine observer every workload installs: the durable feed first
// (span: server layer), then the commit clock.
dbps::EngineObserver MakeObserver(dbps::EngineObserver feed_observer,
                                  std::atomic<CommitClock*>* clock,
                                  Tracer* tracer,
                                  std::atomic<int64_t>* parent) {
  return [feed_observer = std::move(feed_observer), clock, tracer,
          parent](const dbps::EngineEvent& event) {
    using Kind = dbps::EngineEvent::Kind;
    if (event.kind != Kind::kCommit && event.kind != Kind::kBatchEnd) {
      feed_observer(event);
      return;
    }
    ScopedSpan span(tracer, "server.journal", "server",
                    parent->load(std::memory_order_relaxed));
    const int64_t start = NowNs();
    feed_observer(event);
    const int64_t took = NowNs() - start;
    span.End();
    CommitClock* c = clock->load(std::memory_order_acquire);
    if (c == nullptr) return;
    if (event.kind == Kind::kCommit) {
      c->OnCommit();
    } else {
      c->OnBatchSynced(took);
    }
  };
}

void FillEngineLayers(const dbps::EngineStats& st,
                      const dbps::LockManager::Stats& lock,
                      const dbps::DurabilityStats& dur, MetricSet* m) {
  m->Set("lock.grants", lock.acquired, "count");
  m->Set("lock.fast_share",
         lock.acquired == 0 ? 0.0
                            : static_cast<double>(lock.fast_path_grants) /
                                  lock.acquired,
         "1");
  m->Set("lock.waits", lock.blocked, "count");
  uint64_t hold_ns = 0;
  for (const auto& shard : lock.shards) hold_ns += shard.hold_ns;
  m->Set("lock.hold_ms", hold_ns * 1e-6, "ms");
  m->Set("lock.cas_retries", lock.fast_path_cas_retries, "count");
  const double claims = static_cast<double>(st.firings + st.aborts +
                                            st.stale_skips + st.rhs_errors);
  m->Set("engine.useful_ratio", claims == 0 ? 0.0 : st.firings / claims, "1");
  m->Set("engine.aborts", st.aborts, "count");
  m->Set("engine.stale_skips", st.stale_skips, "count");
  m->Set("engine.backoff_ms", st.backoff_micros * 1e-3, "ms");
  m->Set("engine.seq_stall_ms", st.sequencer_stall_micros * 1e-3, "ms");
  m->Set("engine.batch_mean",
         st.commit_batches == 0
             ? 0.0
             : static_cast<double>(st.firings + st.client_commits) /
                   st.commit_batches,
         "count");
  m->Set("server.fsyncs_per_commit",
         dur.records_synced == 0
             ? 0.0
             : static_cast<double>(dur.fsyncs) / dur.records_synced,
         "1");
  m->Set("server.max_group", dur.max_group, "count");
  m->Set("server.checkpoints", dur.checkpoints_written, "count");
}

// Journal sync times and host steal over the measured phase.
void AddPhaseNotes(const CommitClock& clock,
                   std::pair<uint64_t, uint64_t> steal0,
                   std::pair<uint64_t, uint64_t> steal1, PassResult* r) {
  r->layer.Set("server.batch_sync_us_p50", clock.sync_us().Median(), "us");
  r->layer.Set("server.batch_sync_us_p99",
               P99(clock.sync_us(), "server.batch_sync", r), "us");
  const uint64_t total = steal1.second - steal0.second;
  const double steal =
      total == 0 ? 0.0
                 : 100.0 * static_cast<double>(steal1.first - steal0.first) /
                       total;
  r->notes.push_back(
      Fmt("host: %.2f%% of CPU time stolen by the hypervisor during the "
          "phase; ",
          steal) +
      Fmt("journal batch write+fsync p50 %.1f us p99 %.1f us (n=%g)",
          clock.sync_us().Median(), clock.sync_us().Quantile(0.99),
          static_cast<double>(clock.sync_us().size())));
}

// ops_per_s and cpu_us_per_op, each a total over seconds of the measured
// phase (it adds up the host's fast and slow stretches), plus the traced
// commit gaps.
void SetThroughput(double ops_per_s, double cpu_us_per_op,
                   const CommitClock& clock, bool traced, PassResult* r) {
  r->e2e.Set("ops_per_s", ops_per_s, "op/s");
  r->e2e.Set("cpu_us_per_op", cpu_us_per_op, "us");
  if (traced) {
    r->layer.Set("engine.commit_gap_us_p50", clock.gaps_us().Median(), "us");
    r->layer.Set("engine.commit_gap_us_p99",
                 P99(clock.gaps_us(), "engine.commit_gap", r), "us");
  }
}

// One line of the engine and lock counters, printed on every run.
std::string EngineNote(const MetricSet& m) {
  return Fmt("engine: aborts %g, stale %g, backoff %.1f ms, ",
             m.Get("engine.aborts"), m.Get("engine.stale_skips"),
             m.Get("engine.backoff_ms")) +
         Fmt("sequencer stall %.1f ms, batch mean %.2f; ",
             m.Get("engine.seq_stall_ms"), m.Get("engine.batch_mean")) +
         Fmt("lock: grants %g, waits %g, fast %.3f; fsyncs/commit %.3f",
             m.Get("lock.grants"), m.Get("lock.waits"),
             m.Get("lock.fast_share"), m.Get("server.fsyncs_per_commit"));
}

// After the measured phase: final dump, repeated recovery, audit, WAL
// size, and (traced) the layer replay. `check` is the workload's own
// output check on the recovered state.
void Finish(const std::string& dir, const std::string& path,
            const dbps::WorkingMemory& live,
            const dbps::WorkingMemory& pristine,
            const dbps::RuleSetPtr& rules, uint64_t expected_records,
            double phase_s, int recover_reps,
            const std::function<Status(const dbps::WorkingMemory&,
                                       uint64_t next_seq)>& check,
            Tracer* tracer, PassResult* r) {
  std::string dump;
  {
    ScopedSpan span(tracer, "server.dump", "server", r->root);
    dump = dbps::CanonicalWmDump(live);
  }
  RecoveryResult rec = RecoverRepeatedly(path, pristine, dump, recover_reps,
                                         tracer, r->root);
  if (!rec.error.empty()) {
    Fail(r, rec.error);
  } else {
    ScopedSpan span(tracer, "bench.check", "bench", r->root);
    Status st = check(*rec.recovered, rec.next_seq);
    if (!st.ok()) Fail(r, "output check: " + st.ToString());
  }
  if (rec.delta_records != expected_records && rec.error.empty()) {
    Fail(r, "journal holds " + std::to_string(rec.delta_records) +
                " commits, expected " + std::to_string(expected_records));
  }
  r->e2e.Set("recover_s", rec.recover_s, "s");
  r->layer.Set("recovery.scan_ms", rec.scan_s * 1e3, "ms");
  r->layer.Set("recovery.replay_ms",
               std::max(0.0, rec.recover_s - rec.scan_s) * 1e3, "ms");
  r->layer.Set("wm.live_wmes", live.TotalCount(), "count");
  r->notes.push_back(
      Fmt("recovery: mean %.4f s of %g reps (min %.4f, max %.4f)",
          rec.recover_s, recover_reps, rec.recover_min_s, rec.recover_max_s) +
      Fmt(", scan %.4f s, %g delta records", rec.scan_s,
          static_cast<double>(rec.delta_records)) +
      (rec.used_checkpoint ? ", from a checkpoint" : ", full replay"));

  {
    ScopedSpan span(tracer, "audit.wal", "audit", r->root);
    auto report = dbps::ConsistencyAuditor::AuditWalFile(path);
    span.End();
    if (!report.ok()) {
      Fail(r, "audit: " + report.status().ToString());
    } else if (!report.ValueOrDie().clean()) {
      Fail(r, "audit violations: " + report.ValueOrDie().ToString());
    } else {
      r->notes.push_back("audit: " +
                         std::to_string(report.ValueOrDie().records) +
                         " records, 0 violations");
    }
  }
  {
    ScopedSpan span(tracer, "lang.wal_scan", "lang", r->root);
    auto wal = MeasureWal(path);
    span.End();
    if (!wal.ok() || wal.ValueOrDie().delta_records != expected_records) {
      Fail(r, "cannot size the journal");
    } else {
      const WalBytes& w = wal.ValueOrDie();
      r->e2e.Set("wal_bytes_per_op",
                 static_cast<double>(w.delta_bytes) / expected_records,
                 "B/op");
      r->layer.Set("server.checkpoint_mb",
                   w.checkpoint_records == 0
                       ? 0.0
                       : w.checkpoint_bytes * 1e-6 / w.checkpoint_records,
                   "MB");
      r->notes.push_back(Fmt("wal: %g framed bytes in %g delta records, %g "
                             "in %g checkpoint records",
                             static_cast<double>(w.delta_bytes),
                             static_cast<double>(w.delta_records),
                             static_cast<double>(w.checkpoint_bytes),
                             static_cast<double>(w.checkpoint_records)));
    }
  }
  if (tracer->enabled()) {
    ScopedSpan span(tracer, "replay", "bench", r->root);
    auto replay = ReplayLayers(path, dir, pristine, rules, tracer, span.id());
    span.End();
    if (!replay.ok()) {
      Fail(r, "layer replay: " + replay.status().ToString());
    } else {
      const LayerReplay& lr = replay.ValueOrDie();
      MetricSet& m = r->layer;
      m.Set("lang.wal_parse_us", lr.parse_us.Median(), "us");
      m.Set("lang.checkpoint_parse_ms", lr.checkpoint_restore_ms, "ms");
      m.Set("wm.apply_us_p50", lr.apply_us.Median(), "us");
      m.Set("match.apply_us_p50", lr.match_us.Median(), "us");
      m.Set("match.apply_us_p99", P99(lr.match_us, "match.apply", r), "us");
      m.Set("match.select_us_p50", lr.select_us.Median(), "us");
      m.Set("match.conflict_set_peak", lr.conflict_set_peak, "count");
      m.Set("match.share", phase_s > 0 ? lr.match_s / phase_s : 0.0, "1");
      r->notes.push_back(
          Fmt("layer replay of the WAL: lang parse %.3f s, wm apply %.3f s, "
              "match propagate %.3f s",
              lr.parse_s, lr.apply_s, lr.match_s) +
          Fmt(" (measured phase %.3f s)", phase_s));
    }
  }
}

// --- manners / hub_rw: a rule program on ParallelEngine -------------------

struct RuleWorkload {
  std::string program;
  size_t workers = 1;
  size_t checkpoint_every = 0;
  int recover_reps = 0;
  uint64_t expected_ops = 0;
  std::function<Status(const dbps::WorkingMemory&, uint64_t next_seq)> check;
};

PassResult RunRulePass(const RuleWorkload& w, Tracer* tracer,
                       const std::string& dir) {
  PassResult r;
  InitLayerMetrics(&r.layer);
  r.root = tracer->Begin("run", "bench");
  std::vector<double> setup_s, compile_ms, preload_ms, init_ms;
  Database db;
  // Set-up runs on this thread alone (the engine starts after it), so its
  // reps rotate over the CPUs like recovery's.
  auto rotation = std::make_unique<CpuRotation>();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    rotation->PinTo(rep);
    ScopedSpan span(tracer, "setup", "bench", r.root);
    auto loaded = LoadDatabase(w.program, tracer, span.id());
    if (!loaded.ok()) {
      Fail(&r, "load: " + loaded.status().ToString());
      return r;
    }
    Database cur = std::move(loaded).ValueOrDie();
    auto matcher = std::make_unique<dbps::ReteMatcher>();
    Stopwatch sw;
    ScopedSpan init_span(tracer, "match.init", "match", span.id());
    Status st = matcher->Initialize(cur.rules, *cur.wm);
    init_span.End();
    const double init = sw.ElapsedSeconds();
    span.End();
    if (!st.ok()) {
      Fail(&r, "matcher init: " + st.ToString());
      return r;
    }
    setup_s.push_back(cur.compile_s + cur.preload_s + init);
    compile_ms.push_back(cur.compile_s * 1e3);
    preload_ms.push_back(cur.preload_s * 1e3);
    init_ms.push_back(init * 1e3);
    {
      ScopedSpan teardown(tracer, "teardown", "match", r.root);
      matcher.reset();
    }
    if (rep + 1 == kSetupReps) {
      db = std::move(cur);
    } else {
      ScopedSpan teardown(tracer, "teardown", "wm", r.root);
      cur = Database();
    }
  }
  rotation.reset();
  const std::string path = dbps::RecoveryManager::JournalFileInDir(dir);
  auto feed = std::make_unique<dbps::JournalFeed>();
  Status st = EnableJournal(feed.get(), path, w.checkpoint_every, db.wm.get());
  if (!st.ok()) {
    Fail(&r, "journal: " + st.ToString());
    return r;
  }
  CommitClock clock(tracer->enabled());
  std::atomic<CommitClock*> clock_ptr{&clock};
  std::atomic<int64_t> run_span{-1};
  dbps::ParallelEngineOptions options;
  options.num_workers = w.workers;
  options.base.record_log = false;
  options.base.max_firings = w.expected_ops + 1000;
  options.base.cost_model = dbps::CostModel::kBusySpin;
  options.base.observer =
      MakeObserver(feed->MakeObserver(), &clock_ptr, tracer, &run_span);
  auto engine =
      std::make_unique<dbps::ParallelEngine>(db.wm.get(), db.rules, options);
  dbps::StatusOr<dbps::RunResult> result = Status::Internal("did not run");
  run_span.store(tracer->Begin("engine.run", "engine", r.root));
  Stopwatch init_sw;
  std::thread thread([&] { result = engine->Run(); });
  engine->WaitUntilAccepting(std::chrono::seconds(60));
  const double engine_init_s = init_sw.ElapsedSeconds();
  Stopwatch phase;
  const double cpu0 = ProcessCpuSeconds();
  const auto steal0 = CpuStealJiffies();
  thread.join();
  const double phase_s = phase.ElapsedSeconds();
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  AddPhaseNotes(clock, steal0, CpuStealJiffies(), &r);
  tracer->End(run_span.load());
  r.e2e.Set("peak_rss_mb", PeakRssMb(), "MB");
  if (!result.ok()) {
    Fail(&r, "engine: " + result.status().ToString());
    return r;
  }
  const dbps::EngineStats& stats = result.ValueOrDie().stats;
  FillEngineLayers(stats, engine->lock_stats(), feed->durability(), &r.layer);
  r.notes.push_back(EngineNote(r.layer));
  {
    ScopedSpan span(tracer, "teardown", "engine", r.root);
    engine.reset();
    feed.reset();
  }
  const uint64_t ops = stats.firings + stats.client_commits;
  r.ops.attempted = stats.firings + stats.rhs_errors;
  r.ops.committed = stats.firings;
  r.ops.failed = stats.rhs_errors;
  r.ops.retries = stats.firing_retries;
  if (stats.hit_max_firings || ops != w.expected_ops) {
    Fail(&r, "committed " + std::to_string(ops) + " firings, expected " +
                 std::to_string(w.expected_ops));
  }

  r.e2e.Set("setup_s", MedianOf(setup_s), "s");
  SetThroughput(ops / phase_s, cpu_s * 1e6 / ops, clock, tracer->enabled(),
                &r);
  r.layer.Set("lang.load_ms", MedianOf(compile_ms), "ms");
  r.layer.Set("wm.preload_ms", MedianOf(preload_ms), "ms");
  r.layer.Set("match.init_ms", MedianOf(init_ms), "ms");
  r.layer.Set("engine.init_ms", engine_init_s * 1e3, "ms");
  r.notes.push_back(Fmt("phase: %g commits in %.3f s, setup median of %g "
                        "reps",
                        static_cast<double>(ops), phase_s, kSetupReps));
  // The recovery base: the same database loaded again, after the measured
  // phase so that it is not resident during it.
  std::unique_ptr<dbps::WorkingMemory> pristine;
  {
    ScopedSpan span(tracer, "recovery.base", "bench", r.root);
    auto base = LoadDatabase(w.program, tracer, span.id());
    if (!base.ok()) {
      Fail(&r, "reload: " + base.status().ToString());
      return r;
    }
    pristine = std::move(base.ValueOrDie().wm);
  }
  Finish(dir, path, *db.wm, *pristine, db.rules, ops, phase_s,
         w.recover_reps, w.check, tracer, &r);
  {
    ScopedSpan span(tracer, "teardown", "wm", r.root);
    db = Database();
    pristine.reset();
  }
  tracer->End(r.root);
  return r;
}

// --- serve_mixed: NetServer + open-loop load generator --------------------

// Engine + session manager + network server over one preloaded database,
// with the durable journal; clients connected over loopback.
struct ServeStack {
  Database db;
  std::unique_ptr<dbps::JournalFeed> feed;
  std::unique_ptr<dbps::SessionManager> manager;
  std::unique_ptr<dbps::ParallelEngine> engine;
  dbps::StatusOr<dbps::RunResult> result = Status::Internal("did not run");
  std::thread thread;
  std::unique_ptr<dbps::net::NetServer> net;
  std::vector<std::unique_ptr<DbpsClient>> clients;
  std::atomic<CommitClock*> clock{nullptr};
  std::atomic<int64_t> span_parent{-1};
  double engine_init_s = 0;  ///< Run() until the engine accepts clients

  ServeStack() = default;
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;
  ~ServeStack() { Stop(); }

  // Starts engine, server and clients on an already loaded `db`.
  Status Start(const ServeSpec& spec, const std::string& path,
               size_t checkpoint_every, Tracer* tracer, int64_t parent) {
    feed = std::make_unique<dbps::JournalFeed>();
    DBPS_RETURN_NOT_OK(
        EnableJournal(feed.get(), path, checkpoint_every, db.wm.get()));
    dbps::ServerOptions server_options;
    server_options.max_sessions = 16;
    server_options.durable_feed = feed.get();
    server_options.session.repeatable_reads = false;
    manager = std::make_unique<dbps::SessionManager>(db.wm.get(),
                                                     server_options);
    dbps::ParallelEngineOptions options;
    options.num_workers = kServeWorkers;
    options.external_source = manager.get();
    options.base.record_log = false;
    options.base.max_firings = uint64_t{1} << 40;
    options.base.cost_model = dbps::CostModel::kBusySpin;
    options.base.observer =
        MakeObserver(feed->MakeObserver(), &clock, tracer, &span_parent);
    engine = std::make_unique<dbps::ParallelEngine>(db.wm.get(), db.rules,
                                                    options);
    manager->BindEngine(engine.get());
    {
      ScopedSpan span(tracer, "engine.start", "engine", parent);
      Stopwatch sw;
      thread = std::thread([this] { result = engine->Run(); });
      if (!engine->WaitUntilAccepting(std::chrono::seconds(60))) {
        return Status::Internal("engine never started serving");
      }
      engine_init_s = sw.ElapsedSeconds();
    }
    dbps::net::NetServerOptions net_options;
    net_options.num_loops = 1;
    net_options.num_dispatchers = 1;
    net_options.session.repeatable_reads = false;
    net = std::make_unique<dbps::net::NetServer>(manager.get(), net_options);
    {
      ScopedSpan span(tracer, "net.start", "net", parent);
      DBPS_RETURN_NOT_OK(net->Start());
    }
    ScopedSpan span(tracer, "net.connect", "net", parent);
    for (int c = 0; c < spec.connections; ++c) {
      auto client = DbpsClient::Connect("127.0.0.1", net->port(),
                                        "lg" + std::to_string(c));
      if (!client.ok()) return client.status();
      clients.push_back(std::move(client).ValueOrDie());
    }
    return Status::OK();
  }

  // Disconnects clients, stops the server and waits for the engine to
  // drain (every inbox row folded).
  void Stop() {
    for (auto& client : clients) (void)client->Goodbye();
    clients.clear();
    if (net != nullptr) net->Stop();
    if (manager != nullptr) manager->Close();
    if (thread.joinable()) thread.join();
  }
};

struct PlannedTxn {
  int64_t due_ns = 0;  ///< open loop: offset from the segment's start
  bool write = false;
  bool range = false;
  uint64_t key = 0;
};

// Per round, the closed-loop segment's transactions, then the open-loop
// segment's Poisson arrivals. Transaction i runs on connection
// i % connections, and connection c owns the keys == c (mod connections),
// so each key's writes are ordered by one connection.
std::vector<PlannedTxn> PlanTraffic(const ServeSpec& spec, uint64_t seed) {
  dbps::Random rng(seed * 0x9e3779b97f4a7c15ULL + 7);
  const size_t per_round = spec.closed_txns + spec.open_txns;
  std::vector<PlannedTxn> plan(spec.rounds * per_round);
  double t = 0;
  const uint64_t per_conn = spec.rows / spec.connections;
  for (size_t i = 0; i < plan.size(); ++i) {
    PlannedTxn& txn = plan[i];
    const size_t in_round = i % per_round;
    if (in_round == spec.closed_txns) t = 0;
    if (in_round >= spec.closed_txns) {
      // Exponential gaps at the fixed mean rate.
      t += -std::log(1.0 - rng.NextDouble()) / spec.rate;
      txn.due_ns = static_cast<int64_t>(t * 1e9);
    }
    txn.write = rng.Bernoulli(spec.write_frac);
    if (txn.write) {
      txn.key =
          i % spec.connections + spec.connections * rng.Uniform(per_conn);
    } else {
      txn.key = rng.Uniform(spec.rows);
      txn.range = rng.Bernoulli(spec.range_frac);
    }
  }
  return plan;
}

uint64_t RangeRows(const ServeSpec& spec, uint64_t key) {
  const uint64_t hi = std::min<uint64_t>(
      spec.rows, key + static_cast<uint64_t>(spec.range_width) * spec.shards);
  return (hi - key + spec.shards - 1) / spec.shards;
}

std::string QueryText(const ServeSpec& spec, const PlannedTxn& txn) {
  const std::string rel = ServeShard(spec, txn.key);
  if (!txn.range) {
    return "(" + rel + " ^k " + std::to_string(txn.key) + ")";
  }
  const uint64_t hi = txn.key + static_cast<uint64_t>(spec.range_width) *
                                    spec.shards;
  return "(" + rel + " ^k { >= " + std::to_string(txn.key) + " } ^k { < " +
         std::to_string(hi) + " })";
}

struct LoadgenResult {
  Samples commit_ms, read_ms, late_ms;
  Samples begin_us, write_us, query_us, commitf_us;
  std::unordered_map<uint64_t, uint64_t> last_value;  ///< key -> value
  uint64_t acked_writes = 0;
  uint64_t max_seq = 0;
  double phase_s = 0;
  double drain_ms = 0;  ///< open loop: last reply after the last due time,
                        ///< the largest over the segments
  std::vector<std::string> errors;
};

enum class Expect : uint8_t { kBegin, kWrite, kCommit, kQuery, kAbort };

struct Outstanding {
  uint64_t request_id;
  Expect expect;
  size_t txn;
  int64_t sent_ns;
};

// Drives plan[first, last) on the stack's connections, transaction i on
// connection i % connections. Open loop (window == 0): every transaction
// is sent at its due time, pipelined behind whatever its connection still
// has in flight, and its latency counts from the due time. Closed loop:
// each connection keeps `window` transactions in flight and sends the next
// as soon as one ends, so the server sets the pace; no latencies. Adds to
// `out`, which may hold earlier segments of the same kind.
void RunLoadgen(const ServeSpec& spec, const std::vector<PlannedTxn>& plan,
                size_t first, size_t last, int window,
                const std::unordered_map<uint64_t, uint64_t>& ids,
                ServeStack* stack, Tracer* tracer, OpTally* ops,
                LoadgenResult* out) {
  const bool open_loop = window == 0;
  const size_t conns = stack->clients.size();
  std::vector<std::deque<Outstanding>> pending(conns);
  std::vector<int> in_flight(conns, 0);  // transactions, not frames
  std::vector<bool> failed(plan.size(), false);
  std::vector<pollfd> fds(conns);
  const int64_t start = NowNs();
  const int64_t to_trace_time = tracer->Now() - start;
  // Every reply must arrive within a minute of the last due time.
  const int64_t last_due = open_loop && last > first ? plan[last - 1].due_ns
                                                     : 0;
  const int64_t deadline = start + last_due + int64_t{60} * 1000000000;
  size_t next = first, open = 0;
  auto ready = [&](int64_t now) {
    if (next >= last) return false;
    if (open_loop) return start + plan[next].due_ns <= now;
    return in_flight[next % conns] < window;
  };
  auto fail_txn = [&](size_t txn, const std::string& why) {
    if (!failed[txn]) {
      failed[txn] = true;
      ++ops->failed;
      if (out->errors.size() < 5) out->errors.push_back(why);
    }
  };
  auto send = [&](size_t c, FrameType type, const std::string& body,
                  Expect expect, size_t txn) {
    std::string framed;
    if (!body.empty()) dbps::net::PutString(&framed, body);
    auto id = stack->clients[c]->Send(type, framed);
    if (!id.ok()) {
      fail_txn(txn, "send: " + id.status().ToString());
      return;
    }
    pending[c].push_back(Outstanding{id.ValueOrDie(), expect, txn, NowNs()});
    ++open;
  };
  while (next < last || open > 0) {
    int64_t now = NowNs();
    if (now > deadline) {
      out->errors.push_back("load generator timed out with " +
                            std::to_string(open) + " replies outstanding");
      break;
    }
    while (ready(now)) {
      const PlannedTxn& txn = plan[next];
      const size_t c = next % conns;
      if (open_loop) out->late_ms.Add((now - start - txn.due_ns) * 1e-6);
      ++ops->attempted;
      ++in_flight[c];
      send(c, FrameType::kBegin, "", Expect::kBegin, next);
      if (txn.write) {
        const uint64_t value = next + 1;
        auto id = ids.find(txn.key);
        std::string line = "(delta (modify " +
                           std::to_string(id->second) + " (1 " +
                           std::to_string(value) + ")) (make inbox 1))";
        send(c, FrameType::kWrite, line, Expect::kWrite, next);
        send(c, FrameType::kCommit, "", Expect::kCommit, next);
      } else {
        send(c, FrameType::kQuery, QueryText(spec, txn), Expect::kQuery, next);
        send(c, FrameType::kAbortTxn, "", Expect::kAbort, next);
      }
      ++next;
      now = NowNs();
    }
    for (size_t c = 0; c < conns; ++c) {
      fds[c].fd = stack->clients[c]->fd();
      fds[c].events = POLLIN;
      fds[c].revents = 0;
    }
    int64_t wait_ns = 2000000;
    if (open_loop && next < last) {
      wait_ns = std::min(wait_ns, start + plan[next].due_ns - NowNs());
    }
    timespec ts{0, static_cast<long>(std::max<int64_t>(0, wait_ns))};
    ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    for (size_t c = 0; c < conns; ++c) {
      if (fds[c].revents == 0) continue;
      Frame frame;
      for (;;) {
        auto got = stack->clients[c]->TryNext(&frame);
        if (!got.ok()) {
          out->errors.push_back("connection lost: " +
                                got.status().ToString());
          return;
        }
        if (!got.ValueOrDie()) break;
        const int64_t at = NowNs();
        if (pending[c].empty() ||
            pending[c].front().request_id != frame.request_id) {
          out->errors.push_back("reply out of order");
          return;
        }
        const Outstanding o = pending[c].front();
        pending[c].pop_front();
        --open;
        // Commit and abort are each transaction's last frame.
        if (o.expect == Expect::kCommit || o.expect == Expect::kAbort) {
          --in_flight[c];
        }
        const PlannedTxn& txn = plan[o.txn];
        const double rtt_us = (at - o.sent_ns) * 1e-3;
        if (frame.type == FrameType::kError || frame.type == FrameType::kBusy) {
          fail_txn(o.txn, std::string("refused: ") +
                              dbps::net::FrameTypeToString(frame.type));
          continue;
        }
        const char* span_name = "net.begin";
        switch (o.expect) {
          case Expect::kBegin:
            out->begin_us.Add(rtt_us);
            break;
          case Expect::kWrite:
            out->write_us.Add(rtt_us);
            span_name = "net.write";
            break;
          case Expect::kAbort:
            span_name = "net.abort";
            if (!failed[o.txn]) ++ops->committed;
            break;
          case Expect::kQuery: {
            out->query_us.Add(rtt_us);
            span_name = "net.query";
            auto rows = DbpsClient::ExpectRows(frame);
            const uint64_t want = txn.range ? RangeRows(spec, txn.key) : 1;
            if (!rows.ok() || rows.ValueOrDie().size() != want) {
              fail_txn(o.txn, "query returned the wrong rows");
              break;
            }
            if (open_loop) out->read_ms.Add((at - start - txn.due_ns) * 1e-6);
            break;
          }
          case Expect::kCommit: {
            out->commitf_us.Add(rtt_us);
            span_name = "net.commit";
            auto seq = DbpsClient::ExpectCommitOk(frame);
            if (!seq.ok()) {
              fail_txn(o.txn, "commit: " + seq.status().ToString());
              break;
            }
            if (!failed[o.txn]) {
              if (open_loop) {
                out->commit_ms.Add((at - start - txn.due_ns) * 1e-6);
              }
              out->last_value[txn.key] = o.txn + 1;
              out->max_seq = std::max(out->max_seq, seq.ValueOrDie());
              ++out->acked_writes;
              ++ops->committed;
            }
            break;
          }
        }
        tracer->Record(span_name, "net", o.sent_ns + to_trace_time,
                       at + to_trace_time, -1, o.txn + 1);
      }
    }
  }
  const int64_t end = NowNs();
  out->phase_s += (end - start) * 1e-9;
  if (open_loop) {
    out->drain_ms = std::max(out->drain_ms, (end - start - last_due) * 1e-6);
  }
}

PassResult RunServePass(uint64_t seed, int seconds, Tracer* tracer,
                        const std::string& dir) {
  PassResult r;
  InitLayerMetrics(&r.layer);
  r.root = tracer->Begin("run", "bench");
  const ServeSpec spec = MakeServeSpec(seconds);
  const std::string program = ServeProgram(spec);
  const std::string path = dbps::RecoveryManager::JournalFileInDir(dir);
  const std::vector<PlannedTxn> plan = PlanTraffic(spec, seed);
  uint64_t planned_writes = 0;
  for (const PlannedTxn& txn : plan) planned_writes += txn.write;
  // Every write commits twice: the client transaction and its fold.
  const uint64_t expected_ops = 2 * planned_writes;
  std::vector<double> setup_s, compile_ms, preload_ms;
  std::unique_ptr<ServeStack> stack;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    auto cur = std::make_unique<ServeStack>();
    ScopedSpan span(tracer, "setup", "bench", r.root);
    Stopwatch sw;
    auto loaded = LoadDatabase(program, tracer, span.id());
    if (!loaded.ok()) {
      Fail(&r, "load: " + loaded.status().ToString());
      return r;
    }
    cur->db = std::move(loaded).ValueOrDie();
    // Two checkpoints of the whole database while serving (after a third
    // and two thirds of the commits), so recovery restores the second and
    // replays the last third.
    Status st = cur->Start(spec, path, expected_ops / 3 + 1, tracer,
                           span.id());
    span.End();
    if (!st.ok()) {
      Fail(&r, "server start: " + st.ToString());
      return r;
    }
    setup_s.push_back(sw.ElapsedSeconds());
    compile_ms.push_back(cur->db.compile_s * 1e3);
    preload_ms.push_back(cur->db.preload_s * 1e3);
    if (rep + 1 == kSetupReps) {
      stack = std::move(cur);
    } else {
      ScopedSpan stop(tracer, "teardown", "server", r.root);
      cur.reset();
    }
  }
  // Point-write targets: counter key -> WME id, from the loaded database.
  std::unordered_map<uint64_t, uint64_t> ids;
  for (int s = 0; s < spec.shards; ++s) {
    for (const dbps::WmePtr& row :
         stack->db.wm->Scan(dbps::Sym("acct" + std::to_string(s)))) {
      ids[row->value(0).AsInt()] = row->id();
    }
  }
  // Throughput and CPU per op cover the whole phase: the closed loops'
  // length is set by the server, the open loops' by the plan. (The closed
  // loops alone are reported per layer: their rate swings with hypervisor
  // steal too much to bound.) Commits count client commits and their folds.
  CommitClock clock(tracer->enabled());
  const int64_t phase_span = tracer->Begin("loadgen.run", "loadgen", r.root);
  stack->span_parent.store(phase_span);
  stack->clock.store(&clock, std::memory_order_release);
  const auto steal0 = CpuStealJiffies();
  const double cpu0 = ProcessCpuSeconds();
  LoadgenResult closed, lg;  // lg: the open loop
  uint64_t closed_commits = 0;
  for (int round = 0; round < spec.rounds; ++round) {
    const size_t first = round * (spec.closed_txns + spec.open_txns);
    const size_t mid = first + spec.closed_txns;
    const uint64_t commits0 = clock.commits();
    RunLoadgen(spec, plan, first, mid, spec.window, ids, stack.get(), tracer,
               &r.ops, &closed);
    closed_commits += clock.commits() - commits0;
    RunLoadgen(spec, plan, mid, mid + spec.open_txns, 0, ids, stack.get(),
               tracer, &r.ops, &lg);
    if (!closed.errors.empty() || !lg.errors.empty()) break;
  }
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  const uint64_t phase_commits = clock.commits();
  tracer->End(phase_span);
  for (const std::string& e : closed.errors) Fail(&r, "loadgen: " + e);
  for (const std::string& e : lg.errors) Fail(&r, "loadgen: " + e);
  {
    ScopedSpan stop(tracer, "server.stop", "server", r.root);
    stack->span_parent.store(stop.id());
    stack->Stop();
  }
  // The engine has stopped: nothing touches the commit clock any more.
  AddPhaseNotes(clock, steal0, CpuStealJiffies(), &r);
  r.e2e.Set("peak_rss_mb", PeakRssMb(), "MB");
  if (!stack->result.ok()) {
    Fail(&r, "engine: " + stack->result.status().ToString());
    return r;
  }
  // The open loop is valid only if the generator kept its schedule and
  // the server kept up with it.
  const double late_p99 = lg.late_ms.Quantile(0.99);
  if (late_p99 > kMaxLateMs) {
    Fail(&r, Fmt("open loop: the generator ran %.1f ms late at p99 (limit "
                 "%g ms)",
                 late_p99, kMaxLateMs));
  }
  if (lg.drain_ms > kMaxDrainMs) {
    Fail(&r, Fmt("open loop: the server fell behind; the last reply came "
                 "%.1f ms after the last due time (limit %g ms)",
                 lg.drain_ms, kMaxDrainMs));
  }
  const dbps::EngineStats& stats = stack->result.ValueOrDie().stats;
  FillEngineLayers(stats, stack->engine->lock_stats(),
                   stack->feed->durability(), &r.layer);
  r.notes.push_back(EngineNote(r.layer));
  const dbps::ServerStats server = stack->manager->GetStats();
  r.layer.Set("server.rc_victim_aborts",
              server.closed_sessions.rc_victim_aborts, "count");
  r.layer.Set("server.txn_retries", server.closed_sessions.retries, "count");
  r.layer.Set("server.admission_waits", server.txn_gate.waited, "count");
  r.layer.Set("net.busy_rejects", stack->net->GetStats().busy_frames,
              "count");
  if (stats.rhs_errors > 0) Fail(&r, "fold rule raised RHS errors");
  const uint64_t ops = stats.firings + stats.client_commits;
  const uint64_t acked = closed.acked_writes + lg.acked_writes;
  if (stats.client_commits != acked) {
    Fail(&r, "engine committed " + std::to_string(stats.client_commits) +
                 " client transactions, clients saw " +
                 std::to_string(acked) + " acks");
  }

  r.e2e.Set("setup_s", MedianOf(setup_s), "s");
  const double phase_s = closed.phase_s + lg.phase_s;
  SetThroughput(phase_commits / phase_s, cpu_s * 1e6 / phase_commits, clock,
                tracer->enabled(), &r);
  const double saturation = spec.rounds * spec.closed_txns / closed.phase_s;
  r.layer.Set("loadgen.saturation_txn_s", saturation, "txn/s");
  r.layer.Set("lang.load_ms", MedianOf(compile_ms), "ms");
  r.layer.Set("wm.preload_ms", MedianOf(preload_ms), "ms");
  r.layer.Set("engine.init_ms", stack->engine_init_s * 1e3, "ms");
  r.layer.Set("loadgen.late_ms_p99", P99(lg.late_ms, "loadgen.late", &r),
              "ms");
  r.layer.Set("loadgen.drain_ms", lg.drain_ms, "ms");
  r.layer.Set("loadgen.commit_p50_ms", lg.commit_ms.Median(), "ms");
  r.layer.Set("loadgen.commit_p99_ms", P99(lg.commit_ms, "commit", &r), "ms");
  r.layer.Set("loadgen.commit_samples", lg.commit_ms.size(), "count");
  r.layer.Set("loadgen.read_p50_ms", lg.read_ms.Median(), "ms");
  r.layer.Set("loadgen.read_p99_ms", P99(lg.read_ms, "read", &r), "ms");
  r.layer.Set("loadgen.read_samples", lg.read_ms.size(), "count");
  r.layer.Set("net.begin_us_p50", lg.begin_us.Median(), "us");
  r.layer.Set("net.write_us_p50", lg.write_us.Median(), "us");
  r.layer.Set("net.query_us_p50", lg.query_us.Median(), "us");
  r.layer.Set("net.commit_us_p50", lg.commitf_us.Median(), "us");
  r.notes.push_back(
      Fmt("closed loop: %g rounds of %g txns, %g in flight per connection, ",
          spec.rounds, static_cast<double>(spec.closed_txns), spec.window) +
      Fmt("in %.3f s (%.1f txn/s, %g commits)", closed.phase_s, saturation,
          static_cast<double>(closed_commits)));
  r.notes.push_back(
      Fmt("open loop: %g rounds of %g txns at %g/s over %g connections, ",
          spec.rounds, static_cast<double>(spec.open_txns), spec.rate,
          spec.connections) +
      Fmt("in %.3f s (%.1f%% of the closed loop's rate); drain %.1f ms; ",
          lg.phase_s, 100 * spec.rate / saturation, lg.drain_ms) +
      Fmt("whole phase %g commits in %.3f s",
          static_cast<double>(phase_commits), phase_s));
  r.notes.push_back(
      Fmt("latency: commit p50 %.3f ms p99 %.3f ms (n=%g); ",
          lg.commit_ms.Median(), lg.commit_ms.Quantile(0.99),
          static_cast<double>(lg.commit_ms.size())) +
      Fmt("read p50 %.3f ms p99 %.3f ms (n=%g); late p99 %.3f ms",
          lg.read_ms.Median(), lg.read_ms.Quantile(0.99),
          static_cast<double>(lg.read_ms.size()), late_p99));

  // The recovery base: the same database loaded again, after the measured
  // phase so that it is not resident during it.
  std::unique_ptr<dbps::WorkingMemory> pristine;
  {
    ScopedSpan span(tracer, "recovery.base", "bench", r.root);
    auto base = LoadDatabase(program, tracer, span.id());
    if (!base.ok()) {
      Fail(&r, "reload: " + base.status().ToString());
      return r;
    }
    pristine = std::move(base.ValueOrDie().wm);
  }
  if (tracer->enabled()) {
    // match.init: a standalone Rete over the preloaded database (the
    // engine's own init is inside the server start).
    ScopedSpan span(tracer, "match.init", "match", r.root);
    Stopwatch sw;
    dbps::ReteMatcher matcher;
    Status st = matcher.Initialize(stack->db.rules, *pristine);
    r.layer.Set("match.init_ms", sw.ElapsedSeconds() * 1e3, "ms");
    if (!st.ok()) Fail(&r, "matcher init: " + st.ToString());
  }

  // A key's writes come from one connection in plan order, so its last
  // acked value is the largest.
  std::unordered_map<uint64_t, uint64_t> last_value = closed.last_value;
  for (const auto& [key, value] : lg.last_value) {
    last_value[key] = std::max(last_value[key], value);
  }
  const uint64_t max_seq = std::max(closed.max_seq, lg.max_seq);
  auto check = [&](const dbps::WorkingMemory& wm,
                   uint64_t next_seq) -> Status {
    if (acked > 0 && max_seq >= next_seq) {
      return Status::Internal("an acked commit seq is past the recovered log");
    }
    const auto total = wm.Scan(dbps::Sym("total"));
    if (total.size() != 1 ||
        static_cast<uint64_t>(total[0]->value(0).AsInt()) != acked) {
      return Status::Internal("total does not equal the inbox rows inserted");
    }
    if (wm.Count(dbps::Sym("inbox")) != 0) {
      return Status::Internal("inbox rows left unfolded");
    }
    for (const auto& [key, value] : last_value) {
      const dbps::WmePtr row = wm.Get(ids.at(key));
      if (row == nullptr ||
          static_cast<uint64_t>(row->value(1).AsInt()) != value) {
        return Status::Internal("acked write to key " + std::to_string(key) +
                                " lost");
      }
    }
    return Status::OK();
  };
  Finish(dir, path, *stack->db.wm, *pristine, stack->db.rules, ops, phase_s,
         kServeRecoverRepsPerSecond * seconds,
         check, tracer, &r);
  {
    ScopedSpan span(tracer, "teardown", "server", r.root);
    stack.reset();
    pristine.reset();
  }
  tracer->End(r.root);
  return r;
}

}  // namespace

std::string CostModelNote(const std::string& workload) {
  if (workload == "hub_rw") {
    return "busy-spin " + std::to_string(HubSpec().cost_us) +
           " us per firing, " + std::to_string(kHubWorkers) + " workers";
  }
  if (workload == "serve_mixed") {
    return "no rule cost, " + std::to_string(kServeWorkers) +
           " workers, 1 loop, 1 dispatcher";
  }
  return "no rule cost, 1 worker";
}

PassResult RunPass(const Args& args, Tracer* tracer, const std::string& dir) {
  if (args.workload == "serve_mixed") {
    return RunServePass(args.seed, args.seconds, tracer, dir);
  }
  RuleWorkload w;
  if (args.workload == "manners") {
    const MannersSpec spec = MakeMannersSpec(args.seconds);
    w.program = MannersProgram(spec, args.seed);
    w.workers = 1;
    w.expected_ops = spec.Firings();
    // One checkpoint, after half of the commits: recovery restores it and
    // replays the second half.
    w.checkpoint_every = spec.Firings() / 2 + 1;
    w.recover_reps = kRuleRecoverRepsPerSecond * args.seconds;
    w.check = [spec](const dbps::WorkingMemory& wm, uint64_t) {
      return CheckManners(wm, spec);
    };
  } else {
    const HubSpec spec = MakeHubSpec(args.seconds);
    w.program = HubProgram(spec, args.seed);
    w.workers = kHubWorkers;
    w.recover_reps = kRuleRecoverRepsPerSecond * args.seconds;
    w.expected_ops = spec.Firings();
    w.check = [spec](const dbps::WorkingMemory& wm, uint64_t) {
      return CheckHub(wm, spec);
    };
  }
  return RunRulePass(w, tracer, dir);
}

void PrintNotes(const PassResult& pass) {
  for (const std::string& note : pass.notes) {
    std::printf("%s\n", note.c_str());
  }
  std::printf("failed_frac: %.6g (%llu failed / %llu attempted, %llu "
              "retried aborts not counted)\n",
              pass.ops.FailedFrac(),
              static_cast<unsigned long long>(pass.ops.failed),
              static_cast<unsigned long long>(pass.ops.attempted),
              static_cast<unsigned long long>(pass.ops.retries));
  for (const auto& [name, metric] : pass.e2e.all()) {
    std::printf("  %-26s %14.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const std::string& error : pass.errors) {
    std::printf("ERROR: %s\n", error.c_str());
  }
  std::fflush(stdout);
}

void AddTraceMetrics(const PassResult& untraced, const Tracer& tracer,
                     PassResult* traced) {
  const double wall = tracer.DurationSeconds(traced->root);
  const auto self = tracer.SelfSecondsByLayer(traced->root);
  double attributed = 0;
  // The lock layer has no public calls of its own to span; its time is
  // inside engine.run.
  static const char* kLayers[] = {"lang",   "wm",  "match", "engine",
                                  "server", "net", "audit", "loadgen"};
  for (const char* layer : kLayers) {
    auto it = self.find(layer);
    const double s = it == self.end() ? 0.0 : it->second;
    attributed += s;
    traced->layer.Set(std::string("trace.self_s.") + layer, s, "s");
  }
  auto bench = self.find("bench");
  traced->layer.Set("trace.self_s.bench",
                    bench == self.end() ? 0.0 : bench->second, "s");
  const double cover = wall > 0 ? attributed / wall : 0.0;
  traced->layer.Set("trace.wall_s", wall, "s");
  traced->layer.Set("trace.layer_cover", cover, "1");
  std::printf("phase clock: layer self times %.3f s of %.3f s traced wall "
              "(%.1f%%)\n",
              attributed, wall, 100 * cover);
  if (std::fabs(1.0 - cover) > 0.15) {
    traced->correct = false;
    std::printf("ERROR: layer self times miss the traced wall time by more "
                "than 15%%\n");
  }
  // Overhead: traced minus untraced, per end-to-end metric.
  for (const auto& [name, metric] : untraced.e2e.all()) {
    const double delta = traced->e2e.Get(name) - metric.value;
    traced->layer.Set("trace.overhead." + name, delta, metric.unit);
    std::printf("tracing overhead: %s %+.6g %s (untraced %.6g)\n",
                name.c_str(), delta, metric.unit.c_str(), metric.value);
  }
  // Timed client-side figures come from the untraced pass.
  for (const char* name :
       {"loadgen.saturation_txn_s", "loadgen.late_ms_p99", "loadgen.drain_ms",
       "loadgen.commit_p50_ms", "loadgen.commit_p99_ms",
        "loadgen.commit_samples", "loadgen.read_p50_ms", "loadgen.read_p99_ms",
        "loadgen.read_samples", "net.begin_us_p50", "net.write_us_p50",
        "net.query_us_p50", "net.commit_us_p50"}) {
    auto it = untraced.layer.all().find(name);
    if (it != untraced.layer.all().end()) {
      traced->layer.Set(name, it->second.value, it->second.unit);
    }
  }
}

std::string SerializePass(const PassResult& pass) {
  std::ostringstream out;
  out.precision(17);
  out << "correct " << pass.correct << "\n";
  out << "ops " << pass.ops.attempted << " " << pass.ops.committed << " "
      << pass.ops.failed << " " << pass.ops.retries << "\n";
  for (const auto& [name, m] : pass.e2e.all()) {
    out << "e2e " << name << " " << m.value << " " << m.unit << "\n";
  }
  for (const auto& [name, m] : pass.layer.all()) {
    out << "layer " << name << " " << m.value << " " << m.unit << "\n";
  }
  return out.str();
}

bool DeserializePass(const std::string& text, PassResult* pass) {
  std::istringstream in(text);
  std::string kind;
  bool complete = false;
  while (in >> kind) {
    if (kind == "correct") {
      in >> pass->correct;
      complete = true;
    } else if (kind == "ops") {
      in >> pass->ops.attempted >> pass->ops.committed >> pass->ops.failed >>
          pass->ops.retries;
    } else if (kind == "e2e" || kind == "layer") {
      std::string name, unit;
      double value = 0;
      in >> name >> value >> unit;
      (kind == "e2e" ? pass->e2e : pass->layer).Set(name, value, unit);
    } else {
      return false;
    }
  }
  return complete && !in.bad();
}

}  // namespace perfbench
