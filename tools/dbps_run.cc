// dbps_run — command-line driver for the dbps engine.
//
//   dbps_run [flags] <program.dbps>
//
// Loads a rule-language program (relations, rules, facts), runs it on the
// selected engine, and reports. Flags:
//
//   --engine=single|parallel|static   interpreter (default: single)
//   --workers=N                       parallel/static worker count (4)
//   --commit-batch=N                  max commits the sequencer head folds
//                                     into one ordered batch (8; 1
//                                     disables batching)
//   --protocol=2pl|rcrawa             lock protocol (rcrawa)
//   --abort-policy=abort|revalidate   Rc–Wa settlement policy (abort)
//   --deadlock=detect|wound-wait|no-wait   deadlock handling (detect)
//   --strategy=priority|lex|mea|fifo|random conflict resolution (priority)
//   --seed=N                          PRNG seed (42)
//   --max-firings=N                   safety cap (100000)
//   --matcher=rete|naive|treat        match algorithm (rete)
//   --cost-model=sleep|spin           how :cost occupies a processor
//   --trace                           print every committed firing
//   --validate                        replay-check the commit log
//   --audit                           run the offline consistency auditor
//                                     (src/audit/) over the commit log —
//                                     and, with --journal-dir, over the
//                                     durable WAL file too
//   --dump-final                      print the final working memory
//   --snapshot-out=FILE               save final WM as a loadable program
//   --query=LHS                       evaluate a query against the final
//                                     WM and print the rows
//   --journal-out=FILE                write the committed deltas as a
//                                     replayable journal
//   --sessions=N                      serve N concurrent client sessions
//                                     (parallel engine only); each session
//                                     submits external transactions that
//                                     interleave with rule firings
//   --client-ops=M                    transactions per session (16)
//   --client-relation=NAME            relation the clients insert into
//                                     (default: first declared relation)
//   --chaos-seed=N                    arm the failpoint chaos profile
//                                     (util/failpoint.h) seeded with N;
//                                     the run injects deterministic faults
//   --fail-rate=P                     base failpoint probability for
//                                     --chaos-seed (0.05)
//   --journal-dir=DIR                 keep a durable, checksummed WAL at
//                                     DIR/journal.wal (parallel engine);
//                                     commits are fsynced before being
//                                     acknowledged
//   --recover                         rebuild working memory from the WAL
//                                     in --journal-dir before running
//                                     (checkpoint restore + delta replay;
//                                     a torn tail is truncated), then
//                                     append to it; without --recover the
//                                     run starts a fresh log
//   --group-commit                    one fsync per commit batch instead
//                                     of one per commit
//   --checkpoint-every=N              write a snapshot checkpoint record
//                                     into the WAL every N commits
//   --match-partitions=N              partition the matcher by relation
//                                     hash into N partitions, propagated
//                                     inline on the committing thread
//                                     (parallel engine; 0 = serial match)
//   --match-split                     split a hot partition's alpha
//                                     memories by value-hash of the
//                                     first-CE tested attribute into
//                                     sub-partitions when skew persists
//   --audit-every=N                   emit full audit evidence only on
//                                     every Nth commit (1 = every commit);
//                                     the auditor treats unaudited lines
//                                     as order-only evidence
//   --quiet                           suppress the summary line

#include <sys/stat.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dbps.h"
#include "engine/busy_work.h"

namespace {

using namespace dbps;

struct Flags {
  std::string engine = "single";
  size_t workers = 4;
  size_t commit_batch = 8;
  LockProtocol protocol = LockProtocol::kRcRaWa;
  AbortPolicy abort_policy = AbortPolicy::kAbort;
  DeadlockPolicy deadlock_policy = DeadlockPolicy::kDetect;
  ConflictResolution strategy = ConflictResolution::kPriority;
  uint64_t seed = 42;
  uint64_t max_firings = 100000;
  MatcherKind matcher = MatcherKind::kRete;
  CostModel cost_model = CostModel::kSleep;
  bool trace = false;
  bool validate = false;
  bool audit = false;
  bool dump_final = false;
  bool quiet = false;
  size_t sessions = 0;
  uint64_t client_ops = 16;
  std::string client_relation;
  bool chaos = false;
  uint64_t chaos_seed = 0;
  double fail_rate = 0.05;
  size_t match_partitions = 0;
  bool match_split = false;
  uint64_t audit_every = 1;
  std::string journal_dir;
  bool recover = false;
  bool group_commit = false;
  size_t checkpoint_every = 0;
  std::string snapshot_out;
  std::string journal_out;
  std::string query;
  std::string program_path;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--engine=single|parallel|static] [--workers=N]\n"
               "  [--commit-batch=N]\n"
               "  [--protocol=2pl|rcrawa] [--abort-policy=abort|revalidate]\n"
               "  [--deadlock=detect|wound-wait|no-wait]\n"
               "  [--strategy=priority|lex|mea|fifo|random] [--seed=N]\n"
               "  [--max-firings=N] [--matcher=rete|naive|treat]\n"
               "  [--cost-model=sleep|spin] [--trace] [--validate]\n"
               "  [--audit]\n"
               "  [--dump-final] [--snapshot-out=FILE] [--query=LHS]\n"
               "  [--journal-out=FILE]\n"
               "  [--sessions=N] [--client-ops=M] [--client-relation=NAME]\n"
               "  [--chaos-seed=N] [--fail-rate=P] [--quiet]\n"
               "  [--journal-dir=DIR] [--recover] [--group-commit]\n"
               "  [--checkpoint-every=N]\n"
               "  [--match-partitions=N] [--match-split]\n"
               "  [--audit-every=N]\n"
               "  <program.dbps>\n",
               argv0);
  return 2;
}

bool ParseFlag(const std::string& arg, const char* name,
               std::string* value) {
  std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

StatusOr<Flags> ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (arg == "--trace") {
      flags.trace = true;
    } else if (arg == "--validate") {
      flags.validate = true;
    } else if (arg == "--audit") {
      flags.audit = true;
    } else if (arg == "--dump-final") {
      flags.dump_final = true;
    } else if (arg == "--quiet") {
      flags.quiet = true;
    } else if (ParseFlag(arg, "engine", &value)) {
      if (value != "single" && value != "parallel" && value != "static") {
        return Status::InvalidArgument("unknown engine '" + value + "'");
      }
      flags.engine = value;
    } else if (ParseFlag(arg, "workers", &value)) {
      flags.workers = std::stoul(value);
    } else if (ParseFlag(arg, "commit-batch", &value)) {
      flags.commit_batch = std::stoul(value);
      if (flags.commit_batch == 0) {
        return Status::InvalidArgument("--commit-batch must be >= 1");
      }
    } else if (ParseFlag(arg, "protocol", &value)) {
      if (value == "2pl") {
        flags.protocol = LockProtocol::kTwoPhase;
      } else if (value == "rcrawa") {
        flags.protocol = LockProtocol::kRcRaWa;
      } else {
        return Status::InvalidArgument("unknown protocol '" + value + "'");
      }
    } else if (ParseFlag(arg, "abort-policy", &value)) {
      if (value == "abort") {
        flags.abort_policy = AbortPolicy::kAbort;
      } else if (value == "revalidate") {
        flags.abort_policy = AbortPolicy::kRevalidate;
      } else {
        return Status::InvalidArgument("unknown abort policy '" + value +
                                       "'");
      }
    } else if (ParseFlag(arg, "deadlock", &value)) {
      if (value == "detect") {
        flags.deadlock_policy = DeadlockPolicy::kDetect;
      } else if (value == "wound-wait") {
        flags.deadlock_policy = DeadlockPolicy::kWoundWait;
      } else if (value == "no-wait") {
        flags.deadlock_policy = DeadlockPolicy::kNoWait;
      } else {
        return Status::InvalidArgument("unknown deadlock policy '" +
                                       value + "'");
      }
    } else if (ParseFlag(arg, "strategy", &value)) {
      if (value == "priority") {
        flags.strategy = ConflictResolution::kPriority;
      } else if (value == "lex") {
        flags.strategy = ConflictResolution::kLex;
      } else if (value == "mea") {
        flags.strategy = ConflictResolution::kMea;
      } else if (value == "fifo") {
        flags.strategy = ConflictResolution::kFifo;
      } else if (value == "random") {
        flags.strategy = ConflictResolution::kRandom;
      } else {
        return Status::InvalidArgument("unknown strategy '" + value + "'");
      }
    } else if (ParseFlag(arg, "seed", &value)) {
      flags.seed = std::stoull(value);
    } else if (ParseFlag(arg, "max-firings", &value)) {
      flags.max_firings = std::stoull(value);
    } else if (ParseFlag(arg, "matcher", &value)) {
      if (value == "rete") {
        flags.matcher = MatcherKind::kRete;
      } else if (value == "naive") {
        flags.matcher = MatcherKind::kNaive;
      } else if (value == "treat") {
        flags.matcher = MatcherKind::kTreat;
      } else {
        return Status::InvalidArgument("unknown matcher '" + value + "'");
      }
    } else if (ParseFlag(arg, "cost-model", &value)) {
      if (value == "sleep") {
        flags.cost_model = CostModel::kSleep;
      } else if (value == "spin") {
        flags.cost_model = CostModel::kBusySpin;
      } else {
        return Status::InvalidArgument("unknown cost model '" + value +
                                       "'");
      }
    } else if (ParseFlag(arg, "snapshot-out", &value)) {
      flags.snapshot_out = value;
    } else if (ParseFlag(arg, "query", &value)) {
      flags.query = value;
    } else if (ParseFlag(arg, "journal-out", &value)) {
      flags.journal_out = value;
    } else if (ParseFlag(arg, "sessions", &value)) {
      flags.sessions = std::stoul(value);
    } else if (ParseFlag(arg, "client-ops", &value)) {
      flags.client_ops = std::stoull(value);
    } else if (ParseFlag(arg, "client-relation", &value)) {
      flags.client_relation = value;
    } else if (arg == "--recover") {
      flags.recover = true;
    } else if (arg == "--group-commit") {
      flags.group_commit = true;
    } else if (ParseFlag(arg, "journal-dir", &value)) {
      flags.journal_dir = value;
    } else if (ParseFlag(arg, "checkpoint-every", &value)) {
      flags.checkpoint_every = std::stoul(value);
    } else if (ParseFlag(arg, "chaos-seed", &value)) {
      flags.chaos = true;
      flags.chaos_seed = std::stoull(value);
    } else if (ParseFlag(arg, "fail-rate", &value)) {
      flags.fail_rate = std::stod(value);
      if (flags.fail_rate < 0.0 || flags.fail_rate > 1.0) {
        return Status::InvalidArgument("--fail-rate must be in [0,1]");
      }
    } else if (ParseFlag(arg, "match-partitions", &value)) {
      flags.match_partitions = std::stoul(value);
    } else if (arg == "--match-split") {
      flags.match_split = true;
    } else if (ParseFlag(arg, "audit-every", &value)) {
      flags.audit_every = std::stoull(value);
    } else if (!arg.empty() && arg[0] == '-') {
      return Status::InvalidArgument("unknown flag '" + arg + "'");
    } else if (flags.program_path.empty()) {
      flags.program_path = arg;
    } else {
      return Status::InvalidArgument("multiple program files given");
    }
  }
  if (flags.program_path.empty()) {
    return Status::InvalidArgument("no program file given");
  }
  if (flags.sessions > 0 && flags.engine != "parallel") {
    return Status::InvalidArgument(
        "--sessions requires --engine=parallel");
  }
  if (!flags.journal_dir.empty() && flags.engine != "parallel") {
    return Status::InvalidArgument(
        "--journal-dir requires --engine=parallel");
  }
  if (flags.recover && flags.journal_dir.empty()) {
    return Status::InvalidArgument("--recover requires --journal-dir");
  }
  if ((flags.group_commit || flags.checkpoint_every > 0) &&
      flags.journal_dir.empty()) {
    return Status::InvalidArgument(
        "--group-commit/--checkpoint-every require --journal-dir");
  }
  return flags;
}

/// Default client tuple for `schema`, distinct per (session, op).
std::vector<Value> ClientTuple(const RelationSchema& schema, size_t session,
                               uint64_t op) {
  std::vector<Value> values;
  values.reserve(schema.arity());
  for (const AttrDef& attr : schema.attrs()) {
    switch (attr.type) {
      case AttrType::kFloat:
        values.push_back(Value::Float(static_cast<double>(op)));
        break;
      case AttrType::kSymbol:
        values.push_back(
            Value::Symbol("client-" + std::to_string(session)));
        break;
      case AttrType::kString:
        values.push_back(
            Value::String("session-" + std::to_string(session)));
        break;
      case AttrType::kInt:
      case AttrType::kNumber:
      case AttrType::kAny:
        values.push_back(Value::Int(
            static_cast<int64_t>(session) * 1000000 +
            static_cast<int64_t>(op)));
        break;
    }
  }
  return values;
}

/// Runs the parallel engine as a server: N closed-loop client sessions
/// insert tuples into `target` while rules fire against the same working
/// memory. Returns the engine result once all sessions have drained.
StatusOr<RunResult> ServeSessions(const Flags& flags, WorkingMemory* wm,
                                  RuleSetPtr rules,
                                  ParallelEngineOptions options,
                                  JournalFeed* durable_feed,
                                  ServerStats* server_stats) {
  SymbolId target;
  if (!flags.client_relation.empty()) {
    target = Sym(flags.client_relation);
  } else if (!wm->catalog().relation_names().empty()) {
    target = wm->catalog().relation_names().front();
  } else {
    return Status::InvalidArgument(
        "--sessions needs at least one relation in the program");
  }
  auto schema_or = wm->catalog().GetRelation(target);
  if (!schema_or.ok()) return schema_or.status();
  const RelationSchema& schema = *schema_or.ValueOrDie();

  ServerOptions server_options;
  server_options.durable_feed = durable_feed;  // ack-after-fsync when set
  SessionManager manager(wm, server_options);
  options.external_source = &manager;
  ParallelEngine engine(wm, rules, options);
  manager.BindEngine(&engine);

  StatusOr<RunResult> result{Status::Internal("engine not run")};
  std::thread serve([&] { result = engine.Run(); });

  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < flags.sessions; ++c) {
    clients.emplace_back([&, c] {
      // Under --chaos-seed the admission layer may inject rejections, so
      // connecting deserves the same bounded retry as the transactions.
      StatusOr<SessionPtr> session_or{Status::Internal("not connected")};
      for (int attempt = 0; attempt < 16; ++attempt) {
        session_or = manager.Connect("cli-" + std::to_string(c));
        if (session_or.ok()) break;
        SleepMicros(200);
      }
      if (!session_or.ok()) {
        failures.fetch_add(flags.client_ops);
        return;
      }
      SessionPtr session = session_or.ValueOrDie();
      for (uint64_t i = 0; i < flags.client_ops; ++i) {
        Status st = session->Perform([&, i](Session& s) -> Status {
          DBPS_RETURN_NOT_OK(s.Begin());
          Delta delta;
          delta.Create(target, ClientTuple(schema, c, i));
          DBPS_RETURN_NOT_OK(s.Write(delta));
          return s.Commit().status();
        });
        if (!st.ok()) failures.fetch_add(1);
      }
      session->Close();
    });
  }
  for (auto& t : clients) t.join();
  manager.Close();
  serve.join();
  *server_stats = manager.GetStats();
  if (failures.load() > 0 && !flags.quiet) {
    std::fprintf(stderr, "warning: %llu client transaction(s) never "
                 "committed\n", (unsigned long long)failures.load());
  }
  return result;
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int Run(const Flags& flags) {
  auto source = ReadFile(flags.program_path);
  if (!source.ok()) {
    std::fprintf(stderr, "error: %s\n", source.status().ToString().c_str());
    return 1;
  }

  WorkingMemory wm;
  auto rules_or = LoadProgram(source.ValueOrDie(), &wm);
  if (!rules_or.ok()) {
    std::fprintf(stderr, "%s: %s\n", flags.program_path.c_str(),
                 rules_or.status().ToString().c_str());
    return 1;
  }
  RuleSetPtr rules = rules_or.ValueOrDie();

  // Crash recovery runs against the freshly loaded program state, BEFORE
  // anything else observes the working memory: a checkpoint replaces the
  // program's initial facts, a checkpoint-less journal replays onto them.
  JournalFeed feed;
  uint64_t start_seq = 0;
  if (!flags.journal_dir.empty()) {
    ::mkdir(flags.journal_dir.c_str(), 0755);  // EEXIST is fine
    const std::string wal =
        RecoveryManager::JournalFileInDir(flags.journal_dir);
    if (flags.recover) {
      RecoveryManager recovery(wal);
      auto stats_or = recovery.Recover(&wm);
      if (!stats_or.ok()) {
        std::fprintf(stderr, "recovery failed: %s\n",
                     stats_or.status().ToString().c_str());
        return 1;
      }
      const RecoveryStats& rstats = stats_or.ValueOrDie();
      start_seq = rstats.next_seq;
      if (!flags.quiet) {
        std::printf("recovery: %s\n", rstats.ToString().c_str());
      }
    }
    DurabilityOptions durability;
    durability.path = wal;
    durability.open_mode = flags.recover ? JournalOpenMode::kAppend
                                         : JournalOpenMode::kTruncate;
    durability.group_commit = flags.group_commit;
    durability.start_seq = start_seq;
    durability.checkpoint_every = flags.checkpoint_every;
    Status st = feed.EnableDurability(durability);
    if (st.ok()) st = feed.EnableCheckpoints(&wm);
    if (!st.ok()) {
      std::fprintf(stderr, "journal setup failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }

  std::unique_ptr<WorkingMemory> pristine;
  if (flags.validate) pristine = wm.Clone();

  if (flags.chaos) {
    ApplyChaosProfile(flags.fail_rate, flags.chaos_seed);
  }

  EngineOptions base;
  base.strategy = flags.strategy;
  base.matcher = flags.matcher;
  base.seed = flags.seed;
  base.max_firings = flags.max_firings;
  base.cost_model = flags.cost_model;

  StatusOr<RunResult> result_or{Status::Internal("engine not run")};
  ServerStats server_stats;
  if (flags.engine == "single") {
    SingleThreadEngine engine(&wm, rules, base);
    result_or = engine.Run();
  } else if (flags.engine == "parallel") {
    ParallelEngineOptions options;
    options.base = base;
    options.num_workers = flags.workers;
    options.commit_batch_limit = flags.commit_batch;
    options.protocol = flags.protocol;
    options.abort_policy = flags.abort_policy;
    options.deadlock_policy = flags.deadlock_policy;
    options.start_seq = start_seq;
    options.num_match_partitions = flags.match_partitions;
    options.match_split = flags.match_split;
    options.audit_every = flags.audit_every;
    JournalFeed* durable = nullptr;
    if (!flags.journal_dir.empty()) {
      durable = &feed;
      options.base.observer = feed.MakeObserver(base.observer);
    }
    if (flags.sessions > 0) {
      result_or =
          ServeSessions(flags, &wm, rules, options, durable, &server_stats);
    } else {
      ParallelEngine engine(&wm, rules, options);
      result_or = engine.Run();
    }
  } else {
    StaticPartitionOptions options;
    options.base = base;
    options.num_workers = flags.workers;
    StaticPartitionEngine engine(&wm, rules, options);
    result_or = engine.Run();
  }
  uint64_t chaos_fires = 0;
  if (flags.chaos) {
    chaos_fires = FailpointRegistry::Instance().total_fires();
    FailpointRegistry::Instance().DisableAll();
  }
  if (!result_or.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 result_or.status().ToString().c_str());
    return 1;
  }
  const RunResult& result = result_or.ValueOrDie();

  if (flags.trace) {
    for (const auto& record : result.log) {
      std::printf("%6llu  %-24s %s\n", (unsigned long long)record.seq,
                  record.key.rule_name.c_str(),
                  record.delta.ToString().c_str());
    }
  }
  if (!flags.quiet) {
    std::printf("%s engine: %s\n", flags.engine.c_str(),
                result.stats.ToString().c_str());
    if (flags.sessions > 0) {
      std::printf(
          "sessions: admitted=%llu peak=%zu txns=%llu commits=%llu "
          "aborts=%llu (rc victims %llu)\n",
          (unsigned long long)server_stats.sessions_admitted,
          server_stats.peak_sessions,
          (unsigned long long)server_stats.closed_sessions.begins,
          (unsigned long long)server_stats.closed_sessions.commits,
          (unsigned long long)server_stats.closed_sessions.aborts,
          (unsigned long long)server_stats.closed_sessions.rc_victim_aborts);
    }
    if (flags.chaos) {
      std::printf("chaos: seed=%llu rate=%.3f failpoint fires=%llu\n",
                  (unsigned long long)flags.chaos_seed, flags.fail_rate,
                  (unsigned long long)chaos_fires);
    }
    if (!flags.journal_dir.empty()) {
      const DurabilityStats dstats = feed.durability();
      std::printf(
          "journal: durable_seq=%llu fsyncs=%llu records=%llu "
          "mean_group=%.2f checkpoints=%llu bytes=%llu failures=%llu\n",
          (unsigned long long)feed.durable_seq(),
          (unsigned long long)dstats.fsyncs,
          (unsigned long long)dstats.records_synced, dstats.MeanGroup(),
          (unsigned long long)dstats.checkpoints_written,
          (unsigned long long)dstats.bytes_written,
          (unsigned long long)dstats.sync_failures);
    }
  }
  if (flags.validate) {
    Status valid = ValidateReplay(pristine.get(), rules, result.log);
    std::printf("replay validation: %s\n", valid.ToString().c_str());
    if (!valid.ok()) return 1;
  }
  if (flags.audit) {
    ConsistencyAuditor auditor;
    for (const auto& record : result.log) {
      auditor.AddCommit(record.seq, record.delta, record.audit);
    }
    const AuditReport audit = auditor.Finish();
    std::printf("consistency audit: %s\n", audit.ToString().c_str());
    if (!audit.clean()) return 1;
    if (!flags.journal_dir.empty()) {
      auto wal_audit = ConsistencyAuditor::AuditWalFile(
          RecoveryManager::JournalFileInDir(flags.journal_dir));
      if (!wal_audit.ok()) {
        std::fprintf(stderr, "WAL audit failed: %s\n",
                     wal_audit.status().ToString().c_str());
        return 1;
      }
      std::printf("WAL audit: %s\n",
                  wal_audit.ValueOrDie().ToString().c_str());
      if (!wal_audit.ValueOrDie().clean()) return 1;
    }
  }
  if (flags.dump_final) {
    std::printf("%s", wm.ToString().c_str());
  }
  if (!flags.query.empty()) {
    auto rows = ExecuteQuery(wm, flags.query);
    if (!rows.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   rows.status().ToString().c_str());
      return 1;
    }
    std::printf("query matched %zu row(s):\n", rows->size());
    for (const auto& row : rows.ValueOrDie()) {
      for (const auto& wme : row) {
        std::printf("  %s", wme->ToString().c_str());
      }
      std::printf("\n");
    }
  }
  if (!flags.journal_out.empty()) {
    std::vector<Delta> deltas;
    deltas.reserve(result.log.size());
    for (const auto& record : result.log) deltas.push_back(record.delta);
    auto journal = DeltasToJournal(deltas);
    if (!journal.ok()) {
      std::fprintf(stderr, "journal failed: %s\n",
                   journal.status().ToString().c_str());
      return 1;
    }
    std::ofstream out(flags.journal_out);
    if (!out) {
      std::fprintf(stderr, "cannot write '%s'\n",
                   flags.journal_out.c_str());
      return 1;
    }
    out << journal.ValueOrDie();
    if (!flags.quiet) {
      std::printf("journal written to %s\n", flags.journal_out.c_str());
    }
  }
  if (!flags.snapshot_out.empty()) {
    auto snapshot = SnapshotToSource(wm);
    if (!snapshot.ok()) {
      std::fprintf(stderr, "snapshot failed: %s\n",
                   snapshot.status().ToString().c_str());
      return 1;
    }
    std::ofstream out(flags.snapshot_out);
    if (!out) {
      std::fprintf(stderr, "cannot write '%s'\n",
                   flags.snapshot_out.c_str());
      return 1;
    }
    out << snapshot.ValueOrDie();
    if (!flags.quiet) {
      std::printf("snapshot written to %s\n", flags.snapshot_out.c_str());
    }
  }
  return result.stats.hit_max_firings ? 3 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = ParseFlags(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 flags.status().ToString().c_str());
    return Usage(argv[0]);
  }
  return Run(flags.ValueOrDie());
}
