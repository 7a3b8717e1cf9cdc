#include "durable.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "lang/compiler.h"
#include "lang/journal.h"
#include "lang/wal.h"
#include "match/rete.h"
#include "server/recovery.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace perfbench {

using dbps::Status;
using dbps::StatusOr;
using dbps::Stopwatch;
using dbps::WorkingMemory;

CpuRotation::CpuRotation() {
  if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof(allowed_), &allowed_);
}

void CpuRotation::PinTo(size_t turn) {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[turn % cpus_.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

StatusOr<Database> LoadDatabase(const std::string& program, Tracer* tracer,
                                int64_t parent) {
  Database db;
  db.wm = std::make_unique<WorkingMemory>();
  Stopwatch sw;
  ScopedSpan compile_span(tracer, "lang.compile", "lang", parent);
  auto compiled = dbps::CompileProgram(program, &db.wm->catalog());
  compile_span.End();
  if (!compiled.ok()) return compiled.status();
  dbps::CompiledProgram prog = std::move(compiled).ValueOrDie();
  db.compile_s = sw.ElapsedSeconds();
  sw.Restart();
  ScopedSpan preload_span(tracer, "wm.preload", "wm", parent);
  for (auto& schema : prog.relations) {
    DBPS_RETURN_NOT_OK(db.wm->CreateRelation(std::move(schema)));
  }
  for (auto& fact : prog.facts) {
    auto wme = db.wm->Insert(fact.relation, std::move(fact.values));
    if (!wme.ok()) return wme.status();
  }
  preload_span.End();
  db.preload_s = sw.ElapsedSeconds();
  db.rules = prog.rules;
  return db;
}

Status EnableJournal(dbps::JournalFeed* feed, const std::string& path,
                     size_t checkpoint_every, const WorkingMemory* wm) {
  dbps::DurabilityOptions options;
  options.path = path;
  options.open_mode = dbps::JournalOpenMode::kTruncate;
  options.group_commit = true;
  options.checkpoint_every = checkpoint_every;
  DBPS_RETURN_NOT_OK(feed->EnableDurability(options));
  if (checkpoint_every > 0) DBPS_RETURN_NOT_OK(feed->EnableCheckpoints(wm));
  return Status::OK();
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void CommitClock::OnCommit() {
  if (record_gaps_) {
    const int64_t now = NowNs();
    if (commits() > 0) gaps_us_.Add((now - last_ns_) * 1e-3);
    last_ns_ = now;
  }
  commits_.fetch_add(1, std::memory_order_release);
}

RecoveryResult RecoverRepeatedly(const std::string& path,
                                 const WorkingMemory& initial,
                                 const std::string& final_dump, int reps,
                                 Tracer* tracer, int64_t parent) {
  RecoveryResult out;
  std::vector<double> recover_s, scan_s;
  dbps::RecoveryManager manager(path);
  // Each rep runs pinned to the next of the CPUs this thread may use. On a
  // shared host each CPU has its own slow stretches, seconds long; a thread
  // left on one CPU would time only that CPU's.
  CpuRotation rotation;
  // Rep 0 warms the page cache and allocator and is not timed.
  for (int r = 0; r <= reps; ++r) {
    out.recovered.reset();  // one recovered copy alive at a time
    rotation.PinTo(r);
    std::unique_ptr<WorkingMemory> wm;
    {
      ScopedSpan span(tracer, "wm.clone", "wm", parent);
      wm = initial.Clone();
    }
    Stopwatch sw;
    ScopedSpan scan_span(tracer, "server.validate", "server", parent);
    auto scanned = manager.Validate();
    scan_span.End();
    if (r > 0) scan_s.push_back(sw.ElapsedSeconds());
    sw.Restart();
    ScopedSpan recover_span(tracer, "server.recover", "server", parent);
    auto stats = manager.Recover(wm.get());
    recover_span.End();
    if (r > 0) recover_s.push_back(sw.ElapsedSeconds());
    if (!scanned.ok() || !stats.ok()) {
      out.error = "recovery failed: " + (scanned.ok() ? stats.status()
                                                      : scanned.status())
                                            .ToString();
      return out;
    }
    out.next_seq = stats.ValueOrDie().next_seq;
    out.delta_records = stats.ValueOrDie().delta_records;
    out.used_checkpoint = stats.ValueOrDie().used_checkpoint;
    ScopedSpan dump_span(tracer, "server.dump", "server", parent);
    if (dbps::CanonicalWmDump(*wm) != final_dump) {
      out.error = "recovered working memory differs from the final state";
      return out;
    }
    dump_span.End();
    out.recovered = std::move(wm);
  }
  out.recover_s = MeanOf(recover_s);
  out.recover_min_s = *std::min_element(recover_s.begin(), recover_s.end());
  out.recover_max_s = *std::max_element(recover_s.begin(), recover_s.end());
  out.scan_s = MeanOf(scan_s);
  return out;
}

StatusOr<WalBytes> MeasureWal(const std::string& path) {
  auto it_or = dbps::WalIterator::OpenFile(path);
  if (!it_or.ok()) return it_or.status();
  const dbps::WalIterator& it = it_or.ValueOrDie();
  WalBytes out;
  for (const dbps::WalRecord& record : it.records()) {
    const uint64_t framed = dbps::kWalHeaderSize + record.payload.size();
    if (record.type == dbps::WalRecordType::kCheckpoint) {
      out.checkpoint_bytes += framed;
      ++out.checkpoint_records;
    } else {
      out.delta_bytes += framed;
      ++out.delta_records;
    }
  }
  return out;
}

StatusOr<LayerReplay> ReplayLayers(const std::string& path,
                                   const std::string& work_dir,
                                   const WorkingMemory& initial,
                                   const dbps::RuleSetPtr& rules,
                                   Tracer* tracer, int64_t parent) {
  auto it_or = dbps::WalIterator::OpenFile(path);
  if (!it_or.ok()) return it_or.status();
  const std::vector<dbps::WalRecord>& records = it_or.ValueOrDie().records();
  LayerReplay out;
  auto wm = initial.Clone();
  dbps::ReteMatcher matcher;
  DBPS_RETURN_NOT_OK(matcher.Initialize(rules, *wm));

  // Three passes, one per layer, so each layer is one span: parse every
  // delta record, apply every delta, then propagate every change.
  std::vector<dbps::Delta> deltas;
  const dbps::WalRecord* checkpoint = nullptr;
  {
    ScopedSpan span(tracer, "lang.wal_parse", "lang", parent);
    Stopwatch total;
    for (const dbps::WalRecord& record : records) {
      if (record.type == dbps::WalRecordType::kCheckpoint) {
        checkpoint = &record;
        continue;
      }
      Stopwatch sw;
      auto delta = dbps::DeltaFromJournalLine(record.payload);
      out.parse_us.Add(sw.ElapsedNanos() * 1e-3);
      if (!delta.ok()) return delta.status();
      deltas.push_back(std::move(delta).ValueOrDie());
    }
    out.parse_s = total.ElapsedSeconds();
  }
  std::vector<dbps::WmChange> changes;
  changes.reserve(deltas.size());
  {
    ScopedSpan span(tracer, "wm.apply", "wm", parent);
    Stopwatch total;
    for (const dbps::Delta& delta : deltas) {
      Stopwatch sw;
      auto change = wm->Apply(delta);
      out.apply_us.Add(sw.ElapsedNanos() * 1e-3);
      if (!change.ok()) return change.status();
      changes.push_back(std::move(change).ValueOrDie());
    }
    out.apply_s = total.ElapsedSeconds();
  }
  {
    ScopedSpan span(tracer, "match.apply", "match", parent);
    Stopwatch total;
    dbps::Random rng(1);
    dbps::ConflictSet& set = matcher.conflict_set();
    for (size_t i = 0; i < changes.size(); ++i) {
      Stopwatch sw;
      matcher.ApplyChange(changes[i]);
      out.match_us.Add(sw.ElapsedNanos() * 1e-3);
      out.conflict_set_peak = std::max(out.conflict_set_peak, set.size());
      if (i % 8 == 0) {
        Stopwatch select;
        dbps::InstPtr inst =
            set.Claim(dbps::ConflictResolution::kPriority, &rng);
        if (inst != nullptr) set.Unclaim(inst->key());
        out.select_us.Add(select.ElapsedNanos() * 1e-3);
      }
    }
    out.match_s = total.ElapsedSeconds();
  }
  if (checkpoint != nullptr) {
    // The newest checkpoint alone, as a one-record WAL: its restore time
    // is the checkpoint parse + rebuild that dominates checkpointed
    // recovery.
    const std::string one = work_dir + "/checkpoint_only.wal";
    std::string bytes;
    dbps::EncodeWalRecord(*checkpoint, &bytes);
    std::ofstream(one, std::ios::binary | std::ios::trunc) << bytes;
    auto fresh = initial.CloneSchemaOnly();
    ScopedSpan span(tracer, "lang.checkpoint_restore", "lang", parent);
    Stopwatch sw;
    auto stats = dbps::RecoveryManager(one).Recover(fresh.get());
    out.checkpoint_restore_ms = sw.ElapsedSeconds() * 1e3;
    span.End();
    std::remove(one.c_str());
    if (!stats.ok()) return stats.status();
  }
  return out;
}

}  // namespace perfbench
