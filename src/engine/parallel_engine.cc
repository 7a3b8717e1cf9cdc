#include "engine/parallel_engine.h"

#include <algorithm>
#include <vector>

#include <exception>

#include "analysis/access_sets.h"
#include "analysis/lock_sets.h"
#include "engine/busy_work.h"
#include "match/partitioned_matcher.h"
#include "rules/rhs_evaluator.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace dbps {

const char* AbortPolicyToString(AbortPolicy policy) {
  switch (policy) {
    case AbortPolicy::kAbort:
      return "abort";
    case AbortPolicy::kRevalidate:
      return "revalidate";
  }
  return "?";
}

bool ParallelEngine::CommitSequencer::CanFold(
    const std::vector<PendingCommit*>& batch, const PendingCommit& next) {
  if (next.cancelled) return true;  // a no-op folds with anything
  for (const PendingCommit* member : batch) {
    if (member->cancelled) continue;
    if (WriteSetsOverlap(member->write_set, next.write_set)) return false;
    // No victimization across the batch: a member that would abort (or
    // be aborted by) another member must execute in its own turn, after
    // the earlier member's settlement actually ran.
    if (std::find(member->victims.begin(), member->victims.end(),
                  next.txn) != member->victims.end()) {
      return false;
    }
    if (std::find(next.victims.begin(), next.victims.end(), member->txn) !=
        next.victims.end()) {
      return false;
    }
  }
  return true;
}

std::vector<ParallelEngine::PendingCommit*>
ParallelEngine::CommitSequencer::AwaitTurn(uint64_t ticket,
                                           PendingCommit* pending,
                                           size_t max_batch,
                                           uint64_t* stall_ns) {
  Stopwatch stall;
  std::unique_lock<std::mutex> lock(mu_);
  submitted_.emplace(ticket, pending);
  cv_.wait(lock, [&] { return pending->executed || turn_ == ticket; });
  *stall_ns = static_cast<uint64_t>(stall.ElapsedNanos());
  if (pending->executed) return {};
  // This committer is the head: gather the batch. Only tickets already
  // submitted at this instant ride along — later arrivals form the next
  // batch (the turn cannot advance past them unexecuted).
  std::vector<PendingCommit*> batch;
  batch.push_back(pending);
  submitted_.erase(ticket);
  for (uint64_t next = ticket + 1; batch.size() < max_batch; ++next) {
    auto it = submitted_.find(next);
    if (it == submitted_.end() || !CanFold(batch, *it->second)) break;
    batch.push_back(it->second);
    submitted_.erase(it);
  }
  return batch;
}

void ParallelEngine::CommitSequencer::FinishBatch(
    uint64_t ticket, const std::vector<PendingCommit*>& batch) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    turn_ = ticket + batch.size();
    // Publishing under mu_ is the happens-before edge for the result
    // fields the head wrote while executing.
    for (PendingCommit* member : batch) member->executed = true;
  }
  cv_.notify_all();
}

void ParallelEngine::SequencedCommit::Commit(PendingCommit* pending) {
  DBPS_DCHECK(!submitted_);
  submitted_ = true;
  uint64_t stall_ns = 0;
  std::vector<PendingCommit*> batch = engine_->sequencer_.AwaitTurn(
      ticket_, pending, engine_->effective_batch_limit_, &stall_ns);
  engine_->sequencer_stall_ns_.fetch_add(stall_ns,
                                         std::memory_order_relaxed);
  if (batch.empty()) return;  // a prior head executed this commit
  // The head must advance the turn no matter what execution does, or the
  // pipeline stalls behind this ticket forever.
  try {
    engine_->ExecuteBatch(batch);
  } catch (...) {
    engine_->sequencer_.FinishBatch(ticket_, batch);
    throw;
  }
  engine_->sequencer_.FinishBatch(ticket_, batch);
}

void ParallelEngine::ExecuteBatch(const std::vector<PendingCommit*>& batch) {
  // Apply deltas in ticket order, skipping cancelled members and members
  // an earlier ticket (outside this batch — members never victimize each
  // other, by CanFold) already aborted.
  std::vector<WmChange> changes;
  changes.reserve(batch.size());
  std::vector<PendingCommit*> live;
  live.reserve(batch.size());
  for (PendingCommit* member : batch) {
    if (member->cancelled) continue;
    if (lock_manager_->IsAborted(member->txn)) continue;
    // Chaos site: one member "crashes" inside the batch before its delta
    // applies — it must abort and retry while its batch-mates commit, and
    // nothing of it may reach the log.
    if (DBPS_FAILPOINT("engine.commit.crash_in_batch")) continue;
    auto change_or = wm_->Apply(*member->delta);
    if (!change_or.ok()) {
      if (member->is_client) {
        // Reachable in normal operation: the client may have buffered a
        // write against a tuple a rule deleted before the client locked
        // it. Nothing applied; the submitter aborts the transaction.
        member->apply_status = change_or.status();
        continue;
      }
      // Cannot happen for a rule firing while the locking protocol is
      // sound; surface it loudly in debug builds, degrade to an abort.
      DBPS_LOG(Error) << "commit failed applying delta: "
                      << change_or.status().ToString();
      DBPS_DCHECK(false);
      continue;
    }
    if (!member->is_client) matcher_->conflict_set().MarkFired(*member->key);
    changes.push_back(std::move(change_or).ValueOrDie());
    live.push_back(member);
  }

  // One matcher propagation pass for the whole batch — the amortization
  // this sequencer exists for. Sound because CanFold admitted only
  // pairwise-disjoint write sets (no change removes a version a sibling
  // adds).
  if (!changes.empty()) matcher_->ApplyChanges(changes);

  // Settle each member's Rc–Wa victims in ticket order. Under
  // kRevalidate the sparing snapshot is pinned after the WHOLE batch
  // applied rather than after each member: revalidation can only see
  // *more* invalidation, so every spared firing would also have been
  // spared per-commit, and every extra abort is admissible under the
  // paper's rule (ii).
  std::vector<size_t> victim_counts;
  victim_counts.reserve(live.size());
  for (PendingCommit* member : live) {
    victim_counts.push_back(SettleVictims(member->txn, member->victims));
  }

  // Emit the log in ticket order — exactly the records and sequence
  // numbers a batch-of-one pipeline would have produced.
  bool emitted = false;
  for (size_t i = 0; i < live.size(); ++i) {
    PendingCommit* member = live[i];
    member->seq = commit_seq_;
    // An empty client write set commits (its repeatable reads were
    // valid) but leaves no trace in the log or journal.
    if (!member->is_client || !member->delta->empty()) {
      // Audit evidence for the offline consistency auditor: the exact
      // versions this transaction read and produced, its CSN, and the
      // victimization ledger (only LOGGED commits feed the ledger, so
      // the (v)/(vt) chain in the journal is self-consistent).
      victims_total_ += victim_counts[i];
      TxnAudit audit;
      // Evidence sampling (audit_every > 1): only every Nth commit seq
      // carries the full `;a(...)` clause; the rest are order-only
      // evidence. The victim ledger still accumulates across unaudited
      // commits, so the next audited record's running total covers the
      // gap (the auditor stitches it).
      audit.present = options_.audit_every <= 1 ||
                      commit_seq_ % options_.audit_every == 0;
      if (audit.present) {
        audit.csn = changes[i].csn;
        if (member->is_client) {
          audit.read_csn = changes[i].csn;
          if (member->reads != nullptr) {
            audit.snapshot_reads = member->reads->snapshot;
            audit.reads = member->reads->reads;
            // Snapshot reads were valid at the pinned CSN, not at commit.
            if (member->reads->snapshot) {
              audit.read_csn = member->reads->read_csn;
            }
          }
        } else {
          // A rule firing read the versions it matched, lock-protected
          // (or revalidated) up to this commit.
          audit.read_csn = changes[i].csn;
          audit.reads = member->key->wmes;
        }
        audit.writes.reserve(changes[i].added.size());
        for (const WmePtr& added : changes[i].added) {
          audit.writes.emplace_back(added->id(), added->tag());
        }
        audit.victims = victim_counts[i];
        audit.victims_total = victims_total_;
      }
      if (options_.base.record_log) {
        log_.push_back(FiringRecord{commit_seq_, *member->key,
                                    *member->delta, audit});
      }
      ++commit_seq_;
      if (options_.base.observer) {
        EngineEvent event{EngineEvent::Kind::kCommit, member->key,
                          member->delta, member->seq};
        event.audit = &audit;
        options_.base.observer(event);
        emitted = true;
      }
    }
    member->committed = true;
  }
  // Batch boundary: group-commit sinks hand every kCommit above to their
  // flusher here. FinishBatch releases the member commits right after;
  // client acks wait for durability on their own (Session::Commit).
  if (emitted) {
    options_.base.observer(EngineEvent{EngineEvent::Kind::kBatchEnd, nullptr,
                                       nullptr, commit_seq_});
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.commit_batches;
    if (live.size() > 1) stats_.batched_commits += live.size();
    const size_t bucket =
        std::min(live.size(), stats_.batch_size_histogram.size() - 1);
    ++stats_.batch_size_histogram[bucket];
  }
}

ParallelEngine::ParallelEngine(WorkingMemory* wm, RuleSetPtr rules,
                               ParallelEngineOptions options)
    : wm_(wm),
      rules_(std::move(rules)),
      options_(options),
      effective_batch_limit_(
          std::max<size_t>(1, options_.commit_batch_limit)) {
  commit_seq_ = options_.start_seq;
  DBPS_CHECK(wm_ != nullptr);
  DBPS_CHECK(rules_ != nullptr);
  DBPS_CHECK_GT(options_.num_workers, 0u);
}

StatusOr<RunResult> ParallelEngine::Run() {
  if (options_.num_match_partitions > 1 &&
      options_.base.matcher != MatcherKind::kNaive) {
    // Partitioned match phase; kNaive stays serial (the oracle
    // rematches against live WM and cannot be partitioned).
    PartitionedMatcher::Options match_options;
    match_options.num_partitions = options_.num_match_partitions;
    match_options.inner = options_.base.matcher;
    match_options.shadow_check = options_.match_shadow_check;
    match_options.split_hot = options_.match_split;
    match_options.split_ways = options_.match_split_ways;
    match_options.split_streak = options_.match_split_streak;
    match_options.split_share = options_.match_split_share;
    auto partitioned = std::make_unique<PartitionedMatcher>(match_options);
    partitioned_matcher_ = partitioned.get();
    matcher_ = std::move(partitioned);
  } else {
    matcher_ = CreateMatcher(options_.base.matcher);
  }
  DBPS_RETURN_NOT_OK(matcher_->Initialize(rules_, *wm_));

  LockManager::Options lock_options;
  lock_options.protocol = options_.protocol;
  lock_options.deadlock_policy = options_.deadlock_policy;
  lock_options.wait_timeout = options_.lock_timeout;
  lock_manager_ = std::make_unique<LockManager>(lock_options);
  // The release store publishes matcher_/lock_manager_ to client threads
  // observing accepting_external().
  accepting_.store(true, std::memory_order_release);

  const uint64_t faults_before =
      FailpointRegistry::Instance().total_fires();

  Stopwatch stopwatch;
  std::vector<std::thread> workers;
  workers.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers.emplace_back([this, i] { WorkerLoop(i); });
  }
  for (auto& worker : workers) worker.join();
  accepting_.store(false, std::memory_order_release);

  // Client threads may still be inside CommitExternal/AbortExternal;
  // drain them before composing the result (the log and commit_seq_ are
  // only stable once the pipeline is empty).
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return ext_inflight_ == 0; });
  if (options_.base.observer) {
    // done_ is set, so no commit can start any more; a durability sink
    // may block here until the run's last group is durable.
    lock.unlock();
    options_.base.observer(EngineEvent{EngineEvent::Kind::kRunEnd, nullptr,
                                       nullptr, commit_seq_});
    lock.lock();
  }
  stats_.elapsed_seconds = stopwatch.ElapsedSeconds();
  stats_.peak_parallel_executions = peak_executing_.load();
  stats_.backoff_micros = backoff_micros_.load();
  stats_.commit_tickets = sequencer_.tickets_issued();
  stats_.sequencer_stall_micros =
      sequencer_stall_ns_.load(std::memory_order_relaxed) / 1000;
  // (DisableAll resets the cumulative counter; saturate instead of
  // underflowing if that happened mid-run.)
  const uint64_t faults_now = FailpointRegistry::Instance().total_fires();
  stats_.injected_faults =
      faults_now >= faults_before ? faults_now - faults_before : faults_now;
  lock_stats_ = lock_manager_->GetStats();
  if (partitioned_matcher_ != nullptr) {
    const PartitionedMatcher::Stats match_stats =
        partitioned_matcher_->GetStats();
    stats_.match_batches = match_stats.batches;
    stats_.match_morsels = match_stats.morsels;
    stats_.match_handoffs = match_stats.handoffs;
    stats_.match_propagate_micros = match_stats.propagate_wall_ns / 1000;
    stats_.match_merge_micros = match_stats.merge_ns / 1000;
    stats_.match_splits = match_stats.splits;
    for (size_t i = 0; i < match_stats.skew_histogram.size(); ++i) {
      stats_.match_skew_histogram[i] = match_stats.skew_histogram[i];
    }
    stats_.match_partitions.clear();
    stats_.match_partitions.reserve(match_stats.partitions.size());
    for (const PartitionedMatcher::PartitionCounters& part :
         match_stats.partitions) {
      stats_.match_partitions.push_back(
          MatchPartitionCounters{part.rules, part.morsels, part.wmes_routed,
                                 part.handoffs, part.propagate_ns,
                                 part.subs});
    }
    // A shadow-check divergence means the parallel matcher broke the
    // serial-equivalence contract: fail the whole run, loudly.
    DBPS_RETURN_NOT_OK(partitioned_matcher_->shadow_status());
  }
  return RunResult{stats_, log_};
}

void ParallelEngine::WorkerLoop(size_t worker_index) {
  Random rng(options_.base.seed + 0x9e37 * (worker_index + 1));
  for (;;) {
    InstPtr inst;
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        if (done_) return;
        // In-flight firings count against the cap: each may still
        // commit, so claiming past firings + in_flight_ could overshoot.
        const bool may_claim =
            !halted_ &&
            stats_.firings + in_flight_ < options_.base.max_firings;
        if (may_claim) {
          inst = matcher_->conflict_set().Claim(options_.base.strategy, &rng);
          if (inst != nullptr) {
            ++in_flight_;
            break;
          }
        }
        if (in_flight_ == 0) {
          // Nothing running, nothing claimable. With an external source
          // attached and still undrained — or a client commit already in
          // the pipeline — the run is not over: the commit may activate
          // new instantiations. Sleep instead of exiting.
          const bool external_pending =
              may_claim &&
              ((options_.external_source != nullptr &&
                !options_.external_source->Drained()) ||
               ext_inflight_ > 0);
          if (!external_pending) {
            if (!may_claim && stats_.firings >= options_.base.max_firings &&
                matcher_->conflict_set().HasSelectable()) {
              stats_.hit_max_firings = true;
            }
            done_ = true;
            accepting_.store(false, std::memory_order_release);
            cv_.notify_all();
            return;
          }
        }
        cv_.wait(lock);
      }
    }
    // An aborted firing reports its instantiation's consecutive-abort
    // streak; back off exponentially in it (capped, jittered) so Rc
    // victimization and lock-upgrade collisions (classic under 2PL, §4.2)
    // do not degenerate into abort/retry storms. Exceptions — injected
    // worker failures or real bugs — are contained here: the firing's
    // guard has already rolled the transaction back.
    int streak = 0;
    try {
      streak = ProcessFiring(inst, &rng);
    } catch (const std::exception& e) {
      DBPS_LOG(Warning) << "worker " << worker_index
                        << " exception in firing: " << e.what();
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.worker_exceptions;
      streak = 1;
    }
    if (streak > 0) {
      const int shift = std::min(streak, 8);
      int64_t backoff_us =
          std::min(options_.retry_backoff_base.count() << shift,
                   options_.retry_backoff_max.count()) +
          static_cast<int64_t>(rng.Uniform(100));
      SleepMicros(backoff_us);
      backoff_micros_.fetch_add(static_cast<uint64_t>(backoff_us),
                                std::memory_order_relaxed);
    }
  }
}

int ParallelEngine::FinishAborted(TxnId txn, const InstKey& key,
                                  bool deadlock) {
  if (options_.base.observer) {
    options_.base.observer(
        EngineEvent{EngineEvent::Kind::kAbort, &key});
  }
  lock_manager_->Release(txn);
  int streak;
  {
    std::lock_guard<std::mutex> lock(mu_);
    txn_keys_.erase(txn);
    ++stats_.aborts;
    if (deadlock) ++stats_.deadlocks;
    streak = ++abort_streaks_[key];
    stats_.max_abort_streak =
        std::max(stats_.max_abort_streak, static_cast<uint64_t>(streak));
    // Unclaim only after the streak is counted: a worker that claims the
    // key next must see this abort, or it may skip the escalation this
    // streak earned.
    matcher_->conflict_set().Unclaim(key);
    --in_flight_;
  }
  cv_.notify_all();
  return streak;
}

void ParallelEngine::FinishStale(TxnId txn, const InstKey& key) {
  if (options_.base.observer) {
    options_.base.observer(
        EngineEvent{EngineEvent::Kind::kStale, &key});
  }
  lock_manager_->Release(txn);
  matcher_->conflict_set().Unclaim(key);
  {
    std::lock_guard<std::mutex> lock(mu_);
    txn_keys_.erase(txn);
    ++stats_.stale_skips;
    abort_streaks_.erase(key);
    --in_flight_;
  }
  cv_.notify_all();
}

void ParallelEngine::FinishRetired(TxnId txn, const InstKey& key) {
  lock_manager_->Release(txn);
  matcher_->conflict_set().MarkFired(key);  // never try this match again
  {
    std::lock_guard<std::mutex> lock(mu_);
    txn_keys_.erase(txn);
    ++stats_.rhs_errors;
    abort_streaks_.erase(key);
    --in_flight_;
  }
  cv_.notify_all();
}

int ParallelEngine::ProcessFiring(const InstPtr& inst, Random* rng) {
  (void)rng;
  const InstKey& key = inst->key();
  TxnId txn = lock_manager_->Begin();
  bool escalate = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    txn_keys_.emplace(txn, key);
    auto streak_it = abort_streaks_.find(key);
    if (streak_it != abort_streaks_.end() && streak_it->second > 0) {
      ++stats_.firing_retries;
      // Starvation guarantee: a firing victimized this often runs its
      // next attempt with blocking (2PL-style) acquisition, so
      // committing writers wait behind its Rc instead of aborting it.
      escalate = options_.protocol == LockProtocol::kRcRaWa &&
                 options_.escalate_after_aborts > 0 &&
                 streak_it->second >= options_.escalate_after_aborts;
      if (escalate) ++stats_.escalations;
    }
  }
  if (escalate) lock_manager_->SetBlocking(txn);

  // From here on every exit — including exceptions and injected crashes —
  // must roll the transaction back; the guard enforces it.
  FiringGuard guard(this, txn, key);

  // Phase 1: condition locks (Rc), possibly escalated.
  for (const LockRequest& request : EscalateConditionLocks(
           ConditionLocks(*inst), options_.rc_escalation_threshold)) {
    Status st = lock_manager_->Acquire(txn, request.object, request.mode);
    if (!st.ok()) {
      guard.Dismiss();
      return FinishAborted(txn, key, st.IsDeadlock());
    }
  }

  // Phase 2: validate the claim still holds. A commit that beat our Rc
  // acquisition may have deactivated the instantiation. (The conflict set
  // is internally synchronized; no engine lock needed.)
  if (!matcher_->conflict_set().Contains(key)) {
    guard.Dismiss();
    FinishStale(txn, key);
    return 0;
  }

  // Chaos site: a worker dying mid-firing (exception). The guard rolls
  // the transaction back and WorkerLoop contains it — the RAII shape this
  // site exists to regression-test.
  if (DBPS_FAILPOINT("engine.firing.throw")) {
    throw std::runtime_error("injected worker failure in firing of '" +
                             inst->rule()->name() + "'");
  }

  {
    // Phase 3: evaluate the RHS (pure — reads only the immutable matched
    // WME versions) and acquire the action locks (Ra/Wa).
    auto delta_or = EvaluateRhs(*inst->rule(), inst->matched());
    if (DBPS_FAILPOINT("engine.firing.rhs_error")) {
      delta_or = Status::Internal("injected RHS evaluation error");
    }
    if (!delta_or.ok()) {
      DBPS_LOG(Warning) << "rule '" << inst->rule()->name()
                        << "' RHS failed: " << delta_or.status().ToString();
      guard.Dismiss();
      FinishRetired(txn, key);
      return 0;
    }
    Delta delta = std::move(delta_or).ValueOrDie();

    for (const LockRequest& request : ActionLocks(*inst, txn)) {
      Status st = lock_manager_->Acquire(txn, request.object, request.mode);
      if (!st.ok()) {
        guard.Dismiss();
        return FinishAborted(txn, key, st.IsDeadlock());
      }
    }

    // Phase 4: the production's execution time.
    {
      int now_executing = executing_.fetch_add(1) + 1;
      int old_peak = peak_executing_.load();
      while (now_executing > old_peak &&
             !peak_executing_.compare_exchange_weak(old_peak,
                                                    now_executing)) {
      }
    }
    if (options_.base.simulate_cost && inst->rule()->cost_us() > 0) {
      SimulateCost(inst->rule()->cost_us(), options_.base.cost_model);
    }
    // Chaos site: a worker stalling mid-firing (sleep-safe: no lock
    // held), widening the window in which committers victimize us.
    (void)DBPS_FAILPOINT("engine.firing.stall");
    executing_.fetch_sub(1);

    // Chaos site: forced Rc victimization — as if a conflicting commit
    // settled against this firing while it executed.
    if (DBPS_FAILPOINT("engine.firing.victimize")) {
      lock_manager_->MarkAborted(txn);
    }

    // Phase 5: commit through the sequencer. The aborted check and the
    // last-instant crash site run before a ticket exists, so those paths
    // never occupy a pipeline slot.
    if (lock_manager_->IsAborted(txn)) {
      guard.Dismiss();
      return FinishAborted(txn, key, /*deadlock=*/false);
    }
    // Chaos site: the worker crashes at the last instant before the
    // delta applies — the whole firing must roll back cleanly.
    if (DBPS_FAILPOINT("engine.firing.crash_before_apply")) {
      guard.Dismiss();
      return FinishAborted(txn, key, /*deadlock=*/false);
    }
    PendingCommit pending;
    pending.txn = txn;
    pending.key = &key;
    pending.delta = &delta;
    {
      // Take a ticket, then overlap the per-shard Rc–Wa victim sweep and
      // the write-set extraction with earlier commits still applying. The
      // sweep is stable outside any global section: this transaction
      // holds its Wa locks, so no new conflicting Rc can be granted until
      // Release.
      SequencedCommit commit(this);
      pending.victims = lock_manager_->CollectRcVictims(txn);
      pending.write_set = DeltaWriteSet(delta);
      // Chaos/test site: widen the batching window (sleep-safe, no locks
      // held) so successors pile up behind the current head.
      (void)DBPS_FAILPOINT("engine.commit.batch_window");
      commit.Commit(&pending);
    }
    // The head executed this commit (possibly as part of a batch). It
    // re-checked aborted in ticket order: an earlier ticket may have
    // settled against us while we waited.
    if (!pending.committed) {
      guard.Dismiss();
      return FinishAborted(txn, key, /*deadlock=*/false);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.firings;
      if (delta.halt()) {
        halted_ = true;
        stats_.halted = true;
      }
      txn_keys_.erase(txn);
      abort_streaks_.erase(key);
      --in_flight_;
      guard.Dismiss();
    }
    lock_manager_->Release(txn);
    cv_.notify_all();
  }
  return 0;
}

size_t ParallelEngine::SettleVictims(TxnId committer,
                                     const std::vector<TxnId>& victims) {
  if (victims.empty()) return 0;
  // Pin the post-commit state once; every revalidation reads this CSN.
  WmSnapshot snap;
  if (options_.abort_policy == AbortPolicy::kRevalidate) {
    snap = wm_->SnapshotAt();
  }
  size_t aborted = 0;
  for (TxnId victim : victims) {
    if (victim == committer) continue;
    bool is_firing = false;
    InstKey key;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = txn_keys_.find(victim);
      if (it != txn_keys_.end()) {
        is_firing = true;
        key = it->second;
      }
    }
    if (!is_firing) {
      // An external transaction (or one already finished — MarkAborted of
      // a released txn is a no-op): there is no instantiation to
      // revalidate — its repeatable read is stale either way — so the
      // paper's rule (ii) applies under both policies.
      lock_manager_->MarkAborted(victim);
      ++aborted;
      continue;
    }
    if (options_.abort_policy == AbortPolicy::kAbort) {
      lock_manager_->MarkAborted(victim);
      ++aborted;
      continue;
    }
    // kRevalidate: spare the firing iff this commit left its match intact
    // — instantiation still active and every matched WME version still
    // current at the pinned snapshot.
    bool intact = matcher_->conflict_set().Contains(key);
    for (size_t i = 0; intact && i < key.wmes.size(); ++i) {
      intact = snap.IsCurrent(key.wmes[i].first, key.wmes[i].second);
    }
    if (!intact) {
      lock_manager_->MarkAborted(victim);
      ++aborted;
    }
  }
  return aborted;
}

bool ParallelEngine::WaitUntilAccepting(
    std::chrono::milliseconds timeout) const {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!accepting_.load(std::memory_order_acquire)) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

StatusOr<TxnId> ParallelEngine::BeginExternal() {
  if (!accepting_external()) {
    return Status::Unavailable("engine is not serving");
  }
  return lock_manager_->Begin();
}

Status ParallelEngine::AcquireExternal(TxnId txn, const LockObjectId& object,
                                       LockMode mode) {
  if (!accepting_external()) {
    return Status::Unavailable("engine is not serving");
  }
  return lock_manager_->Acquire(txn, object, mode);
}

bool ParallelEngine::IsExternalAborted(TxnId txn) const {
  return lock_manager_ != nullptr && lock_manager_->IsAborted(txn);
}

StatusOr<uint64_t> ParallelEngine::CommitExternal(TxnId txn,
                                                  const InstKey& key,
                                                  const Delta& delta,
                                                  const TxnReadSet* reads) {
  DBPS_CHECK(IsClientFiring(key));
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (done_) return Status::Unavailable("engine has stopped");
    // Once counted in-flight, workers keep the run alive (and done_
    // stays false) until this commit finishes.
    ++ext_inflight_;
  }
  // Decrement + wake sleeping workers on every exit: a commit may have
  // activated instantiations, and the termination check waits on us.
  struct ExtGuard {
    ParallelEngine* engine;
    ~ExtGuard() {
      {
        std::lock_guard<std::mutex> lock(engine->mu_);
        --engine->ext_inflight_;
      }
      engine->cv_.notify_all();
    }
  } ext_guard{this};

  if (lock_manager_->IsAborted(txn)) {
    return Status::Aborted("aborted by a conflicting commit");
  }
  // Chaos site: commit fails at the last instant. Surfaced as kAborted
  // so sessions treat it as transient and retry; no state has changed.
  if (DBPS_FAILPOINT("server.commit.fail")) {
    return Status::Aborted("injected commit failure");
  }

  PendingCommit pending;
  pending.txn = txn;
  pending.key = &key;
  pending.delta = &delta;
  pending.reads = reads;
  pending.is_client = true;
  {
    // A client writer's commit rides the same batching sequencer as a
    // rule firing: its victims (Rc-holding rule firings and other client
    // readers — §4.3) settle in its ticket's turn, and its record lands
    // at its ticket position in the log.
    SequencedCommit commit(this);
    pending.victims = lock_manager_->CollectRcVictims(txn);
    pending.write_set = DeltaWriteSet(delta);
    (void)DBPS_FAILPOINT("engine.commit.batch_window");
    commit.Commit(&pending);
  }
  if (!pending.committed) {
    if (!pending.apply_status.ok()) return pending.apply_status;
    return Status::Aborted("aborted by a conflicting commit");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.client_commits;
    if (delta.halt()) {
      halted_ = true;
      stats_.halted = true;
    }
  }
  lock_manager_->Release(txn);
  return pending.seq;
}

void ParallelEngine::AbortExternal(TxnId txn) {
  if (lock_manager_ == nullptr) return;
  lock_manager_->Release(txn);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.client_aborts;
  }
  cv_.notify_all();
}

void ParallelEngine::NotifyExternalActivity() { cv_.notify_all(); }

}  // namespace dbps
