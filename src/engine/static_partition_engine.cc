#include "engine/static_partition_engine.h"

#include <atomic>
#include <mutex>

#include "analysis/partitioner.h"
#include "engine/busy_work.h"
#include "rules/rhs_evaluator.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace dbps {

StaticPartitionEngine::StaticPartitionEngine(WorkingMemory* wm,
                                             RuleSetPtr rules,
                                             StaticPartitionOptions options)
    : wm_(wm), rules_(std::move(rules)), options_(options) {
  DBPS_CHECK(wm_ != nullptr);
  DBPS_CHECK(rules_ != nullptr);
  DBPS_CHECK_GT(options_.num_workers, 0u);
}

StatusOr<RunResult> StaticPartitionEngine::Run() {
  auto matcher = CreateMatcher(options_.base.matcher);
  DBPS_RETURN_NOT_OK(matcher->Initialize(rules_, *wm_));

  Random rng(options_.base.seed);
  ThreadPool pool(options_.num_workers);
  EngineStats stats;
  std::vector<FiringRecord> log;
  Stopwatch stopwatch;
  bool halted = false;
  Status failure;

  while (!halted && failure.ok() &&
         stats.firings < options_.base.max_firings) {
    // -- match/select: rank the conflict set in strategy order. --
    std::vector<InstPtr> candidates =
        matcher->conflict_set().SelectableSnapshot();
    if (candidates.empty()) break;

    std::vector<InstPtr> ordered;
    ordered.reserve(candidates.size());
    {
      std::vector<Candidate> pool_candidates;
      for (size_t i = 0; i < candidates.size(); ++i) {
        pool_candidates.push_back(Candidate{&candidates[i], i});
      }
      while (!pool_candidates.empty()) {
        const InstPtr* best =
            SelectDominant(pool_candidates, options_.base.strategy, &rng);
        ordered.push_back(*best);
        for (auto it = pool_candidates.begin(); it != pool_candidates.end();
             ++it) {
          if (it->inst == best) {
            pool_candidates.erase(it);
            break;
          }
        }
      }
    }

    // -- pre-execution analysis: maximal non-interfering subset. --
    std::vector<size_t> selected = SelectNonInterfering(ordered);
    // Cap at max_firings so the safety net is exact.
    const uint64_t room = options_.base.max_firings - stats.firings;
    if (selected.size() > room) selected.resize(room);
    DBPS_CHECK(!selected.empty());

    // -- execute phase, concurrently: pure RHS evaluation + cost. --
    struct FiringOutcome {
      InstPtr inst;
      StatusOr<Delta> delta{Status::Internal("not evaluated")};
    };
    std::vector<FiringOutcome> outcomes(selected.size());
    for (size_t i = 0; i < selected.size(); ++i) {
      outcomes[i].inst = ordered[selected[i]];
      FiringOutcome* outcome = &outcomes[i];
      bool cost = options_.base.simulate_cost;
      CostModel cost_model = options_.base.cost_model;
      pool.Submit([outcome, cost, cost_model] {
        outcome->delta =
            EvaluateRhs(*outcome->inst->rule(), outcome->inst->matched());
        if (cost && outcome->inst->rule()->cost_us() > 0) {
          SimulateCost(outcome->inst->rule()->cost_us(), cost_model);
        }
      });
    }
    pool.WaitIdle();

    // -- commit: apply the non-interfering deltas back-to-back. --
    for (auto& outcome : outcomes) {
      matcher->conflict_set().MarkFired(outcome.inst->key());
      if (!outcome.delta.ok()) {
        DBPS_LOG(Warning) << "rule '" << outcome.inst->rule()->name()
                          << "' RHS failed: "
                          << outcome.delta.status().ToString();
        ++stats.rhs_errors;
        continue;
      }
      const Delta& delta = outcome.delta.ValueOrDie();
      auto change_or = wm_->Apply(delta);
      if (!change_or.ok()) {
        failure = change_or.status();
        break;
      }
      const WmChange& change = change_or.ValueOrDie();
      matcher->ApplyChange(change);
      TxnAudit audit;
      audit.present = true;
      audit.csn = change.csn;
      audit.read_csn = change.csn;
      audit.reads = outcome.inst->key().wmes;
      audit.writes.reserve(change.added.size());
      for (const WmePtr& added : change.added) {
        audit.writes.emplace_back(added->id(), added->tag());
      }
      if (options_.base.record_log) {
        log.push_back(FiringRecord{stats.firings, outcome.inst->key(), delta,
                                   audit});
      }
      if (options_.base.observer) {
        EngineEvent event{EngineEvent::Kind::kCommit, &outcome.inst->key(),
                          &delta, stats.firings};
        event.audit = &audit;
        options_.base.observer(event);
        options_.base.observer(EngineEvent{EngineEvent::Kind::kBatchEnd,
                                           nullptr, nullptr,
                                           stats.firings + 1});
      }
      ++stats.firings;
      if (delta.halt()) {
        halted = true;
        stats.halted = true;
      }
    }
    ++stats.cycles;
  }

  if (stats.firings >= options_.base.max_firings &&
      matcher->conflict_set().HasSelectable()) {
    stats.hit_max_firings = true;
  }
  stats.elapsed_seconds = stopwatch.ElapsedSeconds();
  if (options_.base.observer) {
    options_.base.observer(EngineEvent{EngineEvent::Kind::kRunEnd, nullptr,
                                       nullptr, stats.firings});
  }
  DBPS_RETURN_NOT_OK(failure);
  return RunResult{stats, std::move(log)};
}

}  // namespace dbps
