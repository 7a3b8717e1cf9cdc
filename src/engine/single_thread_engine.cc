#include "engine/single_thread_engine.h"

#include "engine/busy_work.h"
#include "rules/rhs_evaluator.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace dbps {

SingleThreadEngine::SingleThreadEngine(WorkingMemory* wm, RuleSetPtr rules,
                                       EngineOptions options)
    : wm_(wm),
      rules_(std::move(rules)),
      options_(options),
      rng_(options.seed) {
  DBPS_CHECK(wm_ != nullptr);
  DBPS_CHECK(rules_ != nullptr);
}

Status SingleThreadEngine::Init() {
  DBPS_CHECK(!initialized_) << "Init called twice";
  matcher_ = CreateMatcher(options_.matcher);
  DBPS_RETURN_NOT_OK(matcher_->Initialize(rules_, *wm_));
  initialized_ = true;
  return Status::OK();
}

StatusOr<bool> SingleThreadEngine::Step() {
  DBPS_CHECK(initialized_) << "Step before Init";
  if (halted_) return false;
  if (stats_.firings >= options_.max_firings) {
    stats_.hit_max_firings = true;
    return false;
  }

  // select.
  InstPtr inst = matcher_->conflict_set().Claim(options_.strategy, &rng_);
  if (inst == nullptr) return false;

  // execute: evaluate the RHS into a delta.
  auto delta_or = EvaluateRhs(*inst->rule(), inst->matched());
  if (!delta_or.ok()) {
    // A failed RHS (e.g. division by zero) skips the firing; the
    // instantiation is retired so the engine cannot loop on it.
    DBPS_LOG(Warning) << "rule '" << inst->rule()->name()
                      << "' RHS failed: " << delta_or.status().ToString();
    ++stats_.rhs_errors;
    matcher_->conflict_set().MarkFired(inst->key());
    return true;
  }
  Delta delta = std::move(delta_or).ValueOrDie();

  if (options_.simulate_cost && inst->rule()->cost_us() > 0) {
    SimulateCost(inst->rule()->cost_us(), options_.cost_model);
  }

  // commit: apply atomically, then match.
  matcher_->conflict_set().MarkFired(inst->key());
  auto change_or = wm_->Apply(delta);
  if (!change_or.ok()) return change_or.status();
  const WmChange& change = change_or.ValueOrDie();
  matcher_->ApplyChange(change);

  // Audit evidence: a serial firing reads exactly its matched versions at
  // the commit point; no victimization exists here.
  TxnAudit audit;
  audit.present = true;
  audit.csn = change.csn;
  audit.read_csn = change.csn;
  audit.reads = inst->key().wmes;
  audit.writes.reserve(change.added.size());
  for (const WmePtr& added : change.added) {
    audit.writes.emplace_back(added->id(), added->tag());
  }

  if (options_.record_log) {
    log_.push_back(FiringRecord{stats_.firings, inst->key(), delta, audit});
  }
  if (options_.observer) {
    InstKey key = inst->key();
    EngineEvent event{EngineEvent::Kind::kCommit, &key, &delta,
                      stats_.firings};
    event.audit = &audit;
    options_.observer(event);
    options_.observer(EngineEvent{EngineEvent::Kind::kBatchEnd, nullptr,
                                  nullptr, stats_.firings + 1});
  }
  ++stats_.firings;
  ++stats_.cycles;
  if (delta.halt()) {
    halted_ = true;
    stats_.halted = true;
  }
  return true;
}

StatusOr<RunResult> SingleThreadEngine::Run() {
  if (!initialized_) DBPS_RETURN_NOT_OK(Init());
  Stopwatch stopwatch;
  StatusOr<bool> fired = true;
  while (fired.ok() && fired.ValueOrDie()) fired = Step();
  stats_.elapsed_seconds = stopwatch.ElapsedSeconds();
  if (options_.observer) {
    options_.observer(EngineEvent{EngineEvent::Kind::kRunEnd, nullptr,
                                  nullptr, stats_.firings});
  }
  DBPS_RETURN_NOT_OK(fired.status());
  return RunResult{stats_, log_};
}

}  // namespace dbps
