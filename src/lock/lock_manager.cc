#include "lock/lock_manager.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "util/failpoint.h"
#include "util/logging.h"

namespace dbps {

std::string LockEvent::ToString() const {
  std::ostringstream out;
  switch (kind) {
    case Kind::kGrant:
      out << "grant   T" << txn << " " << LockModeToString(mode) << "("
          << object.ToString() << ")";
      break;
    case Kind::kBlock:
      out << "block   T" << txn << " " << LockModeToString(mode) << "("
          << object.ToString() << ")";
      break;
    case Kind::kDeadlock:
      out << "deadlock T" << txn << " on " << LockModeToString(mode) << "("
          << object.ToString() << ")";
      break;
    case Kind::kAbortMark:
      out << "abort   T" << txn;
      break;
    case Kind::kRelease:
      out << "release T" << txn;
      break;
  }
  return out.str();
}

const char* DeadlockPolicyToString(DeadlockPolicy policy) {
  switch (policy) {
    case DeadlockPolicy::kDetect:
      return "detect";
    case DeadlockPolicy::kWoundWait:
      return "wound-wait";
    case DeadlockPolicy::kNoWait:
      return "no-wait";
  }
  return "?";
}


LockManager::LockManager(Options options) : options_(std::move(options)) {}

LockManager::TxnState* LockManager::FindTxn(TxnId txn) {
  auto it = txns_.find(txn);
  return it == txns_.end() ? nullptr : &it->second;
}

const LockManager::TxnState* LockManager::FindTxn(TxnId txn) const {
  auto it = txns_.find(txn);
  return it == txns_.end() ? nullptr : &it->second;
}

bool LockManager::IsBlockingTxn(TxnId txn) const {
  const TxnState* state = FindTxn(txn);
  return state != nullptr && state->blocking;
}

TxnId LockManager::Begin() {
  std::lock_guard<std::mutex> lock(mu_);
  const TxnId txn = next_txn_++;
  txns_.emplace(txn, TxnState{});
  return txn;
}

bool LockManager::ConflictsWithHolder(bool requester_blocking, LockMode mode,
                                      TxnId holder,
                                      const ModeCounts& counts) const {
  const LockProtocol base =
      requester_blocking ? LockProtocol::kTwoPhase : options_.protocol;
  bool rcrawa_ok = true;      // compatible under the configured matrix
  bool twophase_ok = true;    // compatible under strict 2PL
  for (int m = 0; m < kNumLockModes; ++m) {
    if (counts[m] == 0) continue;
    const LockMode held = static_cast<LockMode>(m);
    if (!Compatible(base, mode, held)) rcrawa_ok = false;
    if (!Compatible(LockProtocol::kTwoPhase, mode, held)) twophase_ok = false;
  }
  if (!rcrawa_ok) return true;
  // Compatible under the configured matrix. The only cell where the
  // matrices differ is Wa-over-Rc; if the holder escalated to blocking
  // (2PL-style) acquisition, that cell conflicts after all.
  return base == LockProtocol::kRcRaWa && !twophase_ok &&
         IsBlockingTxn(holder);
}

void LockManager::CollectConflicts(const Holders& holders, TxnId txn,
                                   bool requester_blocking, LockMode mode,
                                   std::vector<TxnId>* out) const {
  for (const auto& [holder, counts] : holders) {
    if (holder == txn) continue;  // a transaction never conflicts with itself
    if (ConflictsWithHolder(requester_blocking, mode, holder, counts)) {
      out->push_back(holder);
    }
  }
}

std::vector<TxnId> LockManager::FindConflicts(TxnId txn,
                                              bool requester_blocking,
                                              const LockObjectId& object,
                                              LockMode mode) const {
  std::vector<TxnId> conflicts;
  auto bucket_it = buckets_.find(object);
  if (bucket_it != buckets_.end()) {
    CollectConflicts(bucket_it->second, txn, requester_blocking, mode,
                     &conflicts);
  }
  if (object.is_relation_level()) {
    // Relation-level request vs every tuple/insert hold in the relation.
    auto summary_it = relation_summaries_.find(object.relation);
    if (summary_it != relation_summaries_.end()) {
      CollectConflicts(summary_it->second, txn, requester_blocking, mode,
                       &conflicts);
    }
  } else {
    // Tuple/insert request vs the relation-level bucket.
    auto rel_it = buckets_.find(LockObjectId{object.relation, kRelationLevel});
    if (rel_it != buckets_.end()) {
      CollectConflicts(rel_it->second, txn, requester_blocking, mode,
                       &conflicts);
    }
  }
  std::sort(conflicts.begin(), conflicts.end());
  conflicts.erase(std::unique(conflicts.begin(), conflicts.end()),
                  conflicts.end());
  return conflicts;
}

bool LockManager::WouldDeadlock(TxnId txn,
                                const std::vector<TxnId>& blockers) const {
  // DFS from each blocker through waits_for_, looking for txn.
  std::vector<TxnId> stack(blockers.begin(), blockers.end());
  std::unordered_set<TxnId> visited;
  while (!stack.empty()) {
    TxnId current = stack.back();
    stack.pop_back();
    if (current == txn) return true;
    if (!visited.insert(current).second) continue;
    auto it = waits_for_.find(current);
    if (it != waits_for_.end()) {
      stack.insert(stack.end(), it->second.begin(), it->second.end());
    }
  }
  return false;
}

void LockManager::Grant(TxnId txn, TxnState* state, const LockObjectId& object,
                        LockMode mode) {
  const int m = static_cast<int>(mode);
  ++buckets_[object][txn][m];
  if (!object.is_relation_level()) {
    ++relation_summaries_[object.relation][txn][m];
  }
  ++state->holds[object][m];
  ++stats_.acquired;
}

bool LockManager::MarkAbortedTxn(TxnId txn, TxnState* state,
                                 TraceBuffer* events) {
  if (state == nullptr || state->aborted) return false;
  state->aborted = true;
  ++stats_.aborts_marked;
  events->Add(LockEvent::Kind::kAbortMark, txn, LockObjectId{}, LockMode::kRc);
  cv_.notify_all();
  return true;
}

Status LockManager::Acquire(TxnId txn, LockObjectId object, LockMode mode) {
  // Chaos site: a delayed grant — the request stalls before it even
  // reaches the manager (sleep-safe: no lock held here).
  (void)DBPS_FAILPOINT("lock.acquire.delay");

  const auto deadline =
      std::chrono::steady_clock::now() + options_.wait_timeout;
  TraceBuffer events(this);  // flushes after `lock` unwinds
  std::unique_lock<std::mutex> lock(mu_);

  TxnState* state = FindTxn(txn);
  if (state == nullptr) {
    return Status::Internal("Acquire on unknown transaction");
  }
  if (state->aborted) return Status::Aborted("transaction was aborted");
  // Chaos sites: a spurious wait-timeout, and a wound storm (the request
  // loses to an imaginary older transaction and is marked aborted) —
  // exactly the failures callers must already survive. A site may be
  // armed with a delay, so both are evaluated with mu_ dropped.
  if (FailpointRegistry::Instance().enabled()) {
    lock.unlock();
    const bool timeout = DBPS_FAILPOINT("lock.acquire.timeout");
    const bool wound = !timeout && DBPS_FAILPOINT("lock.acquire.wound");
    lock.lock();
    state = FindTxn(txn);
    if (state == nullptr) {
      return Status::Internal("Acquire on unknown transaction");
    }
    if (timeout) {
      ++stats_.timeouts;
      return Status::LockTimeout("injected timeout on " + object.ToString());
    }
    if (wound) {
      ++stats_.wounds;
      MarkAbortedTxn(txn, state, &events);
      return Status::Aborted("injected wound on " + object.ToString());
    }
  }
  const auto hold_start = std::chrono::steady_clock::now();
  const bool requester_blocking = state->blocking;

  // Re-acquiring a mode already held never conflicts.
  const auto hold_it = state->holds.find(object);
  const bool reacquire = hold_it != state->holds.end() &&
                         hold_it->second[static_cast<int>(mode)] > 0;

  bool waited = false;
  while (!reacquire) {
    std::vector<TxnId> conflicts =
        FindConflicts(txn, requester_blocking, object, mode);
    if (conflicts.empty()) break;

    switch (options_.deadlock_policy) {
      case DeadlockPolicy::kNoWait:
        ++stats_.deadlocks;
        events.Add(LockEvent::Kind::kDeadlock, txn, object, mode);
        return Status::Deadlock("no-wait: " + object.ToString() +
                                " is held in a conflicting mode");
      case DeadlockPolicy::kWoundWait:
        // Wound every younger conflicting holder, then wait: waits only
        // ever target older transactions, so no cycle can form.
        for (TxnId holder : conflicts) {
          if (holder > txn &&
              MarkAbortedTxn(holder, FindTxn(holder), &events)) {
            ++stats_.wounds;
          }
        }
        break;
      case DeadlockPolicy::kDetect:
        if (WouldDeadlock(txn, conflicts)) {
          ++stats_.deadlocks;
          events.Add(LockEvent::Kind::kDeadlock, txn, object, mode);
          return Status::Deadlock("waiting for " + object.ToString() +
                                  " would close a waits-for cycle");
        }
        break;
    }
    if (!waited) {
      waited = true;
      ++stats_.blocked;
      events.Add(LockEvent::Kind::kBlock, txn, object, mode);
    }
    waits_for_[txn] = std::move(conflicts);
    const std::cv_status wait_result = cv_.wait_until(lock, deadline);
    waits_for_.erase(txn);
    if (state->aborted) {
      return Status::Aborted("transaction aborted while waiting for " +
                             object.ToString());
    }
    if (wait_result == std::cv_status::timeout) {
      if (!FindConflicts(txn, requester_blocking, object, mode).empty()) {
        ++stats_.timeouts;
        return Status::LockTimeout("gave up waiting for " +
                                   object.ToString());
      }
      break;
    }
  }

  Grant(txn, state, object, mode);
  if (!waited) {
    hold_ns_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - hold_start)
            .count());
  }
  events.Add(LockEvent::Kind::kGrant, txn, object, mode);
  return Status::OK();
}

std::vector<TxnId> LockManager::CollectRcVictims(TxnId txn) const {
  // Under kTwoPhase the Wa-over-Rc cell is incompatible at *grant* time,
  // so a committer can never hold Wa concurrently with a conflicting Rc:
  // there is nothing to sweep.
  if (options_.protocol == LockProtocol::kTwoPhase) return {};

  std::lock_guard<std::mutex> lock(mu_);
  const TxnState* state = FindTxn(txn);
  if (state == nullptr) return {};

  std::vector<TxnId> victims;
  // Blocking (escalated) transactions are never victims: their Rc locks
  // conflict with Wa at grant time, so a committer holding Wa cannot have
  // raced past them (and exempting them is the starvation guarantee).
  auto add_rc_holders = [&](const Holders& holders) {
    for (const auto& [holder, counts] : holders) {
      if (holder != txn && counts[static_cast<int>(LockMode::kRc)] > 0 &&
          !IsBlockingTxn(holder)) {
        victims.push_back(holder);
      }
    }
  };
  for (const auto& [object, counts] : state->holds) {
    if (counts[static_cast<int>(LockMode::kWa)] == 0) continue;
    // Rc holders on the same object.
    auto bucket_it = buckets_.find(object);
    if (bucket_it != buckets_.end()) add_rc_holders(bucket_it->second);
    if (object.is_relation_level()) {
      // Relation-level Wa vs tuple-level Rc anywhere in the relation.
      auto summary_it = relation_summaries_.find(object.relation);
      if (summary_it != relation_summaries_.end()) {
        add_rc_holders(summary_it->second);
      }
    } else {
      // Tuple/insert Wa vs relation-level Rc (negation escalations).
      auto rel_it =
          buckets_.find(LockObjectId{object.relation, kRelationLevel});
      if (rel_it != buckets_.end()) add_rc_holders(rel_it->second);
    }
  }
  std::sort(victims.begin(), victims.end());
  victims.erase(std::unique(victims.begin(), victims.end()), victims.end());
  return victims;
}

void LockManager::MarkAborted(TxnId txn) {
  TraceBuffer events(this);
  std::lock_guard<std::mutex> lock(mu_);
  MarkAbortedTxn(txn, FindTxn(txn), &events);
}

bool LockManager::IsAborted(TxnId txn) const {
  std::lock_guard<std::mutex> lock(mu_);
  const TxnState* state = FindTxn(txn);
  return state != nullptr && state->aborted;
}

void LockManager::SetBlocking(TxnId txn) {
  std::lock_guard<std::mutex> lock(mu_);
  TxnState* state = FindTxn(txn);
  if (state == nullptr) return;
  DBPS_DCHECK(state->holds.empty()) << "SetBlocking after locks were acquired";
  if (!state->blocking) {
    state->blocking = true;
    ++stats_.blocking_txns;
  }
}

bool LockManager::IsBlocking(TxnId txn) const {
  std::lock_guard<std::mutex> lock(mu_);
  return IsBlockingTxn(txn);
}

void LockManager::Release(TxnId txn) {
  TraceBuffer events(this);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto txn_it = txns_.find(txn);
    if (txn_it == txns_.end()) {
      // Unknown or double release: tolerate (the caller's rollback paths
      // may race a victimizing committer) but count.
      ++stats_.unknown_releases;
      return;
    }
    for (const auto& [object, counts] : txn_it->second.holds) {
      auto bucket_it = buckets_.find(object);
      if (bucket_it != buckets_.end()) {
        bucket_it->second.erase(txn);
        if (bucket_it->second.empty()) buckets_.erase(bucket_it);
      }
      if (!object.is_relation_level()) {
        auto summary_it = relation_summaries_.find(object.relation);
        if (summary_it != relation_summaries_.end()) {
          summary_it->second.erase(txn);
          if (summary_it->second.empty()) {
            relation_summaries_.erase(summary_it);
          }
        }
      }
    }
    txns_.erase(txn_it);
    waits_for_.erase(txn);
    events.Add(LockEvent::Kind::kRelease, txn, LockObjectId{}, LockMode::kRc);
  }
  cv_.notify_all();
}

bool LockManager::Holds(TxnId txn, LockObjectId object, LockMode mode) const {
  std::lock_guard<std::mutex> lock(mu_);
  const TxnState* state = FindTxn(txn);
  if (state == nullptr) return false;
  auto hold_it = state->holds.find(object);
  return hold_it != state->holds.end() &&
         hold_it->second[static_cast<int>(mode)] > 0;
}

size_t LockManager::live_transactions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return txns_.size();
}

LockManager::Stats LockManager::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats = stats_;
  stats.shards.assign(1, ShardStats{hold_ns_});
  return stats;
}

}  // namespace dbps
