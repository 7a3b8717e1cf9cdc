#include "engine/engine.h"

#include "util/string_util.h"

namespace dbps {

bool IsClientFiring(const InstKey& key) {
  return key.rule_name.rfind(kClientRulePrefix, 0) == 0;
}

InstKey MakeClientKey(const std::string& session_name) {
  InstKey key;
  key.rule_name = std::string(kClientRulePrefix) + session_name;
  return key;
}

std::string EngineStats::ToString() const {
  std::string out = StringPrintf(
      "firings=%llu aborts=%llu deadlocks=%llu stale=%llu rhs_errors=%llu "
      "cycles=%llu halted=%d hit_max=%d elapsed=%.3fs",
      (unsigned long long)firings, (unsigned long long)aborts,
      (unsigned long long)deadlocks, (unsigned long long)stale_skips,
      (unsigned long long)rhs_errors, (unsigned long long)cycles,
      halted ? 1 : 0, hit_max_firings ? 1 : 0, elapsed_seconds);
  if (client_commits != 0 || client_aborts != 0) {
    out += StringPrintf(" client_commits=%llu client_aborts=%llu",
                        (unsigned long long)client_commits,
                        (unsigned long long)client_aborts);
  }
  if (injected_faults != 0 || firing_retries != 0 || escalations != 0 ||
      worker_exceptions != 0) {
    out += StringPrintf(
        " faults=%llu retries=%llu max_streak=%llu escalations=%llu "
        "backoff_us=%llu exceptions=%llu",
        (unsigned long long)injected_faults,
        (unsigned long long)firing_retries,
        (unsigned long long)max_abort_streak,
        (unsigned long long)escalations,
        (unsigned long long)backoff_micros,
        (unsigned long long)worker_exceptions);
  }
  if (commit_tickets != 0) {
    out += StringPrintf(" tickets=%llu seq_stall_us=%llu",
                        (unsigned long long)commit_tickets,
                        (unsigned long long)sequencer_stall_micros);
  }
  if (commit_batches != 0) {
    out += StringPrintf(" batches=%llu batched_commits=%llu batch_hist=[",
                        (unsigned long long)commit_batches,
                        (unsigned long long)batched_commits);
    bool first = true;
    for (size_t size = 0; size < batch_size_histogram.size(); ++size) {
      if (batch_size_histogram[size] == 0) continue;
      out += StringPrintf("%s%zu%s:%llu", first ? "" : " ", size,
                          size + 1 == batch_size_histogram.size() ? "+" : "",
                          (unsigned long long)batch_size_histogram[size]);
      first = false;
    }
    out += "]";
  }
  if (match_batches != 0) {
    out += StringPrintf(
        " match_partitions=%zu match_batches=%llu match_morsels=%llu "
        "match_handoffs=%llu match_propagate_us=%llu match_merge_us=%llu "
        "match_skew=[",
        match_partitions.size(), (unsigned long long)match_batches,
        (unsigned long long)match_morsels, (unsigned long long)match_handoffs,
        (unsigned long long)match_propagate_micros,
        (unsigned long long)match_merge_micros);
    bool first = true;
    for (size_t bin = 0; bin < match_skew_histogram.size(); ++bin) {
      if (match_skew_histogram[bin] == 0) continue;
      out += StringPrintf("%s%zu0%%:%llu", first ? "" : " ", bin,
                          (unsigned long long)match_skew_histogram[bin]);
      first = false;
    }
    out += "]";
    if (match_splits != 0) {
      out += StringPrintf(" match_splits=%llu",
                          (unsigned long long)match_splits);
    }
  }
  if (match_pipeline_batches != 0 || match_pipeline_drains != 0) {
    out += StringPrintf(
        " pipeline_batches=%llu pipeline_drains=%llu pipeline_stall_us=%llu",
        (unsigned long long)match_pipeline_batches,
        (unsigned long long)match_pipeline_drains,
        (unsigned long long)match_pipeline_stall_micros);
  }
  if (!lock_shards.empty()) {
    uint64_t waits = 0, contentions = 0, fast = 0, retries = 0;
    for (const LockShardCounters& shard : lock_shards) {
      waits += shard.waits;
      contentions += shard.mutex_contentions;
      fast += shard.fast_path_grants;
      retries += shard.fast_path_cas_retries;
    }
    out += StringPrintf(" lock_shards=%zu shard_waits=%llu "
                        "shard_mutex_contentions=%llu fast_path_grants=%llu "
                        "fast_path_cas_retries=%llu",
                        lock_shards.size(), (unsigned long long)waits,
                        (unsigned long long)contentions,
                        (unsigned long long)fast,
                        (unsigned long long)retries);
  }
  return out;
}

}  // namespace dbps
