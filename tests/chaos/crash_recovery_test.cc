// Kill-and-recover chaos: 32 seeded trials crash the durable journal at
// a seed-chosen failpoint (all frames written, or torn mid-frame) under
// per-commit and group-commit fsync modes, with and without automatic
// checkpoints, then recover the WAL and prove no acked commit was lost,
// the truncated tail was exactly the un-acked suffix, and checkpoint
// recovery equals a full replay. The crash site and its firing point
// both derive from the seed, so a failing trial reproduces from its
// printed options alone.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "testing/chaos_runner.h"

namespace dbps {
namespace testing {
namespace {

TEST(CrashRecoveryChaosTest, NoAckedCommitLostAcrossSeededMatrix) {
  uint64_t trials = 0;
  // Per fsync mode (index: grouped), so that one mode's crashes cannot
  // hide a mode whose crash sites never fire.
  uint64_t mode_trials[2] = {0, 0};
  uint64_t mode_crashes[2] = {0, 0};
  uint64_t acked = 0;
  uint64_t checkpointed_recoveries = 0;
  // DBPS_CHAOS_TRIALS scales the seed range; DBPS_CHAOS_SEED shifts it.
  const uint64_t seeds = 8 * ChaosTrialMultiplier();
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    for (int grouped = 0; grouped < 2; ++grouped) {
      for (size_t checkpoint_every : {size_t{0}, size_t{3}}) {
        ChaosOptions options;
        options.workload = ChaosWorkload::kCrashRecover;
        options.seed = (ChaosSeedBase() + seed) * 977 + grouped;
        options.group_commit = grouped != 0;
        options.checkpoint_every = checkpoint_every;
        options.client_sessions = 3;
        options.txns_per_session = 6;
        options.journal_path =
            ::testing::TempDir() + "crash_recover_" + std::to_string(seed) +
            "_" + std::to_string(grouped) + "_" +
            std::to_string(checkpoint_every) + ".wal";
        const ChaosReport report = ChaosRunner::RunTrial(options);
        EXPECT_TRUE(report.verdict.ok())
            << "seed=" << options.seed << " grouped=" << grouped
            << " checkpoint_every=" << checkpoint_every << " => "
            << report.ToString();
        ++trials;
        ++mode_trials[grouped];
        mode_crashes[grouped] += report.injected_crashes;
        acked += report.acked_commits;
        if (report.recovery.used_checkpoint) ++checkpointed_recoveries;
        std::remove(options.journal_path.c_str());
      }
    }
  }
  EXPECT_EQ(trials, 32u * ChaosTrialMultiplier());
  // The matrix must actually exercise the crash machinery, not just run
  // 32 healthy workloads: in each fsync mode at least half the trials
  // crash mid-run, clients still got real acks, and the checkpointed
  // half recovers through checkpoints.
  for (int grouped = 0; grouped < 2; ++grouped) {
    EXPECT_GE(mode_crashes[grouped], mode_trials[grouped] / 2)
        << (grouped != 0 ? "group-commit" : "per-commit") << " trials";
  }
  EXPECT_GT(acked, 0u);
  EXPECT_GT(checkpointed_recoveries, 0u);
}

TEST(CrashRecoveryChaosTest, RequiresAJournalPath) {
  ChaosOptions options;
  options.workload = ChaosWorkload::kCrashRecover;
  const ChaosReport report = ChaosRunner::RunTrial(options);
  EXPECT_TRUE(report.verdict.IsInvalidArgument()) << report.ToString();
}

}  // namespace
}  // namespace testing
}  // namespace dbps
