// The tentpole's differential gate, engine-level.
//
// Part 1 (deterministic): the same program run through ParallelEngine
// with the serial matcher and with the partitioned matcher (one engine
// worker, same seed) must produce BYTE-IDENTICAL journals — same firing
// order, same seqs, same deltas — because conflict-set contents are
// provably equal after every batch and the selection strategies are
// deterministic on contents (final tie-break on the instantiation key).
//
// Part 2 (chaos): every chaos/workload family runs with the partitioned
// matcher and the in-engine shadow check armed — the serial reference
// matcher consumes the identical change stream and the conflict-set dumps
// are byte-compared after EVERY batch inside the run; any divergence
// fails the engine run, which fails the trial verdict. Replay validation
// and the offline audit then re-check the journal end to end.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dbps.h"
#include "testing/chaos_runner.h"
#include "testing/workloads.h"

namespace dbps {
namespace {

using testing::ChaosOptions;
using testing::ChaosReport;
using testing::ChaosRunner;
using testing::ChaosWorkload;
using testing::MakeLogisticsWm;

/// Renders a run's committed log as replayable journal text.
std::string JournalText(const RunResult& result) {
  std::string text;
  for (const FiringRecord& record : result.log) {
    auto line_or = DeltaToJournalLine(record.delta);
    DBPS_CHECK(line_or.ok()) << line_or.status();
    text += line_or.ValueOrDie();
    text += '\n';
  }
  return text;
}

/// Arms hot-partition splitting with an aggressive split trigger (for
/// short deterministic runs).
void ArmSkewAdaptation(ParallelEngineOptions* options) {
  options->match_split = true;
  options->match_split_ways = 3;
  options->match_split_streak = 1;
  options->match_split_share = 0.5;
}

RunResult RunLogistics(size_t match_partitions, bool shadow,
                       bool skew_adaptive = false) {
  RuleSetPtr rules;
  auto wm = MakeLogisticsWm(/*boxes=*/12, /*robots=*/4, /*sites=*/4, &rules);
  ParallelEngineOptions options;
  options.base.seed = 42;
  options.num_workers = 1;  // deterministic firing order
  options.num_match_partitions = match_partitions;
  options.match_shadow_check = shadow;
  if (skew_adaptive) ArmSkewAdaptation(&options);
  ParallelEngine engine(wm.get(), rules, options);
  auto result_or = engine.Run();
  DBPS_CHECK(result_or.ok()) << result_or.status();
  return std::move(result_or).ValueOrDie();
}

TEST(MatcherDifferentialTest, PartitionedJournalIsByteIdenticalToSerial) {
  const RunResult serial = RunLogistics(0, false);
  const RunResult partitioned = RunLogistics(8, true);

  ASSERT_GT(serial.log.size(), 0u);
  EXPECT_EQ(serial.log.size(), partitioned.log.size());
  EXPECT_EQ(JournalText(serial), JournalText(partitioned));
  for (size_t i = 0; i < serial.log.size() && i < partitioned.log.size();
       ++i) {
    EXPECT_EQ(serial.log[i].seq, partitioned.log[i].seq);
  }
  // The partitioned run actually partitioned: stats were harvested.
  EXPECT_GT(partitioned.stats.match_batches, 0u);
  EXPECT_EQ(partitioned.stats.match_partitions.size(), 8u);
  EXPECT_EQ(serial.stats.match_batches, 0u);
}

// Hot-partition value-hash splitting armed (with the shadow differential
// watching every batch) must still reproduce the serial journal byte for
// byte: splitting preserves canonical merge order.
TEST(MatcherDifferentialTest, SkewAdaptiveJournalIsByteIdentical) {
  const RunResult serial = RunLogistics(0, false);
  const RunResult adaptive =
      RunLogistics(4, /*shadow=*/true, /*skew_adaptive=*/true);

  ASSERT_GT(serial.log.size(), 0u);
  EXPECT_EQ(JournalText(serial), JournalText(adaptive));
  for (size_t i = 0; i < serial.log.size() && i < adaptive.log.size(); ++i) {
    EXPECT_EQ(serial.log[i].seq, adaptive.log[i].seq);
  }
  // The partitioned matcher actually carried the propagation work.
  EXPECT_GT(adaptive.stats.match_batches, 0u);
}

TEST(MatcherDifferentialTest, TreatInnerMatcherAgreesToo) {
  RuleSetPtr rules;
  auto wm = MakeLogisticsWm(10, 3, 3, &rules);
  ParallelEngineOptions options;
  options.base.seed = 7;
  options.base.matcher = MatcherKind::kTreat;
  options.num_workers = 1;
  options.num_match_partitions = 4;
  options.match_shadow_check = true;  // TREAT shadows TREAT
  ParallelEngine engine(wm.get(), rules, options);
  auto result_or = engine.Run();
  ASSERT_TRUE(result_or.ok()) << result_or.status();

  auto serial_wm = MakeLogisticsWm(10, 3, 3, &rules);
  ParallelEngineOptions serial_options;
  serial_options.base.seed = 7;
  serial_options.base.matcher = MatcherKind::kTreat;
  serial_options.num_workers = 1;
  ParallelEngine serial_engine(serial_wm.get(), rules, serial_options);
  auto serial_or = serial_engine.Run();
  ASSERT_TRUE(serial_or.ok()) << serial_or.status();

  EXPECT_EQ(JournalText(serial_or.ValueOrDie()),
            JournalText(result_or.ValueOrDie()));
}

// Every chaos/workload family under the partitioned matcher with the
// per-batch shadow differential armed. The "Chaos" suite name puts this
// in the chaos tier, where DBPS_CHAOS_TRIALS/DBPS_CHAOS_SEED scale it.
class MatcherDifferentialChaosTest
    : public ::testing::TestWithParam<ChaosWorkload> {};

TEST_P(MatcherDifferentialChaosTest, PartitionedMatchSurvivesFamily) {
  const size_t trials = testing::ChaosTrialMultiplier();
  for (size_t t = 0; t < trials; ++t) {
    ChaosOptions options;
    options.workload = GetParam();
    options.seed = testing::ChaosSeedBase() + 7700 + t * 13;
    options.fail_rate = 0.03;
    options.client_sessions = 2;
    options.txns_per_session = 6;
    options.match_partitions = 4;
    options.match_shadow_check = true;
    if (GetParam() == ChaosWorkload::kCrashRecover) {
      options.journal_path = ::testing::TempDir() +
                             "matcher_diff_crash_" + std::to_string(t) +
                             ".wal";
      options.group_commit = true;
      options.checkpoint_every = 8;
    }
    ChaosReport report = ChaosRunner::RunTrial(options);
    EXPECT_TRUE(report.verdict.ok())
        << "seed " << options.seed << ": " << report.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, MatcherDifferentialChaosTest,
    ::testing::Values(ChaosWorkload::kRulesOnly, ChaosWorkload::kMultiUser,
                      ChaosWorkload::kNetwork, ChaosWorkload::kCrashRecover,
                      ChaosWorkload::kZipfian, ChaosWorkload::kSnapshotScan,
                      ChaosWorkload::kMixedOltp),
    [](const ::testing::TestParamInfo<ChaosWorkload>& info) {
      switch (info.param) {
        case ChaosWorkload::kRulesOnly: return std::string("RulesOnly");
        case ChaosWorkload::kMultiUser: return std::string("MultiUser");
        case ChaosWorkload::kNetwork: return std::string("Network");
        case ChaosWorkload::kCrashRecover: return std::string("CrashRecover");
        case ChaosWorkload::kZipfian: return std::string("Zipfian");
        case ChaosWorkload::kSnapshotScan: return std::string("SnapshotScan");
        case ChaosWorkload::kMixedOltp: return std::string("MixedOltp");
      }
      return std::string("Unknown");
    });

// Every family again with hot-partition splitting armed (aggressive
// trigger), under the per-batch shadow differential.
// Fault injection, client sessions, crash recovery, and the offline
// audit run exactly as in the base sweep.
class SkewAdaptiveChaosTest : public ::testing::TestWithParam<ChaosWorkload> {
};

TEST_P(SkewAdaptiveChaosTest, ArmedAdaptationSurvivesFamily) {
  const size_t trials = testing::ChaosTrialMultiplier();
  for (size_t t = 0; t < trials; ++t) {
    ChaosOptions options;
    options.workload = GetParam();
    options.seed = testing::ChaosSeedBase() + 8850 + t * 17;
    options.fail_rate = 0.03;
    options.client_sessions = 2;
    options.txns_per_session = 6;
    options.match_partitions = 4;
    options.match_shadow_check = true;
    options.match_split = true;
    if (GetParam() == ChaosWorkload::kCrashRecover) {
      options.journal_path = ::testing::TempDir() + "skew_adapt_crash_" +
                             std::to_string(t) + ".wal";
      options.group_commit = true;
      options.checkpoint_every = 8;
    }
    ChaosReport report = ChaosRunner::RunTrial(options);
    EXPECT_TRUE(report.verdict.ok())
        << "seed " << options.seed << ": " << report.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, SkewAdaptiveChaosTest,
    ::testing::Values(ChaosWorkload::kRulesOnly, ChaosWorkload::kMultiUser,
                      ChaosWorkload::kNetwork, ChaosWorkload::kCrashRecover,
                      ChaosWorkload::kZipfian, ChaosWorkload::kSnapshotScan,
                      ChaosWorkload::kMixedOltp),
    [](const ::testing::TestParamInfo<ChaosWorkload>& info) {
      switch (info.param) {
        case ChaosWorkload::kRulesOnly: return std::string("RulesOnly");
        case ChaosWorkload::kMultiUser: return std::string("MultiUser");
        case ChaosWorkload::kNetwork: return std::string("Network");
        case ChaosWorkload::kCrashRecover: return std::string("CrashRecover");
        case ChaosWorkload::kZipfian: return std::string("Zipfian");
        case ChaosWorkload::kSnapshotScan: return std::string("SnapshotScan");
        case ChaosWorkload::kMixedOltp: return std::string("MixedOltp");
      }
      return std::string("Unknown");
    });

// Audit-evidence sampling end to end: with --audit-every semantics armed
// (evidence on every 3rd line only) the run's journal still passes the
// offline auditor — unaudited lines are tracked as order-only history and
// the victim ledger tolerates the sampled gaps.
TEST(MatcherDifferentialChaosTest, SampledAuditEvidenceStaysClean) {
  ChaosOptions options;
  options.workload = ChaosWorkload::kMultiUser;
  options.seed = testing::ChaosSeedBase() + 8801;
  options.fail_rate = 0.03;
  options.match_partitions = 4;
  options.match_shadow_check = true;
  options.audit_every = 3;
  ChaosReport report = ChaosRunner::RunTrial(options);
  EXPECT_TRUE(report.verdict.ok()) << report.ToString();
  EXPECT_LT(report.audit.audited_records, report.audit.records)
      << "sampling did not reduce audited records";
}

// The adaptive group-commit flush deadline under delayed fsyncs: the
// network chaos profile stalls the server.journal.fsync_delay site, so
// with a short deadline the flusher must release stalled groups early.
TEST(MatcherDifferentialChaosTest, FsyncDelayDeadlineFlushChaosTrial) {
  ChaosOptions options;
  options.workload = ChaosWorkload::kNetwork;
  options.seed = testing::ChaosSeedBase() + 9902;
  options.fail_rate = 0.05;
  options.flush_deadline = std::chrono::milliseconds(1);
  options.match_partitions = 4;
  options.match_shadow_check = true;
  ChaosReport report = ChaosRunner::RunTrial(options);
  EXPECT_TRUE(report.verdict.ok()) << report.ToString();
  // The deadline flusher is allowed to be idle on a fast run, but the
  // 1ms deadline under injected delays virtually always trips; either
  // way the journal stayed consistent, which is the property.
}

}  // namespace
}  // namespace dbps
