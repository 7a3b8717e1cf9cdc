// Miss Manners at scale: the classic OPS5 match benchmark, generated for
// N seats (manners_program.h) and run end-to-end under each match
// algorithm. It is the greedy seating of examples/programs/manners.dbps
// with tables, hosts and a guest pool of 2N, so the firing count is
// ~N + N/8 and the cost differences are pure match-phase cost
// ([FORG82]/[MIRA84] — the motivation the paper builds on).

#include <cstdio>
#include <string>

#include "engine/single_thread_engine.h"
#include "lang/compiler.h"
#include "manners_program.h"
#include "report.h"
#include "util/stopwatch.h"

namespace {

using namespace dbps;

void RunOne(MatcherKind matcher, int seats) {
  WorkingMemory wm;
  auto rules =
      LoadProgram(bench::MannersProgram(seats, 42), &wm).ValueOrDie();
  EngineOptions options;
  options.matcher = matcher;
  SingleThreadEngine engine(&wm, rules, options);
  Stopwatch stopwatch;
  auto result = engine.Run().ValueOrDie();
  double ms = stopwatch.ElapsedSeconds() * 1e3;
  DBPS_CHECK_EQ(wm.Count(Sym("seated")), static_cast<size_t>(seats));
  std::printf("  %-6s N=%-5d %9.1fms  %7.1fus/firing  (%llu firings)\n",
              MatcherKindToString(matcher), seats, ms,
              ms * 1e3 / static_cast<double>(result.stats.firings),
              (unsigned long long)result.stats.firings);
}

}  // namespace

int main() {
  bench::Header(
      "Miss Manners at scale — match-phase cost across algorithms\n"
      "(greedy seating at tables of 8; every run fills all N seats)");
  for (int seats : {8, 16, 32, 64, 1000, 10000}) {
    RunOne(MatcherKind::kRete, seats);
  }
  std::printf("\n");
  for (int seats : {8, 16, 32, 64, 1000, 10000}) {
    RunOne(MatcherKind::kTreat, seats);
  }
  std::printf("\n");
  for (int seats : {8, 16, 32}) {  // naive rematches everything per firing
    RunOne(MatcherKind::kNaive, seats);
  }
  std::printf(
      "\nexpected shape: Rete and TREAT probe hash-indexed alpha memories,\n"
      "so the work per firing is set by the table size and the hobby\n"
      "fan-out (~300 rows), not by N: us/firing grows 2-3x from N=1000 to\n"
      "N=10000 (the guest table outgrows the cache), not 10x. Rete stays\n"
      "ahead of TREAT, which re-joins from the seed on every phase change\n"
      "instead of keeping tokens; the naive rematcher's us/firing grows\n"
      "with N (a full rematch per firing), so it is only run to N=32 —\n"
      "the match-phase bottleneck [FORG82] the paper's parallel execute\n"
      "phase presumes solved.\n");
  return 0;
}
