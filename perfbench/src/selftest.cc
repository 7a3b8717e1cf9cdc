#include "selftest.h"

#include <cmath>
#include <cstdio>
#include <string>

#include "metrics.h"
#include "passes.h"
#include "trace.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void PercentileRule() {
  Expect(!PercentileSupported(999, 99), "p99 of 999 samples is refused");
  Expect(PercentileSupported(1000, 99), "p99 of 1000 samples is allowed");
  Expect(PercentileSupported(20, 50), "p50 of 20 samples is allowed");
  Expect(!PercentileSupported(19, 50), "p50 of 19 samples is refused");
  Samples s;
  for (int i = 1; i <= 1000; ++i) s.Add(1001 - i);  // unsorted input
  auto p99 = SupportedPercentile(s, 99);
  Expect(p99.has_value() && *p99 == 990, "p99 of 1..1000 is 990");
  Expect(s.Median() == 500, "median of 1..1000 is 500 (nearest rank)");
  Samples small;
  for (int i = 0; i < 500; ++i) small.Add(i);
  Expect(!SupportedPercentile(small, 99).has_value(),
         "p99 of 500 samples is not reported");
}

void SelfTime() {
  // root [0,100] with children a [10,30], b [20,50] (overlaps a) and
  // c [90,120] (runs past the root); a has child d [15,20].
  Tracer t(true);
  const int64_t root = t.Record("root", "bench", 0, 100);
  const int64_t a = t.Record("a", "lang", 10, 30, root);
  t.Record("b", "wm", 20, 50, root);
  t.Record("c", "match", 90, 120, root);
  t.Record("d", "net", 15, 20, a);
  t.Record("detached", "loadgen", 0, 1000);  // not under root
  auto self = t.SelfSecondsByLayer(root);
  // Root: 100 minus the union [10,50] + [90,100] = 50.
  Expect(Near(self["bench"], 50e-9), "root self time subtracts the union");
  Expect(Near(self["lang"], 15e-9), "child self time subtracts grandchild");
  Expect(Near(self["wm"], 30e-9), "leaf self time is its duration");
  Expect(Near(self["match"], 30e-9), "overrunning leaf keeps its duration");
  Expect(Near(self["net"], 5e-9), "grandchild self time");
  Expect(self.count("loadgen") == 0, "detached spans are not counted");
  Tracer off(false);
  Expect(off.Begin("x", "bench") == -1 && off.size() == 0,
         "a disabled tracer records nothing");
}

void FailedFrac() {
  OpTally ops;
  // Ten ops: one committed after two retried aborts, seven committed
  // directly, one refused (Busy), one commit failure.
  for (int i = 0; i < 10; ++i) ++ops.attempted;
  ops.retries += 2;
  ops.committed += 8;
  ops.failed += 2;
  Expect(Near(ops.FailedFrac(), 0.2), "failed_frac = failed / attempted");
  Expect(ops.committed + ops.failed == ops.attempted,
         "every attempted op ends committed or failed");
  OpTally none;
  Expect(none.FailedFrac() == 0.0, "failed_frac of no ops is 0");
}

void MetricNames() {
  for (const char* ok : {"ops_per_s", "lock.fast_share", "trace.self_s.net",
                         "a-b", "9lives"}) {
    Expect(ValidMetricName(ok), std::string("valid name ") + ok);
  }
  for (const char* bad : {"", "bad name", "x/y", ".lead", "_lead", "p99%",
                          "ünï"}) {
    Expect(!ValidMetricName(bad), std::string("invalid name '") + bad + "'");
  }
  Expect(ValidMetricName(std::string(64, 'a')), "64 characters allowed");
  Expect(!ValidMetricName(std::string(65, 'a')), "65 characters refused");
  MetricSet m;
  m.Set("x.y", 1.5, "ms");
  Expect(ResultJson(true, 3, 1, m) ==
             "{\"correct\": true, \"attempted\": 3, \"failed\": 1, "
             "\"metrics\": {\"x.y\": {\"value\": 1.5, \"unit\": \"ms\"}}}",
         "result line format");
}

void PassRoundTrip() {
  PassResult pass;
  pass.correct = false;
  pass.ops.attempted = 7;
  pass.ops.committed = 5;
  pass.ops.failed = 2;
  pass.ops.retries = 3;
  pass.e2e.Set("ops_per_s", 1234.5678901234567, "op/s");
  pass.layer.Set("net.busy_rejects", 0, "count");
  PassResult back;
  Expect(DeserializePass(SerializePass(pass), &back), "pass text parses");
  Expect(!back.correct && back.ops.attempted == 7 &&
             back.ops.committed == 5 && back.ops.failed == 2 &&
             back.ops.retries == 3,
         "pass text keeps correctness and the op tally");
  Expect(back.e2e.Get("ops_per_s") == 1234.5678901234567 &&
             back.e2e.all().at("ops_per_s").unit == "op/s" &&
             back.layer.all().count("net.busy_rejects") == 1,
         "pass text keeps every metric, digits and unit");
  Expect(!DeserializePass("", &back), "empty pass text is refused");
}

}  // namespace

int RunSelfTest() {
  PercentileRule();
  SelfTime();
  FailedFrac();
  MetricNames();
  PassRoundTrip();
  std::fprintf(stderr, "selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
