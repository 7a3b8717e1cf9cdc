// Self-test of the benchmark's own bookkeeping: the percentile rule,
// self-time subtraction for nested spans, failed_frac accounting,
// metric-name validation and the pass text a traced run's child sends
// back. Runs before every workload.

#ifndef PERFBENCH_SELFTEST_H_
#define PERFBENCH_SELFTEST_H_

namespace perfbench {

/// Returns 0 when every check passes, 1 otherwise (failures on stderr).
int RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_SELFTEST_H_
