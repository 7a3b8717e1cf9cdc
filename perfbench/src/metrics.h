// Bookkeeping shared by every workload: latency samples and the
// percentile rule, op tallies (failed_frac), metric-name validation, the
// result JSON, and process CPU / RSS readings.

#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// A bag of measurements (latencies, per-call times, ...).
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

/// The percentile rule: percentile `p` (e.g. 99) of `n` samples is
/// reportable only when at least 10 samples lie beyond it, i.e.
/// n * (100 - p) / 100 >= 10.
bool PercentileSupported(size_t n, double p);

/// Samples.Quantile(p / 100) when the rule allows it, nullopt otherwise.
std::optional<double> SupportedPercentile(const Samples& samples, double p);

/// Op accounting behind failed_frac. An op is attempted once; it ends
/// committed or failed (Busy, admission timeout, commit failure, RHS
/// error). A retried abort is neither: it is counted in `retries` and the
/// op stays open until its final outcome.
struct OpTally {
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;
  uint64_t retries = 0;

  double FailedFrac() const {
    return attempted == 0 ? 0.0 : static_cast<double>(failed) / attempted;
  }
};

/// True iff `name` is a valid metric name: 1-64 characters of
/// [A-Za-z0-9_.-], starting with a letter or digit.
bool ValidMetricName(const std::string& name);

/// One reported metric.
struct Metric {
  double value = 0;
  std::string unit;
};

/// Ordered name -> metric map; Set() rejects invalid names (fatal).
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::map<std::string, Metric>& all() const { return metrics_; }
  double Get(const std::string& name) const;

 private:
  std::map<std::string, Metric> metrics_;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricSet& metrics);

/// Process user+sys CPU seconds so far (all threads).
double ProcessCpuSeconds();

/// Cumulative (steal, total) jiffies of all CPUs from /proc/stat; zeros
/// when unavailable. Steal is time the hypervisor ran something else.
std::pair<uint64_t, uint64_t> CpuStealJiffies();

/// Peak resident set size of the process, MB.
double PeakRssMb();

/// Median of a small vector of repeated measurements.
double MedianOf(std::vector<double> values);

/// Mean of repeated measurements; 0 when empty.
double MeanOf(const std::vector<double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
