#include "metrics.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  q = std::clamp(q, 0.0, 1.0);
  // Nearest rank: the smallest value with at least q*n samples <= it.
  size_t rank = static_cast<size_t>(std::ceil(q * values_.size()));
  if (rank == 0) rank = 1;
  return values_[rank - 1];
}

bool PercentileSupported(size_t n, double p) {
  return static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0 - 1e-9;
}

std::optional<double> SupportedPercentile(const Samples& samples, double p) {
  if (!PercentileSupported(samples.size(), p)) return std::nullopt;
  return samples.Quantile(p / 100.0);
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  for (char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  if (!ValidMetricName(name)) {
    std::fprintf(stderr, "perfbench: invalid metric name '%s'\n",
                 name.c_str());
    std::abort();
  }
  if (!std::isfinite(value)) value = 0.0;
  metrics_[name] = Metric{value, unit};
}

double MetricSet::Get(const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricSet& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, metric] : metrics.all()) {
    if (!first) out += ", ";
    first = false;
    std::snprintf(buf, sizeof(buf), "%.12g", metric.value);
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::pair<uint64_t, uint64_t> CpuStealJiffies() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return {0, 0};
  uint64_t total = 0;
  for (unsigned long long x : v) total += x;
  return {v[7], total};
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double MedianOf(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double MeanOf(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / values.size();
}

}  // namespace perfbench
