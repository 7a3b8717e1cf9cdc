#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int64_t Tracer::Begin(const char* name, const char* layer, int64_t parent,
                      uint64_t txn) {
  if (!enabled_) return -1;
  const int64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, layer, now, -1, parent, txn});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t id) {
  if (!enabled_ || id < 0) return;
  const int64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

int64_t Tracer::Record(const char* name, const char* layer, int64_t start_ns,
                       int64_t end_ns, int64_t parent, uint64_t txn) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, layer, start_ns, end_ns, parent, txn});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::map<std::string, double> Tracer::SelfSecondsByLayer(int64_t root) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  if (root < 0 || static_cast<size_t>(root) >= spans_.size()) return out;
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t p = spans_[i].parent;
    if (p >= 0 && static_cast<size_t>(p) < spans_.size()) {
      children[static_cast<size_t>(p)].push_back(i);
    }
  }
  std::vector<size_t> stack{static_cast<size_t>(root)};
  std::vector<std::pair<int64_t, int64_t>> intervals;
  while (!stack.empty()) {
    const size_t id = stack.back();
    stack.pop_back();
    const Span& span = spans_[id];
    if (span.end_ns < span.start_ns) continue;  // never closed
    intervals.clear();
    for (size_t child : children[id]) {
      const Span& c = spans_[child];
      stack.push_back(child);
      const int64_t lo = std::max(c.start_ns, span.start_ns);
      const int64_t hi = std::min(c.end_ns, span.end_ns);
      if (hi > lo) intervals.emplace_back(lo, hi);
    }
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0, cur_lo = 0, cur_hi = -1;
    for (const auto& [lo, hi] : intervals) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    out[span.layer] += (span.end_ns - span.start_ns - covered) * 1e-9;
  }
  return out;
}

double Tracer::DurationSeconds(int64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || static_cast<size_t>(id) >= spans_.size()) return 0.0;
  const Span& span = spans_[static_cast<size_t>(id)];
  return span.end_ns < span.start_ns ? 0.0
                                     : (span.end_ns - span.start_ns) * 1e-9;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("id\tname\tlayer\tstart_ns\tend_ns\tparent\ttxn\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%s\t%lld\t%lld\t%lld\t%llu\n", i, s.name,
                 s.layer, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.txn));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
