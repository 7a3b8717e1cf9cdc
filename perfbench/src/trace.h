// In-memory span recorder for the traced run.
//
// Spans are recorded only in the benchmark's own code, around its calls
// into each layer's public functions; the program itself is not
// instrumented. A span has a name, a layer, start/end, a parent span and
// a transaction id. Spans stay in memory and are written out at exit.
//
// A span's self time is its duration minus the part of its interval that
// its children cover (the union of the children's intervals, clipped to
// the parent). Summing self time per layer over one span tree splits the
// tree root's wall time by layer.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";   ///< string literal
  const char* layer = "";  ///< string literal
  int64_t start_ns = 0;
  int64_t end_ns = -1;     ///< -1 while open
  int64_t parent = -1;     ///< index of the parent span, -1 for none
  uint64_t txn = 0;        ///< transaction / op id, 0 for none
};

class Tracer {
 public:
  /// A disabled tracer records nothing; every call is a cheap no-op.
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Nanoseconds since the tracer was made.
  int64_t Now() const;

  /// Opens a span and returns its id (-1 when disabled). Thread-safe.
  int64_t Begin(const char* name, const char* layer, int64_t parent = -1,
                uint64_t txn = 0);
  void End(int64_t id);

  /// Records an already-finished span with explicit times.
  int64_t Record(const char* name, const char* layer, int64_t start_ns,
                 int64_t end_ns, int64_t parent = -1, uint64_t txn = 0);

  /// Self seconds per layer over the subtree rooted at `root`.
  std::map<std::string, double> SelfSecondsByLayer(int64_t root) const;

  double DurationSeconds(int64_t id) const;
  size_t size() const;

  /// Writes every span, one tab-separated line each (end_ns -1: never
  /// closed).
  bool WriteTsv(const std::string& path) const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span; no-op on a disabled or null tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, const char* layer,
             int64_t parent = -1, uint64_t txn = 0)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name, layer, parent, txn)
                              : -1) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }
  void End() {
    if (tracer_ != nullptr && id_ >= 0) tracer_->End(id_);
    tracer_ = nullptr;
  }

 private:
  Tracer* tracer_;
  int64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
