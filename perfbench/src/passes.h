// One pass of a workload: set-up (repeated), the measured phase under the
// durable journal, then the correctness gate (recovery, audit, the
// workload's own check). A traced pass also records spans and replays
// the journal layer by layer.

#ifndef PERFBENCH_PASSES_H_
#define PERFBENCH_PASSES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "metrics.h"
#include "trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string rev = "unknown";
  std::string work_dir = ".bench_work";
  bool selftest = false;
};

struct PassResult {
  bool correct = true;
  std::vector<std::string> errors;
  OpTally ops;
  MetricSet e2e;    ///< end-to-end metrics
  MetricSet layer;  ///< per-layer metrics (complete in a traced pass)
  std::vector<std::string> notes;  ///< human-readable lines
  int64_t root = -1;               ///< root span (traced pass)
};

PassResult RunPass(const Args& args, Tracer* tracer, const std::string& dir);

/// Prints a pass's notes, failed_frac and errors (never the result line).
void PrintNotes(const PassResult& pass);

/// Adds the traced pass's per-layer self times, the phase-clock check
/// (layer self times must account for the traced wall time within 15%)
/// and the tracing overhead against the untraced pass. Also copies the
/// load generator's latencies from the untraced pass: timed figures come
/// only from untraced runs.
void AddTraceMetrics(const PassResult& untraced, const Tracer& tracer,
                     PassResult* traced);

/// A pass's correctness, op tally and metrics as text, one item per line
/// (the untraced pass of a traced run reports back from a child process
/// this way), and back. Notes and errors are not carried.
std::string SerializePass(const PassResult& pass);
bool DeserializePass(const std::string& text, PassResult* pass);

/// The cost model the workload runs under, for the metadata line.
std::string CostModelNote(const std::string& workload);

}  // namespace perfbench

#endif  // PERFBENCH_PASSES_H_
