// The benchmark's workloads: program + preloaded database generated from
// the seed, and each workload's own output check. The program under test
// receives only the generated text.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"
#include "wm/working_memory.h"

namespace perfbench {

/// Miss Manners over a large guest table. Guests are seated at `tables`
/// tables of `seats` each; every seat after the first joins the previous
/// guest's two hobbies against the rows sharing them (about
/// 2 * guests / hobbies candidates), never the whole table.
struct MannersSpec {
  int guests = 12000;
  int hobbies = 80;
  int tables = 0;
  int seats = 16;

  /// Committed firings of a complete run: per table one seat-first,
  /// seats-1 seat-next and one table-full, plus the final all-done.
  uint64_t Firings() const {
    return static_cast<uint64_t>(tables) * (seats + 1) + 1;
  }
};

std::string MannersProgram(const MannersSpec& spec, uint64_t seed);

/// Every table fully seated, sexes alternate, neighbours share the seat's
/// hobby, nobody is seated twice, and the run reached phase done.
dbps::Status CheckManners(const dbps::WorkingMemory& wm,
                          const MannersSpec& spec);

/// Jobs stepping a fixed number of times beside a hot hub tuple: readers
/// hold Rc on the hub while writers take Wa on it. Every rule has at most
/// two condition elements.
struct HubSpec {
  int active_jobs = 1000;
  int finished_jobs = 60000;
  int readers = 150;  ///< of the active jobs
  int writers = 30;   ///< of the active jobs
  int steps = 0;
  int cost_us = 20;   ///< busy-spin cost of every firing

  uint64_t Firings() const {
    return static_cast<uint64_t>(active_jobs) * steps;
  }
};

std::string HubProgram(const HubSpec& spec, uint64_t seed);

/// The hub equals the number of writer firings and every active job
/// reached its last step; finished jobs are untouched.
dbps::Status CheckHub(const dbps::WorkingMemory& wm, const HubSpec& spec);

/// Counter rows sharded over `shards` relations acct0..acctN (so a point
/// query scans one shard), an inbox relation clients insert into, and a
/// `total` counter the fold rule adds every inbox row into. The traffic
/// runs in rounds of two segments: a closed loop that keeps `window`
/// transactions in flight per connection, so the server sets the pace,
/// then an open loop of Poisson arrivals at a fixed `rate`.
struct ServeSpec {
  int shards = 64;
  int rows = 100000;
  int connections = 4;
  int rounds = 1;
  int window = 4;             ///< closed loop: transactions in flight per
                              ///< connection
  size_t closed_txns = 5000;  ///< per round, closed loop
  double rate = 1000;         ///< open loop: transactions per second
  size_t open_txns = 2500;    ///< per round, open loop
  double write_frac = 0.5;
  double range_frac = 0.3;    ///< of the reads
  int range_width = 8;        ///< rows per range query
};

std::string ServeProgram(const ServeSpec& spec);

/// Relation holding counter row `key`.
std::string ServeShard(const ServeSpec& spec, uint64_t key);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
