#include "workloads.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "util/random.h"
#include "value/symbol_table.h"

namespace perfbench {

using dbps::Random;
using dbps::Status;
using dbps::Sym;
using dbps::SymbolId;
using dbps::WmePtr;
using dbps::WorkingMemory;

namespace {

std::string Str(int64_t v) { return std::to_string(v); }

}  // namespace

// --- manners --------------------------------------------------------------

std::string MannersProgram(const MannersSpec& spec, uint64_t seed) {
  // Hosts (role host) open each table and are never seat-next candidates,
  // so no table can find its host already seated elsewhere.
  std::string out = R"(
(relation guest  (name symbol) (role symbol) (sex symbol) (hobby symbol))
(relation host   (table int) (name symbol))
(relation seated (table int) (seat int) (name symbol) (sex symbol)
                 (hobby symbol))
(relation taken  (name symbol))
(relation phase  (now symbol) (table int) (next-seat int))
(relation limits (seats int) (tables int))

(rule all-done :priority 110
  (phase ^now start ^table <t>)
  (limits ^tables { < <t> })
  -->
  (modify 1 ^now done)
  (halt))

(rule seat-first :priority 100
  (phase ^now start ^table <t> ^next-seat 1)
  (host ^table <t> ^name <g>)
  (guest ^name <g> ^sex <sx> ^hobby <h>)
  -(taken ^name <g>)
  -->
  (make seated ^table <t> ^seat 1 ^name <g> ^sex <sx> ^hobby <h>)
  (make taken ^name <g>)
  (modify 1 ^now seat ^next-seat 2))

(rule table-full :priority 95
  (phase ^now seat ^table <t> ^next-seat <n>)
  (limits ^seats { < <n> })
  -->
  (modify 1 ^now start ^table (+ <t> 1) ^next-seat 1))

(rule seat-next :priority 90
  (phase ^now seat ^table <t> ^next-seat <n>)
  (seated ^table <t> ^name <prev> ^sex <psx> ^seat <s>)
  -(seated ^table <t> ^seat { > <s> })
  (guest ^name <prev> ^hobby <h>)
  (guest ^name <g> ^role guest ^sex { <> <psx> } ^sex <gsx> ^hobby <h>)
  -(taken ^name <g>)
  -->
  (make seated ^table <t> ^seat <n> ^name <g> ^sex <gsx> ^hobby <h>)
  (modify 1 ^next-seat (+ <n> 1))
  (make taken ^name <g>))

(make phase ^now start ^table 1 ^next-seat 1)
)";
  out += "(make limits ^seats " + Str(spec.seats) + " ^tables " +
         Str(spec.tables) + ")\n";
  Random rng(seed);
  auto person = [&](const std::string& name, const char* role) {
    const char* sex = rng.Bernoulli(0.5) ? "m" : "f";
    const uint64_t h1 = rng.Uniform(spec.hobbies);
    uint64_t h2 = rng.Uniform(spec.hobbies - 1);
    if (h2 >= h1) ++h2;
    for (uint64_t h : {h1, h2}) {
      out += "(make guest ^name " + name + " ^role " + role + " ^sex " + sex +
             " ^hobby hb" + Str(static_cast<int64_t>(h)) + ")\n";
    }
  };
  for (int t = 1; t <= spec.tables; ++t) {
    const std::string name = "h" + Str(t);
    person(name, "host");
    out += "(make host ^table " + Str(t) + " ^name " + name + ")\n";
  }
  for (int g = 0; g < spec.guests; ++g) person("g" + Str(g), "guest");
  return out;
}

Status CheckManners(const WorkingMemory& wm, const MannersSpec& spec) {
  // name -> (sex, hobbies)
  std::unordered_map<SymbolId, std::pair<SymbolId, std::set<SymbolId>>>
      people;
  for (const WmePtr& g : wm.Scan(Sym("guest"))) {
    auto& p = people[g->value(0).AsSymbol()];
    p.first = g->value(2).AsSymbol();
    p.second.insert(g->value(3).AsSymbol());
  }
  std::map<std::pair<int64_t, int64_t>, WmePtr> seats;
  std::unordered_set<SymbolId> names;
  for (const WmePtr& s : wm.Scan(Sym("seated"))) {
    const auto key = std::make_pair(s->value(0).AsInt(), s->value(1).AsInt());
    if (!seats.emplace(key, s).second) {
      return Status::Internal("seat filled twice: " + s->ToString());
    }
    if (!names.insert(s->value(2).AsSymbol()).second) {
      return Status::Internal("guest seated twice: " + s->ToString());
    }
  }
  const size_t want = static_cast<size_t>(spec.tables) * spec.seats;
  if (seats.size() != want) {
    return Status::Internal("seated " + Str(seats.size()) + " of " +
                            Str(want) + " seats");
  }
  for (int t = 1; t <= spec.tables; ++t) {
    for (int n = 1; n <= spec.seats; ++n) {
      auto it = seats.find({t, n});
      if (it == seats.end()) {
        return Status::Internal("empty seat " + Str(t) + "/" + Str(n));
      }
      const WmePtr& cur = it->second;
      const auto& who = people[cur->value(2).AsSymbol()];
      if (who.first != cur->value(3).AsSymbol() ||
          who.second.count(cur->value(4).AsSymbol()) == 0) {
        return Status::Internal("seat does not match its guest: " +
                                cur->ToString());
      }
      if (n == 1) continue;
      const WmePtr& prev = seats[{t, n - 1}];
      if (prev->value(3).AsSymbol() == cur->value(3).AsSymbol()) {
        return Status::Internal("sex does not alternate at " +
                                cur->ToString());
      }
      const auto& prev_who = people[prev->value(2).AsSymbol()];
      if (prev_who.second.count(cur->value(4).AsSymbol()) == 0) {
        return Status::Internal("neighbours share no hobby at " +
                                cur->ToString());
      }
    }
  }
  const auto phase = wm.Scan(Sym("phase"));
  if (phase.size() != 1 || phase[0]->value(0).AsSymbol() != Sym("done")) {
    return Status::Internal("manners did not reach phase done");
  }
  return Status::OK();
}

// --- hub_rw ---------------------------------------------------------------

std::string HubProgram(const HubSpec& spec, uint64_t seed) {
  const std::string last = Str(spec.steps);
  const std::string cost = Str(spec.cost_us);
  std::string out = R"(
(relation job (id int) (kind symbol) (state symbol) (step int) (seen int))
(relation hub (v int))
)";
  out += "(rule step-plain :cost " + cost +
         "\n  (job ^kind plain ^state active ^step <s> ^step { < " + last +
         " })\n  -->\n  (modify 1 ^step (+ <s> 1)))\n";
  out += "(rule step-read :cost " + cost +
         "\n  (job ^kind reader ^state active ^step <s> ^step { < " + last +
         " })\n  (hub ^v <v>)\n  -->\n  (modify 1 ^step (+ <s> 1) ^seen "
         "<v>))\n";
  out += "(rule step-write :cost " + cost +
         "\n  (job ^kind writer ^state active ^step <s> ^step { < " + last +
         " })\n  (hub ^v <v>)\n  -->\n  (modify 1 ^step (+ <s> 1))\n  "
         "(modify 2 ^v (+ <v> 1)))\n";
  out += "(make hub ^v 0)\n";
  // Active jobs are scattered through the finished table at seeded
  // positions; which active jobs read or write the hub is seeded too.
  const int total = spec.active_jobs + spec.finished_jobs;
  std::vector<int> kinds(total, -1);  // -1 finished, 0 plain, 1 read, 2 write
  std::vector<int> slots(total);
  for (int i = 0; i < total; ++i) slots[i] = i;
  Random rng(seed);
  for (int i = 0; i < spec.active_jobs; ++i) {
    const int j = i + static_cast<int>(rng.Uniform(total - i));
    std::swap(slots[i], slots[j]);
    kinds[slots[i]] = i < spec.writers ? 2 : i < spec.writers + spec.readers
                                                 ? 1
                                                 : 0;
  }
  static const char* kKind[] = {"plain", "reader", "writer"};
  for (int i = 0; i < total; ++i) {
    if (kinds[i] < 0) {
      out += "(make job ^id " + Str(i) + " ^kind " +
             kKind[rng.Uniform(3)] + " ^state done ^step " + last +
             " ^seen 0)\n";
    } else {
      out += "(make job ^id " + Str(i) + " ^kind " + kKind[kinds[i]] +
             " ^state active ^step 0 ^seen 0)\n";
    }
  }
  return out;
}

Status CheckHub(const WorkingMemory& wm, const HubSpec& spec) {
  const auto hub = wm.Scan(Sym("hub"));
  const int64_t want_hub = static_cast<int64_t>(spec.writers) * spec.steps;
  if (hub.size() != 1 || hub[0]->value(0).AsInt() != want_hub) {
    return Status::Internal(
        "hub " + (hub.empty() ? std::string("missing") : hub[0]->ToString()) +
        ", want writer firings " + Str(want_hub));
  }
  int active = 0, done = 0;
  for (const WmePtr& job : wm.Scan(Sym("job"))) {
    if (job->value(3).AsInt() != spec.steps) {
      return Status::Internal("job did not reach its last step: " +
                              job->ToString());
    }
    (job->value(2).AsSymbol() == Sym("active") ? active : done)++;
  }
  if (active != spec.active_jobs || done != spec.finished_jobs) {
    return Status::Internal("job table changed shape");
  }
  return Status::OK();
}

// --- serve_mixed ----------------------------------------------------------

std::string ServeShard(const ServeSpec& spec, uint64_t key) {
  return "acct" + Str(static_cast<int64_t>(key % spec.shards));
}

std::string ServeProgram(const ServeSpec& spec) {
  std::string out;
  for (int s = 0; s < spec.shards; ++s) {
    out += "(relation acct" + Str(s) + " (k int) (v int))\n";
  }
  out += R"(
(relation inbox (n int))
(relation total (v int))

(rule fold
  (inbox ^n <n>)
  (total ^v <v>)
  -->
  (modify 2 ^v (+ <v> <n>))
  (remove 1))

(make total ^v 0)
)";
  for (int k = 0; k < spec.rows; ++k) {
    out += "(make " + ServeShard(spec, k) + " ^k " + Str(k) + " ^v 0)\n";
  }
  return out;
}

}  // namespace perfbench
