// The Miss Manners program bench_manners runs (after the classic OPS5
// match benchmark), generated for `seats` seats. Tables of kTableSeats
// are filled one firing per seat: a host opens each table, and every
// later seat takes an untaken guest of the other sex who shares a hobby
// with the previous seat's guest. The guest pool is twice the number of
// seats, with two hobbies each drawn from a set sized so that one hobby
// is shared by ~300 guest rows at large N, so a greedy chain never runs
// out of candidates.
//
// Every CE after a rule's first one joins on an equality (table, name or
// hobby) except the two `{ < <var> }` limit checks, so the matchers'
// alpha-memory indexes carry the joins: the work per seat is bounded by
// the table size and hobby fan-out, not by the number of seats.

#ifndef DBPS_BENCH_MANNERS_PROGRAM_H_
#define DBPS_BENCH_MANNERS_PROGRAM_H_

#include <algorithm>
#include <cstdint>
#include <string>

#include "util/random.h"

namespace dbps {
namespace bench {

constexpr int kTableSeats = 8;

/// Program text seating `seats` guests (a multiple of kTableSeats).
inline std::string MannersProgram(int seats, uint64_t seed) {
  const int tables = seats / kTableSeats;
  const int pool = 2 * seats;
  const int hobbies = std::max(4, 4 * seats / 300);
  std::string out = R"(
(relation guest  (name symbol) (role symbol) (sex symbol) (hobby symbol))
(relation host   (table int) (name symbol))
(relation seated (table int) (seat int) (name symbol) (sex symbol)
                 (hobby symbol))
(relation taken  (name symbol))
(relation phase  (now symbol) (table int) (next-seat int))
(relation limits (seats int) (tables int))

(rule seat-first :priority 100
  (phase ^now start ^table <t> ^next-seat 1)
  (host ^table <t> ^name <g>)
  (guest ^name <g> ^sex <sx> ^hobby <h>)
  -(taken ^name <g>)
  -->
  (make seated ^table <t> ^seat 1 ^name <g> ^sex <sx> ^hobby <h>)
  (make taken ^name <g>)
  (modify 1 ^now seat ^next-seat 2))

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

(rule table-full :priority 95
  (phase ^now seat ^table <t> ^next-seat <n>)
  (limits ^seats { < <n> })
  -->
  (modify 1 ^now start ^table (+ <t> 1) ^next-seat 1))

(rule all-seated :priority 110
  (phase ^now start ^table <t>)
  (limits ^tables { < <t> })
  -->
  (modify 1 ^now done)
  (halt))

(make phase ^now start ^table 1 ^next-seat 1)
)";
  out += "(make limits ^seats " + std::to_string(kTableSeats) +
         " ^tables " + std::to_string(tables) + ")\n";
  Random rng(seed);
  auto person = [&](const std::string& name, const char* role) {
    const char* sex = rng.Bernoulli(0.5) ? "m" : "f";
    const uint64_t h1 = rng.Uniform(hobbies);
    uint64_t h2 = rng.Uniform(hobbies - 1);
    if (h2 >= h1) ++h2;
    for (uint64_t h : {h1, h2}) {
      out += "(make guest ^name " + name + " ^role " + role + " ^sex " +
             sex + " ^hobby hb" + std::to_string(h) + ")\n";
    }
  };
  for (int t = 1; t <= tables; ++t) {
    const std::string name = "h" + std::to_string(t);
    person(name, "host");
    out += "(make host ^table " + std::to_string(t) + " ^name " + name +
           ")\n";
  }
  for (int g = 0; g < pool; ++g) person("g" + std::to_string(g), "guest");
  return out;
}

}  // namespace bench
}  // namespace dbps

#endif  // DBPS_BENCH_MANNERS_PROGRAM_H_
