// AlphaIndex: a hash index over the WMEs of one alpha memory, keyed by one
// field — the "hashed memories" of Doorenbos, *Production Matching for
// Large Learning Systems* (CMU 1995, ch. 2).
//
// A join (or negation) whose tests include `field == <value bound
// earlier>` need not scan the whole memory: it probes the bucket of that
// value and runs its tests over the bucket only. Rete join/negative nodes
// and TREAT's nested-loop joins share this one type.
//
// A bucket is a superset of the WMEs whose field equals the key under
// Value::operator== — callers still evaluate every test, the equality
// one included, so an index changes what is visited, never what matches.

#ifndef DBPS_MATCH_ALPHA_INDEX_H_
#define DBPS_MATCH_ALPHA_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <unordered_map>
#include <vector>

#include "rules/rule.h"
#include "wm/wme.h"

namespace dbps {

class AlphaIndex {
 public:
  /// The WMEs under one key, in no particular order.
  using Bucket = std::vector<const Wme*>;

  explicit AlphaIndex(size_t field) : field_(field) {}

  size_t field() const { return field_; }

  /// Sizes the table for `n` keys (an initial load of n WMEs has at most
  /// that many), so it does not rehash while it fills.
  void Reserve(size_t n) { buckets_.reserve(n); }

  void Insert(const Wme* wme) {
    buckets_[wme->value(field_)].push_back(wme);
  }

  void Erase(const Wme* wme) {
    auto it = buckets_.find(wme->value(field_));
    if (it == buckets_.end()) return;
    Bucket& bucket = it->second;
    auto pos = std::find(bucket.begin(), bucket.end(), wme);
    if (pos == bucket.end()) return;
    *pos = bucket.back();
    bucket.pop_back();
    if (bucket.empty()) buckets_.erase(it);
  }

  const Bucket& Probe(const Value& key) const {
    static const Bucket kEmpty;
    auto it = buckets_.find(key);
    return it == buckets_.end() ? kEmpty : it->second;
  }

 private:
  size_t field_;
  /// ValueKeyEq (not operator==) so that every pair operator== calls
  /// equal shares a bucket and a NaN key can be found again by Erase.
  std::unordered_map<Value, Bucket, ValueHash, ValueKeyEq> buckets_;
};

/// Position of the first kEq test in `tests` (BetaTest or JoinTest), or
/// tests.size() if there is none — the test an index is keyed on.
template <typename Test>
size_t FirstEqTest(const std::vector<Test>& tests) {
  size_t i = 0;
  while (i < tests.size() && tests[i].pred != TestPredicate::kEq) ++i;
  return i;
}

}  // namespace dbps

#endif  // DBPS_MATCH_ALPHA_INDEX_H_
