// Hash combination helpers (boost::hash_combine style, 64-bit).

#ifndef DBPS_UTIL_HASH_H_
#define DBPS_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>

namespace dbps {

/// Mixes `value`'s hash into `seed`.
template <typename T>
inline void HashCombine(size_t* seed, const T& value) {
  *seed ^= std::hash<T>{}(value) + 0x9e3779b97f4a7c15ULL + (*seed << 12) +
           (*seed >> 4);
}

/// 64-bit avalanche mix (final step of MurmurHash3).
inline uint64_t Mix64(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

/// Routes a 64-bit key to one of `buckets` — the routing function shared
/// by the relation-hash match partitioner and value-hash
/// sub-partitioning.
inline size_t RouteMix(uint64_t key, size_t buckets) {
  return static_cast<size_t>(Mix64(key)) % buckets;
}

}  // namespace dbps

#endif  // DBPS_UTIL_HASH_H_
