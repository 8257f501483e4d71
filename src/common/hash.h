#ifndef COSTSENSE_COMMON_HASH_H_
#define COSTSENSE_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace costsense {

/// 64-bit FNV-1a, the one byte hash: catalog fingerprints, plan-id stream
/// ids and the quantized cost-key hash (runtime/oracle_cache.h) all fold
/// their bytes through it. Start from kFnv1aOffsetBasis (optionally mixed
/// with a seed) and chain the folds.
inline constexpr uint64_t kFnv1aOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kFnv1aPrime = 0x100000001b3ULL;

/// Folds `bytes` into the running hash `h`.
inline uint64_t Fnv1a(uint64_t h, std::string_view bytes) {
  for (unsigned char ch : bytes) {
    h ^= ch;
    h *= kFnv1aPrime;
  }
  return h;
}

/// Folds the eight little-endian bytes of `v` into the running hash `h`.
inline uint64_t Fnv1aU64(uint64_t h, uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (byte * 8)) & 0xffULL;
    h *= kFnv1aPrime;
  }
  return h;
}

}  // namespace costsense

#endif  // COSTSENSE_COMMON_HASH_H_
