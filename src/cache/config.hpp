#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ucp::cache {

/// Memory block index in instruction memory (address / block_bytes).
using MemBlockId = std::uint32_t;

/// One instruction-cache configuration, denoted k = (a, b, c) in the paper:
/// associativity `a`, block (line) size `b` in bytes, capacity `c` in bytes.
struct CacheConfig {
  std::uint32_t assoc = 1;
  std::uint32_t block_bytes = 16;
  std::uint32_t capacity_bytes = 256;

  std::uint32_t num_sets() const {
    return capacity_bytes / (assoc * block_bytes);
  }
  std::uint32_t num_blocks() const { return capacity_bytes / block_bytes; }
  std::uint32_t set_of(MemBlockId mem_block) const {
    return mem_block % num_sets();
  }

  /// Validates power-of-two geometry and at least one set.
  void validate() const;

  std::string to_string() const;

  friend bool operator==(const CacheConfig&, const CacheConfig&) = default;
};

/// A configuration with its paper label (k1..k36).
struct NamedCacheConfig {
  std::string id;
  CacheConfig config;
};

/// The 36 configurations of Table 2: a ∈ {1,2,4}, b ∈ {16,32} bytes,
/// c ∈ {256, 512, 1024, 2048, 4096, 8192} bytes, labelled k1..k36 in the
/// paper's order (capacity-major, then block size, then associativity).
const std::vector<NamedCacheConfig>& paper_cache_configs();

/// Convenience lookup by label ("k7"); throws InvalidArgument if unknown.
const NamedCacheConfig& paper_cache_config(const std::string& id);

/// Memory-system timing used by both the concrete simulator and the WCET
/// analysis. All values in processor cycles.
struct MemTiming {
  std::uint32_t hit_cycles = 1;        ///< I-cache hit service time
  std::uint32_t miss_cycles = 40;      ///< demand miss service time (L2/DRAM)
  std::uint32_t prefetch_latency = 40; ///< Λ: time for a prefetch to land

  void validate() const;

  friend bool operator==(const MemTiming&, const MemTiming&) = default;
};

}  // namespace ucp::cache
