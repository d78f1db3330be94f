#pragma once

#include <cstdint>
#include <vector>

#include "ir/program.hpp"

namespace ucp::ir {

/// Index of a memory block in instruction memory (address / block_bytes).
using MemBlockId = std::uint32_t;

/// Assigns concrete instruction-memory addresses to every instruction of a
/// program (blocks laid out contiguously in block-id order, `kInstrBytes`
/// per instruction) and maps addresses to cache memory blocks of a given
/// block size.
///
/// Inserting a prefetch and re-running `Layout` reproduces exactly the
/// relocation effect the paper's `rcost` term accounts for: every downstream
/// instruction shifts by 4 bytes and may change memory block.
class Layout {
 public:
  /// `block_bytes` is the cache block (line) size; must be a power of two
  /// and a multiple of kInstrBytes.
  Layout(const Program& program, std::uint32_t block_bytes,
         std::uint32_t base_address = 0);

  /// Lays out `program` afresh with the same block size and base address,
  /// reusing this layout's storage: equal to `Layout(program,
  /// block_bytes(), base_address())`.
  void assign(const Program& program);

  std::uint32_t block_bytes() const { return block_bytes_; }
  std::uint32_t base_address() const { return base_address_; }
  /// Total code size in bytes.
  std::uint32_t code_bytes() const { return code_bytes_; }

  bool has_address(InstrId id) const {
    return id < addresses_.size() && addresses_[id] != kNoAddress;
  }
  std::uint32_t address(InstrId id) const;
  MemBlockId mem_block(InstrId id) const {
    return address(id) / block_bytes_;
  }
  MemBlockId block_of_address(std::uint32_t addr) const {
    return addr / block_bytes_;
  }

  /// Address of the first instruction of a basic block.
  std::uint32_t block_start_address(BlockId bb) const;

  /// Number of distinct instruction-memory blocks the program spans.
  std::uint32_t num_mem_blocks() const;
  /// First memory block used by the program.
  MemBlockId first_mem_block() const { return base_address_ / block_bytes_; }

 private:
  static constexpr std::uint32_t kNoAddress = 0xffffffffu;

  std::uint32_t block_bytes_;
  std::uint32_t base_address_;
  std::uint32_t code_bytes_ = 0;
  std::vector<std::uint32_t> addresses_;        // indexed by InstrId
  std::vector<std::uint32_t> block_start_;      // indexed by BlockId
};

}  // namespace ucp::ir
