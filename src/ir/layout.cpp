#include "ir/layout.hpp"

namespace ucp::ir {

namespace {
bool is_pow2(std::uint32_t x) { return x != 0 && (x & (x - 1)) == 0; }
}  // namespace

Layout::Layout(const Program& program, std::uint32_t block_bytes,
               std::uint32_t base_address)
    : block_bytes_(block_bytes), base_address_(base_address) {
  UCP_REQUIRE(is_pow2(block_bytes), "block size must be a power of two");
  UCP_REQUIRE(block_bytes % kInstrBytes == 0,
              "block size must hold whole instructions");
  UCP_REQUIRE(base_address % block_bytes == 0,
              "base address must be block-aligned");
  assign(program);
}

void Layout::assign(const Program& program) {
  addresses_.assign(program.num_instr_ids(), kNoAddress);
  block_start_.assign(program.num_blocks(), kNoAddress);

  std::uint32_t addr = base_address_;
  for (const BasicBlock& bb : program.blocks()) {
    block_start_[bb.id] = addr;
    for (const Instruction& in : bb.instrs) {
      UCP_CHECK(in.id < addresses_.size());
      addresses_[in.id] = addr;
      addr += kInstrBytes;
    }
  }
  code_bytes_ = addr - base_address_;
}

std::uint32_t Layout::address(InstrId id) const {
  UCP_REQUIRE(id < addresses_.size() && addresses_[id] != kNoAddress,
              "instruction has no address in this layout");
  return addresses_[id];
}

std::uint32_t Layout::block_start_address(BlockId bb) const {
  UCP_REQUIRE(bb < block_start_.size() && block_start_[bb] != kNoAddress,
              "basic block has no address in this layout");
  return block_start_[bb];
}

std::uint32_t Layout::num_mem_blocks() const {
  if (code_bytes_ == 0) return 0;
  const MemBlockId first = base_address_ / block_bytes_;
  const MemBlockId last = (base_address_ + code_bytes_ - 1) / block_bytes_;
  return last - first + 1;
}

}  // namespace ucp::ir
