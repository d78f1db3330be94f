#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "ir/isa.hpp"
#include "support/check.hpp"

namespace ucp::ir {

/// Stable identifier of an instruction within a Program. Ids survive
/// insertions (new instructions get fresh ids), which lets the optimizer
/// refer to prefetch targets independently of code addresses.
using InstrId = std::uint32_t;
inline constexpr InstrId kInvalidInstr = std::numeric_limits<InstrId>::max();

/// Index of a basic block within a Program.
using BlockId = std::uint32_t;
inline constexpr BlockId kInvalidBlock = std::numeric_limits<BlockId>::max();

/// One mini-ISA instruction. Fields that an opcode does not use are zero.
struct Instruction {
  InstrId id = kInvalidInstr;
  Opcode op = Opcode::kNop;
  std::uint8_t rd = 0;
  std::uint8_t rs1 = 0;
  std::uint8_t rs2 = 0;
  Cond cond = Cond::kEq;
  std::int64_t imm = 0;
  /// For kPrefetch: the instruction whose enclosing memory block to prefetch.
  InstrId pf_target = kInvalidInstr;

  bool is_prefetch() const { return op == Opcode::kPrefetch; }

  friend bool operator==(const Instruction&, const Instruction&) = default;
};

/// A maximal straight-line sequence of instructions. The terminator (if any)
/// is the last instruction; blocks without an explicit terminator fall
/// through to succs[0].
struct BasicBlock {
  BlockId id = kInvalidBlock;
  std::string label;
  std::vector<Instruction> instrs;
  /// Successor blocks. kBranch: {taken, not-taken}. kJump/fallthrough: {next}.
  /// kHalt: {}.
  std::vector<BlockId> succs;

  friend bool operator==(const BasicBlock&, const BasicBlock&) = default;
};

/// A whole program: its CFG, the initial data-memory image, and the loop
/// bound annotations ("flow facts") that WCET analysis requires.
///
/// Programs are value types; the optimizer copies a program, mutates the
/// copy, and compares analyses of both.
class Program {
 public:
  explicit Program(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // --- structure -----------------------------------------------------------
  BlockId add_block(std::string label);
  BasicBlock& block(BlockId id);
  const BasicBlock& block(BlockId id) const;
  std::size_t num_blocks() const { return blocks_.size(); }
  const std::vector<BasicBlock>& blocks() const { return blocks_; }

  void set_entry(BlockId id);
  BlockId entry() const { return entry_; }

  /// Appends an instruction to `bb` and assigns it a fresh id.
  InstrId append(BlockId bb, Instruction instr);
  /// Inserts an instruction at position `pos` inside `bb` (before the
  /// instruction currently at `pos`); used for prefetch insertion.
  InstrId insert(BlockId bb, std::size_t pos, Instruction instr);
  /// Removes the instruction at `pos` inside `bb` (used to roll back a
  /// tentatively inserted prefetch). The id is not recycled.
  void erase(BlockId bb, std::size_t pos);

  std::uint32_t num_instr_ids() const { return next_instr_id_; }
  /// Total number of instructions currently in the program.
  std::size_t instruction_count() const;
  /// Number of kPrefetch instructions currently in the program.
  std::size_t prefetch_count() const;

  /// Locates an instruction by id. Linear in program size; the analyses use
  /// their own dense side tables instead.
  struct InstrLocation {
    BlockId block = kInvalidBlock;
    std::size_t index = 0;
  };
  InstrLocation locate(InstrId id) const;

  // --- flow facts ----------------------------------------------------------
  /// Declares that the loop headed by `header` executes its body at most
  /// `bound` times per entry to the loop. Required for every loop header.
  void set_loop_bound(BlockId header, std::uint32_t bound);
  bool has_loop_bound(BlockId header) const;
  std::uint32_t loop_bound(BlockId header) const;
  const std::map<BlockId, std::uint32_t>& loop_bounds() const {
    return loop_bounds_;
  }

  // --- data memory ---------------------------------------------------------
  /// Word-addressed initial data image. The interpreter copies it at startup.
  void set_data(std::vector<std::int64_t> words) { data_ = std::move(words); }
  const std::vector<std::int64_t>& data() const { return data_; }

  // --- misc ----------------------------------------------------------------
  /// Predecessor lists derived from succs; recomputed on demand.
  std::vector<std::vector<BlockId>> predecessors() const;
  /// Blocks in reverse post-order from the entry (forward topological-ish
  /// order; loops place headers before bodies).
  std::vector<BlockId> reverse_post_order() const;

  std::string to_string() const;

 private:
  std::string name_;
  std::vector<BasicBlock> blocks_;
  BlockId entry_ = kInvalidBlock;
  InstrId next_instr_id_ = 0;
  std::map<BlockId, std::uint32_t> loop_bounds_;
  std::vector<std::int64_t> data_;
};

}  // namespace ucp::ir
