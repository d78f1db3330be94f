#pragma once

#include <cstdint>
#include <string>

#include "ir/program.hpp"
#include "support/rng.hpp"

namespace ucp::gen {

/// Structural knobs for the synthetic-program generator. Every knob bounds a
/// dimension the cache/WCET pipeline is sensitive to: CFG size (analysis
/// scaling), loop nesting (VIVU context explosion), branching (join-point
/// precision loss), working-set size and access stride (capacity/conflict
/// misses in the modelled data-independent instruction cache come from code
/// footprint, so block count also controls I-cache pressure).
struct GenKnobs {
  std::uint32_t target_blocks = 24;   ///< approximate CFG size to aim for
  std::uint32_t max_loop_depth = 2;   ///< nesting cap (VIVU contexts grow fast)
  std::uint32_t max_loop_bound = 12;  ///< per-loop trip-count cap
  /// Cap on the product of enclosing loop bounds at any point, which bounds
  /// dynamic instruction count and keeps simulation within its step budget.
  std::uint32_t max_dynamic_weight = 4096;
  double branch_density = 0.45;       ///< P(region is a conditional)
  std::uint32_t working_set_words = 256;  ///< data image size (power of two)
  std::uint32_t stride_words = 3;     ///< stride for strided access patterns
  bool allow_switch = true;           ///< emit compare-cascade dispatches
  bool allow_data_dependent_loops = true;  ///< emit for_range_reg loops
  std::size_t straight_line_pad = 6;  ///< max filler ops per straight segment

  std::string to_string() const;
};

/// Samples a random-but-plausible knob assignment for one campaign case.
/// Working-set sizes stay powers of two (address masking relies on it).
GenKnobs sample_knobs(Rng& rng);

/// The one recipe for a program `scale` times the Mälardalen-average CFG
/// size (the default knobs are ≈ 1×): `24 * scale` target blocks, nesting
/// capped at the suite-typical depth 2, a 1024-word working set. Deeper
/// nesting would multiply VIVU contexts per block; the recipe scales the
/// program, not the per-block context blowup. Used by the scaling
/// differential tests and the fuzz campaign's designated large case.
GenKnobs scaled_knobs(std::uint32_t scale);

/// Generates a deterministic synthetic program from `seed` + `knobs`.
/// The output is built through IrBuilder's structured combinators, so it is
/// reducible, every loop carries a bound, and execution is UBSan-clean by
/// construction (values re-masked to 16 bits after arithmetic; data
/// addresses masked to the power-of-two working set; no div/rem; constant
/// shift amounts). The result is re-checked with `ir::verify` before being
/// returned; a verifier rejection (or an armed `gen.build` fault) throws
/// InvalidArgument.
ir::Program generate_program(std::uint64_t seed, const GenKnobs& knobs);

}  // namespace ucp::gen
