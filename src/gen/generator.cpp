#include "gen/generator.hpp"

#include <sstream>
#include <vector>

#include "ir/builder.hpp"
#include "ir/verify.hpp"
#include "support/check.hpp"
#include "support/fault_injection.hpp"

namespace ucp::gen {

namespace {

using ir::Cond;
using ir::IrBuilder;
using ir::R;
using ir::Reg;

// Fixed register roles. Scratch registers are re-masked to 16 bits after
// every write, so all arithmetic stays far from signed-overflow territory
// (|a*b| < 2^32, |a-b| <= 0xffff) and every masked value is a valid
// non-negative data index once ANDed with the working-set mask.
constexpr std::uint8_t kScratchFirst = 1, kScratchCount = 6;
constexpr Reg kAccum = Reg{7};    // running checksum, stored to data[0]
constexpr Reg kAddr = Reg{8};     // masked data address
constexpr Reg kTmp = Reg{13};     // shift amounts, stride constants
constexpr Reg kWsMask = Reg{10};  // working_set_words - 1
constexpr Reg kMask16 = Reg{12};  // 0xffff
constexpr std::uint8_t kCounterFirst = 16;  // one per loop depth
constexpr std::uint8_t kLimitFirst = 24;    // data-dependent loop limits

constexpr std::int64_t kValueMask = 0xffff;

Cond random_cond(Rng& rng) {
  return static_cast<Cond>(rng.next_below(6));
}

/// Recursive-descent emitter. `blocks_` is an estimate of CFG size (the
/// builder does not expose a live block count); costs below match what each
/// combinator lowers to closely enough to steer toward target_blocks.
class Emitter {
 public:
  Emitter(IrBuilder& b, Rng& rng, const GenKnobs& k) : b_(b), rng_(rng), k_(k) {}

  void run() {
    b_.movi(kMask16, kValueMask);
    b_.movi(kWsMask, static_cast<std::int64_t>(k_.working_set_words) - 1);
    b_.movi(kAccum, 0);
    for (std::uint8_t i = 0; i < kScratchCount; ++i)
      b_.movi(R(kScratchFirst + i), rng_.next_in(0, kValueMask));

    // A region may roll pure straight-line; retry a few times before
    // concluding that no control flow fits the remaining budget, so an
    // unlucky first roll cannot flatten the whole program.
    std::uint32_t stalls = 0;
    while (blocks_ < k_.target_blocks && stalls < 8) {
      const std::uint32_t before = blocks_;
      region(k_.target_blocks - blocks_);
      stalls = blocks_ == before ? stalls + 1 : 0;
    }
    // Fold the scratch state into the checksum so no emitted op is dead.
    for (std::uint8_t i = 0; i < kScratchCount; ++i) {
      b_.xor_(kAccum, kAccum, R(kScratchFirst + i));
    }
    b_.movi(kAddr, 0);
    b_.store(kAddr, 0, kAccum);
    b_.halt();
  }

 private:
  Reg scratch() { return R(kScratchFirst + rng_.next_below(kScratchCount)); }

  void normalize(Reg rd) { b_.and_(rd, rd, kMask16); }

  /// One random UBSan-safe straight-line operation.
  void statement() {
    const Reg rd = scratch();
    switch (rng_.next_below(10)) {
      case 0:
        b_.add(rd, scratch(), scratch());
        normalize(rd);
        break;
      case 1:
        b_.sub(rd, scratch(), scratch());
        normalize(rd);
        break;
      case 2:
        b_.mul(rd, scratch(), scratch());
        normalize(rd);
        break;
      case 3:
        b_.xor_(rd, scratch(), scratch());
        break;
      case 4:
        b_.or_(rd, scratch(), scratch());
        break;
      case 5:
        b_.movi(kTmp, rng_.next_in(0, 7));
        b_.shl(rd, scratch(), kTmp);
        normalize(rd);
        break;
      case 6:
        b_.movi(rd, rng_.next_in(0, kValueMask));
        break;
      case 7: {  // strided or conflict-mapped load
        emit_address();
        b_.load(rd, kAddr, 0);
        normalize(rd);
        break;
      }
      case 8: {  // store a masked value back into the working set
        emit_address();
        b_.store(kAddr, 0, scratch());
        break;
      }
      default:
        b_.add(kAccum, kAccum, scratch());
        normalize(kAccum);
        break;
    }
  }

  /// Leaves a valid data index in kAddr. Three access shapes: random-value
  /// indexed (hash-like), strided off the innermost counter, and a fixed
  /// hot index (conflict pressure on one set).
  void emit_address() {
    switch (rng_.next_below(3)) {
      case 0:
        b_.and_(kAddr, scratch(), kWsMask);
        break;
      case 1:
        if (depth_ > 0) {
          b_.movi(kTmp, static_cast<std::int64_t>(k_.stride_words));
          b_.mul(kAddr, R(kCounterFirst + depth_ - 1), kTmp);
          b_.and_(kAddr, kAddr, kWsMask);
        } else {
          b_.and_(kAddr, scratch(), kWsMask);
        }
        break;
      default:
        b_.movi(kAddr, rng_.next_below(k_.working_set_words));
        break;
    }
  }

  void straight_line() {
    const std::size_t n = 1 + rng_.next_below(k_.straight_line_pad);
    for (std::size_t i = 0; i < n; ++i) statement();
  }

  /// Largest loop bound (>= 1) that keeps the dynamic weight under the cap.
  std::uint32_t fit_bound(std::uint32_t want) const {
    const std::uint64_t room = k_.max_dynamic_weight / weight_;
    if (room <= 1) return 1;
    return static_cast<std::uint32_t>(
        std::min<std::uint64_t>(want, room));
  }

  void region(std::uint32_t budget) {
    straight_line();
    if (budget < 2) return;

    const bool can_loop = depth_ < k_.max_loop_depth && budget >= 3 &&
                          fit_bound(k_.max_loop_bound) >= 2;
    const double roll = rng_.next_double();
    if (can_loop && roll < 0.35) {
      loop(budget);
    } else if (roll < 0.35 + k_.branch_density) {
      if (k_.allow_switch && budget >= 7 && rng_.next_bool(0.25)) {
        switch_region(budget);
      } else {
        conditional(budget);
      }
    }
    // else: this region stays straight-line.
  }

  void conditional(std::uint32_t budget) {
    const Cond c = random_cond(rng_);
    const Reg a = scratch(), b = scratch();
    if (budget >= 4 && rng_.next_bool(0.5)) {
      blocks_ += 3;
      const std::uint32_t inner = (budget - 3) / 2;
      b_.if_then_else(
          c, a, b, [&] { region(inner); }, [&] { region(inner); });
    } else {
      blocks_ += 2;
      b_.if_then(c, a, b, [&] { region(budget - 2); });
    }
  }

  void switch_region(std::uint32_t budget) {
    const Reg sel = scratch();
    const std::size_t ncases = 2 + rng_.next_below(2);
    blocks_ += static_cast<std::uint32_t>(2 * ncases + 1);
    const std::uint32_t inner =
        (budget - static_cast<std::uint32_t>(2 * ncases + 1)) /
        static_cast<std::uint32_t>(ncases + 1);
    std::vector<std::pair<std::int64_t, IrBuilder::Body>> cases;
    for (std::size_t i = 0; i < ncases; ++i) {
      cases.emplace_back(rng_.next_in(0, kValueMask),
                         [this, inner] { region(inner); });
    }
    b_.switch_on(sel, cases, [this, inner] { region(inner); });
  }

  void loop(std::uint32_t budget) {
    const std::uint32_t bound =
        fit_bound(2 + static_cast<std::uint32_t>(
                          rng_.next_below(k_.max_loop_bound - 1)));
    const Reg counter = R(kCounterFirst + depth_);
    const std::uint64_t saved_weight = weight_;
    weight_ *= bound;
    ++depth_;
    blocks_ += 3;

    if (k_.allow_data_dependent_loops && rng_.next_bool(0.3)) {
      // Data-dependent trip count: limit = data[addr] masked below `bound`,
      // so the concrete run takes fewer iterations than the declared bound
      // (exercises FIRST/REST context splits and early-exit paths) while
      // the bound stays sound by construction.
      const Reg limit = R(kLimitFirst + depth_ - 1);
      std::uint32_t mask_pow2 = 1;
      while (mask_pow2 * 2 <= bound) mask_pow2 *= 2;
      emit_address();
      b_.load(limit, kAddr, 0);
      b_.movi(kTmp, static_cast<std::int64_t>(mask_pow2) - 1);
      b_.and_(limit, limit, kTmp);
      b_.for_range_reg(counter, 0, limit, bound,
                       [&] { region(budget - 3); });
    } else {
      b_.for_range(counter, 0, bound, [&] { region(budget - 3); });
    }
    --depth_;
    weight_ = saved_weight;
  }

  IrBuilder& b_;
  Rng& rng_;
  const GenKnobs& k_;
  std::uint32_t blocks_ = 1;
  std::uint32_t depth_ = 0;
  std::uint64_t weight_ = 1;
};

}  // namespace

std::string GenKnobs::to_string() const {
  std::ostringstream os;
  os << "blocks=" << target_blocks << " depth=" << max_loop_depth
     << " bound=" << max_loop_bound << " weight=" << max_dynamic_weight
     << " branch=" << branch_density << " ws=" << working_set_words
     << " stride=" << stride_words << " switch=" << (allow_switch ? 1 : 0)
     << " ddl=" << (allow_data_dependent_loops ? 1 : 0)
     << " pad=" << straight_line_pad;
  return os.str();
}

GenKnobs sample_knobs(Rng& rng) {
  GenKnobs k;
  k.target_blocks = static_cast<std::uint32_t>(rng.next_in(8, 40));
  k.max_loop_depth = static_cast<std::uint32_t>(rng.next_in(1, 3));
  k.max_loop_bound = static_cast<std::uint32_t>(rng.next_in(2, 16));
  k.max_dynamic_weight = static_cast<std::uint32_t>(rng.next_in(512, 8192));
  k.branch_density = 0.2 + 0.5 * rng.next_double();
  k.working_set_words = std::uint32_t{64} << rng.next_below(5);  // 64..1024
  k.stride_words = static_cast<std::uint32_t>(rng.next_in(1, 8));
  k.allow_switch = rng.next_bool(0.7);
  k.allow_data_dependent_loops = rng.next_bool(0.7);
  k.straight_line_pad = static_cast<std::size_t>(rng.next_in(2, 10));
  return k;
}

GenKnobs scaled_knobs(std::uint32_t scale) {
  GenKnobs k;
  k.target_blocks = 24 * scale;
  k.max_loop_depth = 2;
  k.working_set_words = 1024;
  return k;
}

ir::Program generate_program(std::uint64_t seed, const GenKnobs& knobs) {
  UCP_REQUIRE(knobs.working_set_words > 0 &&
                  (knobs.working_set_words &
                   (knobs.working_set_words - 1)) == 0,
              "generate_program: working_set_words must be a power of two");
  UCP_REQUIRE(knobs.max_loop_bound >= 2,
              "generate_program: max_loop_bound must be >= 2");

  std::ostringstream name;
  name << "gen_" << std::hex << seed;
  IrBuilder b(name.str());
  Rng rng(seed);

  Emitter emitter(b, rng, knobs);
  emitter.run();

  std::vector<std::int64_t> data(knobs.working_set_words);
  for (auto& w : data) w = rng.next_in(0, kValueMask);
  b.set_data(std::move(data));

  if (UCP_FAULT_POINT("gen.build"))
    throw InvalidArgument("fault injected at gen.build");

  ir::Program program = b.take();  // runs verify_or_throw
  // Belt-and-braces: a generator bug that slips a malformed program past
  // the builder must surface here, as a diagnosable issue list, not
  // downstream inside an analysis.
  const auto issues = ir::verify_issues(program);
  if (!issues.empty()) {
    std::ostringstream os;
    os << "generated program failed verification:";
    for (const auto& issue : issues) os << "\n  - " << issue.message;
    throw InvalidArgument(os.str());
  }
  return program;
}

}  // namespace ucp::gen
