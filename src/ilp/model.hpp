#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace ucp::ilp {

using VarId = std::int32_t;

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// Relation of a linear constraint.
enum class Rel : std::uint8_t { kLe, kGe, kEq };

/// One linear term: coefficient * variable.
struct Term {
  VarId var;
  double coeff;
};

/// A linear (integer) program: variables with bounds, linear constraints,
/// and a linear objective. This is the substrate under the IPET WCET
/// formulation (Section 3.2/3.3 of the paper), but it is fully generic.
class Model {
 public:
  /// Adds a variable with bounds [lower, upper]. `integer` marks it for
  /// branch-and-bound; `solve_lp` ignores integrality.
  VarId add_var(std::string name, double lower = 0.0, double upper = kInfinity,
                bool integer = true);

  void add_constraint(std::vector<Term> terms, Rel rel, double rhs);
  /// Sets the objective; `maximize` defaults to true (IPET maximizes).
  void set_objective(std::vector<Term> terms, bool maximize = true);

  std::size_t num_vars() const { return vars_.size(); }
  std::size_t num_constraints() const { return constraints_.size(); }

  struct Var {
    std::string name;
    double lower;
    double upper;
    bool integer;
  };
  struct Constraint {
    std::vector<Term> terms;
    Rel rel;
    double rhs;
  };

  const Var& var(VarId id) const;
  const std::vector<Var>& vars() const { return vars_; }
  const std::vector<Constraint>& constraints() const { return constraints_; }
  const std::vector<Term>& objective() const { return objective_; }
  bool maximize() const { return maximize_; }

  /// Human-readable LP-format dump for debugging.
  std::string to_string() const;

 private:
  std::vector<Var> vars_;
  std::vector<Constraint> constraints_;
  std::vector<Term> objective_;
  bool maximize_ = true;
};

enum class SolveStatus : std::uint8_t {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

std::string status_name(SolveStatus status);

/// Work counters of one solver invocation (and, summed, of a whole sweep):
/// where the pivots go and how often branch-and-bound actually branches.
struct SolveStats {
  std::uint64_t lp_solves = 0;  ///< simplex runs (root + B&B nodes)
  std::uint64_t pivots = 0;     ///< phase-1 + primal pivots, all runs
  std::uint64_t bb_nodes = 0;   ///< branch-and-bound nodes expanded

  void add(const SolveStats& other) {
    lp_solves += other.lp_solves;
    pivots += other.pivots;
    bb_nodes += other.bb_nodes;
  }
};

struct Solution {
  SolveStatus status = SolveStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> values;  ///< indexed by VarId
  SolveStats stats;            ///< work spent producing this solution

  bool optimal() const { return status == SolveStatus::kOptimal; }
  double value(VarId id) const;
};

/// Solver budgets and the integrality threshold, shared by the sparse
/// solver and the test-only dense reference (tests/reference). Exhausting a
/// budget is reported as SolveStatus::kIterationLimit.
inline constexpr std::uint64_t kMaxPivots = 2'000'000;  ///< per simplex run
inline constexpr std::uint64_t kMaxBbNodes = 200'000;   ///< B&B node cap
inline constexpr double kIntTolerance = 1e-6;           ///< integrality

/// Solves the LP relaxation with the sparse bounded-variable revised
/// simplex (Dantzig pricing, Bland fallback, deterministic smallest-index
/// tie-breaking).
Solution solve_lp(const Model& model);

/// Solves the integer program by LP-based branch-and-bound; variables not
/// marked integer stay continuous.
Solution solve_ilp(const Model& model);

}  // namespace ucp::ilp
