#pragma once

// Sparse bounded-variable LP snapshot for the revised simplex in
// simplex.cpp. A SparseLp is built once from a Model — CSC constraint
// matrix in equality form (one slack per row), variable bounds kept
// implicit instead of inflated into rows — and then re-solved any number
// of times with different objective vectors. Construction runs phase 1
// once and freezes the resulting feasible basis as an immutable canonical
// snapshot; every solve, and every branch-and-bound node within one,
// clones that snapshot, so solves are independent of call order and
// thread count, and a const SparseLp is safe to share across threads: the
// answer for (objective) never depends on which caller asked first.

#include <cstdint>
#include <vector>

#include "ilp/model.hpp"

namespace ucp::ilp {

namespace detail {
struct SimplexWorker;
}

class SparseLp {
 public:
  explicit SparseLp(const Model& model);

  std::size_t num_structural() const { return n_; }
  std::size_t num_rows() const { return m_; }
  /// Pivots spent building the canonical feasible basis (one-time phase 1).
  /// Not included in per-solve SolveStats; ilp::solve_ilp adds it to the
  /// one-shot solution's.
  std::uint64_t construction_pivots() const { return construction_pivots_; }
  /// kOptimal when a feasible canonical basis exists; kInfeasible /
  /// kIterationLimit otherwise (every solve then reports that status).
  SolveStatus canonical_status() const { return canonical_status_; }

  /// Maximizes `obj` (dense, indexed by structural VarId, shorter vectors
  /// are zero-extended) over the LP relaxation, starting from the canonical
  /// basis — phase 1 is skipped entirely.
  Solution solve_lp_with(const std::vector<double>& obj) const;

  /// Maximizes `obj` with the model's integrality marks enforced by
  /// depth-first branch-and-bound. Every node clones the canonical
  /// snapshot, applies the bounds of its branch path, repairs feasibility
  /// with phase 1 (a no-op at the root) and optimizes with the primal
  /// simplex.
  Solution solve_ilp_with(const std::vector<double>& obj) const;

 private:
  friend struct detail::SimplexWorker;

  // Nonbasic-at-lower / nonbasic-at-upper / basic.
  enum VStat : std::uint8_t { kAtLower = 0, kAtUpper = 1, kBasic = 2 };

  // Column space: [0, n_) structural variables, [n_, n_ + m_) row slacks.
  std::size_t n_ = 0;
  std::size_t m_ = 0;
  std::size_t total_ = 0;  ///< n_ + m_

  // CSC storage of the structural columns; slack columns are unit vectors
  // and never materialized.
  std::vector<std::int32_t> col_ptr_;  ///< size n_ + 1
  std::vector<std::int32_t> row_idx_;
  std::vector<double> val_;

  std::vector<double> lower_;        ///< size total_
  std::vector<double> upper_;        ///< size total_
  std::vector<std::uint8_t> integer_;  ///< size n_
  std::vector<double> b_;            ///< size m_

  // Canonical snapshot (immutable after construction).
  std::vector<double> x_;              ///< size total_
  std::vector<std::uint8_t> vstat_;    ///< size total_
  std::vector<std::int32_t> basis_;    ///< size m_
  std::vector<double> binv_;           ///< m_ x m_, row-major
  SolveStatus canonical_status_ = SolveStatus::kOptimal;
  std::uint64_t construction_pivots_ = 0;
};

}  // namespace ucp::ilp
