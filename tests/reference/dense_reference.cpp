// The original two-phase dense-tableau simplex, retained as the independent
// oracle for the sparse bounded-variable kernel in src/ilp/simplex.cpp.
// It is deliberately boring: no fault points, and every branch-and-bound
// node rebuilds its tableau and re-enters phase 1 from scratch. It shares
// no pivoting code with the sparse kernel, which is why the ILP and
// structural-WCET differential tests use it.

#include <algorithm>
#include <cmath>
#include <vector>

#include "ilp/model.hpp"
#include "reference/reference.hpp"
#include "support/check.hpp"

namespace ucp::reference {

using namespace ilp;

namespace {

constexpr double kEps = 1e-9;

struct Row {
  std::vector<Term> terms;
  Rel rel;
  double rhs;
};

/// Flattens model constraints plus variable-bound rows into `rows`,
/// normalized so every rhs is non-negative.
std::vector<Row> build_rows(const Model& model,
                            const std::vector<Row>& extra_rows) {
  std::vector<Row> rows;
  for (const auto& c : model.constraints())
    rows.push_back(Row{c.terms, c.rel, c.rhs});
  for (const Row& r : extra_rows) rows.push_back(r);
  for (VarId v = 0; static_cast<std::size_t>(v) < model.num_vars(); ++v) {
    const auto& var = model.var(v);
    if (var.lower > 0.0)
      rows.push_back(Row{{Term{v, 1.0}}, Rel::kGe, var.lower});
    if (var.upper != kInfinity)
      rows.push_back(Row{{Term{v, 1.0}}, Rel::kLe, var.upper});
  }
  for (Row& r : rows) {
    if (r.rhs < 0.0) {
      for (Term& t : r.terms) t.coeff = -t.coeff;
      r.rhs = -r.rhs;
      if (r.rel == Rel::kLe)
        r.rel = Rel::kGe;
      else if (r.rel == Rel::kGe)
        r.rel = Rel::kLe;
    }
  }
  return rows;
}

class Tableau {
 public:
  Tableau(const Model& model, const std::vector<Row>& rows)
      : n_struct_(model.num_vars()), m_(rows.size()) {
    // Column layout: [structural | slack/surplus | artificial].
    std::size_t n_slack = 0;
    for (const Row& r : rows)
      if (r.rel != Rel::kEq) ++n_slack;
    std::size_t n_art = 0;
    for (const Row& r : rows)
      if (r.rel != Rel::kLe) ++n_art;

    ncols_ = n_struct_ + n_slack + n_art;
    a_.assign(m_ * ncols_, 0.0);
    b_.assign(m_, 0.0);
    basis_.assign(m_, -1);
    eligible_.assign(ncols_, true);
    artificial_.assign(ncols_, false);

    std::size_t next_slack = n_struct_;
    std::size_t next_art = n_struct_ + n_slack;
    for (std::size_t i = 0; i < m_; ++i) {
      const Row& r = rows[i];
      for (const Term& t : r.terms)
        at(i, static_cast<std::size_t>(t.var)) += t.coeff;
      b_[i] = r.rhs;
      switch (r.rel) {
        case Rel::kLe:
          at(i, next_slack) = 1.0;
          basis_[i] = static_cast<int>(next_slack);
          ++next_slack;
          break;
        case Rel::kGe:
          at(i, next_slack) = -1.0;
          ++next_slack;
          at(i, next_art) = 1.0;
          artificial_[next_art] = true;
          basis_[i] = static_cast<int>(next_art);
          ++next_art;
          break;
        case Rel::kEq:
          at(i, next_art) = 1.0;
          artificial_[next_art] = true;
          basis_[i] = static_cast<int>(next_art);
          ++next_art;
          break;
      }
    }
  }

  double& at(std::size_t i, std::size_t j) { return a_[i * ncols_ + j]; }
  double get(std::size_t i, std::size_t j) const { return a_[i * ncols_ + j]; }

  /// Installs the objective row for maximizing `c` (dense, size ncols_).
  void set_objective(const std::vector<double>& c) {
    obj_ = c;
    obj_.resize(ncols_, 0.0);
    obj_shift_ = 0.0;
    for (std::size_t i = 0; i < m_; ++i) {
      const auto bj = static_cast<std::size_t>(basis_[i]);
      const double cb = (bj < c.size()) ? c[bj] : 0.0;
      if (cb == 0.0) continue;
      for (std::size_t j = 0; j < ncols_; ++j) obj_[j] -= cb * get(i, j);
      obj_shift_ += cb * b_[i];
    }
    for (std::size_t i = 0; i < m_; ++i)
      obj_[static_cast<std::size_t>(basis_[i])] = 0.0;
  }

  SolveStatus optimize(SolveStats& stats) {
    std::uint64_t pivots = 0;
    // Switch to Bland's rule after this many pivots to break any cycle.
    const std::uint64_t bland_after = 4 * (m_ + ncols_) + 64;
    while (true) {
      if (pivots++ > kMaxPivots) return SolveStatus::kIterationLimit;
      const bool bland = pivots > bland_after;

      // Entering column.
      std::size_t enter = ncols_;
      double best = kEps;
      for (std::size_t j = 0; j < ncols_; ++j) {
        if (!eligible_[j]) continue;
        if (obj_[j] > best) {
          best = obj_[j];
          enter = j;
          if (bland) break;  // smallest-index positive column
        }
      }
      if (enter == ncols_) return SolveStatus::kOptimal;

      // Leaving row: minimum ratio, smallest basis index tie-break.
      std::size_t leave = m_;
      double best_ratio = 0.0;
      for (std::size_t i = 0; i < m_; ++i) {
        const double aij = get(i, enter);
        if (aij <= kEps) continue;
        const double ratio = b_[i] / aij;
        if (leave == m_ || ratio < best_ratio - kEps ||
            (ratio < best_ratio + kEps && basis_[i] < basis_[leave])) {
          leave = i;
          best_ratio = ratio;
        }
      }
      if (leave == m_) return SolveStatus::kUnbounded;
      ++stats.pivots;
      pivot(leave, enter);
    }
  }

  void pivot(std::size_t row, std::size_t col) {
    const double p = get(row, col);
    UCP_CHECK(std::abs(p) > kEps);
    const double inv = 1.0 / p;
    for (std::size_t j = 0; j < ncols_; ++j) at(row, j) *= inv;
    b_[row] *= inv;
    at(row, col) = 1.0;

    for (std::size_t i = 0; i < m_; ++i) {
      if (i == row) continue;
      const double f = get(i, col);
      if (std::abs(f) < kEps) {
        at(i, col) = 0.0;
        continue;
      }
      for (std::size_t j = 0; j < ncols_; ++j) at(i, j) -= f * get(row, j);
      b_[i] -= f * b_[row];
      at(i, col) = 0.0;
      if (b_[i] < 0.0 && b_[i] > -kEps) b_[i] = 0.0;
    }
    const double fo = obj_[col];
    if (std::abs(fo) > 0.0) {
      for (std::size_t j = 0; j < ncols_; ++j) obj_[j] -= fo * get(row, j);
      obj_shift_ += fo * b_[row];
      obj_[col] = 0.0;
    }
    basis_[row] = static_cast<int>(col);
  }

  /// Phase 1: drive artificials to zero; returns false if infeasible.
  bool phase1(SolveStatus& status, SolveStats& stats) {
    bool any_artificial = false;
    for (std::size_t j = 0; j < ncols_; ++j) any_artificial |= artificial_[j];
    if (!any_artificial) {
      status = SolveStatus::kOptimal;
      return true;
    }
    std::vector<double> c(ncols_, 0.0);
    for (std::size_t j = 0; j < ncols_; ++j)
      if (artificial_[j]) c[j] = -1.0;
    set_objective(c);
    status = optimize(stats);
    if (status != SolveStatus::kOptimal) return false;
    if (obj_shift_ < -1e-7) {
      status = SolveStatus::kInfeasible;
      return false;
    }
    // Pivot basic artificials out where possible; redundant rows keep them
    // basic at zero, which is harmless once they cannot re-enter.
    for (std::size_t i = 0; i < m_; ++i) {
      const auto bj = static_cast<std::size_t>(basis_[i]);
      if (!artificial_[bj]) continue;
      for (std::size_t j = 0; j < ncols_; ++j) {
        if (artificial_[j]) continue;
        if (std::abs(get(i, j)) > 1e-7) {
          pivot(i, j);
          break;
        }
      }
    }
    for (std::size_t j = 0; j < ncols_; ++j)
      if (artificial_[j]) eligible_[j] = false;
    return true;
  }

  Solution run(const Model& model) {
    Solution solution;
    solution.stats.lp_solves = 1;
    SolveStatus status;
    if (!phase1(status, solution.stats)) {
      solution.status = status;
      return solution;
    }

    const double sign = model.maximize() ? 1.0 : -1.0;
    std::vector<double> c(ncols_, 0.0);
    for (const Term& t : model.objective())
      c[static_cast<std::size_t>(t.var)] += sign * t.coeff;
    set_objective(c);
    solution.status = optimize(solution.stats);
    if (solution.status != SolveStatus::kOptimal) return solution;

    solution.values.assign(model.num_vars(), 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      const auto bj = static_cast<std::size_t>(basis_[i]);
      if (bj < model.num_vars())
        solution.values[bj] = std::max(0.0, b_[i]);
    }
    solution.objective = sign * obj_shift_;
    return solution;
  }

 private:
  std::size_t n_struct_;
  std::size_t m_;
  std::size_t ncols_ = 0;
  std::vector<double> a_;
  std::vector<double> b_;
  std::vector<double> obj_;
  double obj_shift_ = 0.0;
  std::vector<int> basis_;
  std::vector<bool> eligible_;
  std::vector<bool> artificial_;
};

Solution solve_lp_with_rows(const Model& model,
                            const std::vector<Row>& extra_rows) {
  const std::vector<Row> rows = build_rows(model, extra_rows);
  Tableau tableau(model, rows);
  return tableau.run(model);
}

}  // namespace

Solution solve_lp_dense_reference(const Model& model) {
  return solve_lp_with_rows(model, {});
}

Solution solve_ilp_dense_reference(const Model& model) {
  struct Node {
    std::vector<Row> bounds;
  };

  Solution best;
  best.status = SolveStatus::kInfeasible;
  bool have_best = false;
  const double sign = model.maximize() ? 1.0 : -1.0;
  SolveStats stats;

  std::vector<Node> stack;
  stack.push_back({});
  std::uint64_t nodes = 0;
  SolveStatus worst_failure = SolveStatus::kInfeasible;

  while (!stack.empty()) {
    if (++nodes > kMaxBbNodes) {
      if (!have_best) best.status = SolveStatus::kIterationLimit;
      best.stats = stats;
      return best;
    }
    stats.bb_nodes = nodes;
    const Node node = std::move(stack.back());
    stack.pop_back();

    const Solution relaxed = solve_lp_with_rows(model, node.bounds);
    stats.add(relaxed.stats);
    if (relaxed.status == SolveStatus::kUnbounded ||
        relaxed.status == SolveStatus::kIterationLimit) {
      worst_failure = relaxed.status;
      continue;
    }
    if (relaxed.status != SolveStatus::kOptimal) continue;
    if (have_best && sign * relaxed.objective <=
                         sign * best.objective + kIntTolerance)
      continue;  // bound: cannot beat incumbent

    // Find the most fractional integer variable.
    VarId branch_var = -1;
    double branch_frac = kIntTolerance;
    for (VarId v = 0; static_cast<std::size_t>(v) < model.num_vars(); ++v) {
      if (!model.var(v).integer) continue;
      const double x = relaxed.value(v);
      const double frac = std::abs(x - std::round(x));
      if (frac > branch_frac) {
        branch_frac = frac;
        branch_var = v;
      }
    }
    if (branch_var < 0) {
      // Integral: candidate incumbent.
      if (!have_best ||
          sign * relaxed.objective > sign * best.objective) {
        best = relaxed;
        // Snap near-integers exactly.
        for (VarId v = 0; static_cast<std::size_t>(v) < model.num_vars();
             ++v) {
          if (model.var(v).integer)
            best.values[static_cast<std::size_t>(v)] =
                std::round(best.values[static_cast<std::size_t>(v)]);
        }
        have_best = true;
      }
      continue;
    }

    const double x = relaxed.value(branch_var);
    Node down = node;
    down.bounds.push_back(
        Row{{Term{branch_var, 1.0}}, Rel::kLe, std::floor(x)});
    Node up = node;
    up.bounds.push_back(
        Row{{Term{branch_var, 1.0}}, Rel::kGe, std::ceil(x)});
    // DFS; push "up" last so the larger-count branch (usually the WCET
    // direction) is explored first.
    stack.push_back(std::move(down));
    stack.push_back(std::move(up));
  }

  if (!have_best) best.status = worst_failure;
  best.stats = stats;
  return best;
}

}  // namespace ucp::reference
