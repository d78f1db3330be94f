// Sparse bounded-variable revised simplex and branch-and-bound.
//
// The solver targets the IPET problems built by ucp_wcet: a few hundred to
// a couple thousand non-negative variables, flow-conservation equalities,
// and loop-bound inequalities, with 2-4 nonzeros per column. Unlike the
// test-only dense oracle (tests/reference/dense_reference.cpp) it keeps
// the constraint matrix in CSC form, handles variable bounds implicitly
// (no bound rows, no artificials for x >= l), and maintains an explicit
// basis inverse with eta updates, so a pivot costs O(m * touched) instead
// of O(m * ncols) over a tableau inflated with one row per bound.
//
// Pricing is Dantzig with the same Bland's-rule fallback and the same
// deterministic smallest-index tie-breaking discipline as the dense
// solver: entering columns scan ascending with strict improvement, the
// ratio test breaks ties on the smallest basic variable index. Phase 1 is
// a piecewise-linear infeasibility minimization run once per SparseLp;
// solves start from that canonical snapshot. A branch-and-bound node below
// the root clones the same snapshot, applies its path bounds and runs
// phase 1 again before the primal simplex.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "ilp/model.hpp"
#include "ilp/sparse.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/cancellation.hpp"
#include "support/check.hpp"

namespace ucp::ilp {
namespace detail {

constexpr double kEps = 1e-9;      // pricing / ratio-test comparisons
constexpr double kPivTol = 1e-9;   // minimum admissible pivot magnitude
constexpr double kFeasTol = 1e-7;  // bound-violation threshold
constexpr double kTiny = 1e-12;    // skip threshold for eta row updates

using VS = std::uint8_t;
constexpr VS kAtLower = 0;
constexpr VS kAtUpper = 1;
constexpr VS kBasic = 2;

/// Mutable solve state cloned from a SparseLp's canonical snapshot. Both
/// simplex phases operate on this; the owning SparseLp is never written
/// after construction.
struct SimplexWorker {
  const SparseLp* lp = nullptr;

  // Per-node bounds (branch-and-bound tightens these copies).
  std::vector<double> lo, up;
  // Basis state.
  std::vector<double> x;
  std::vector<std::uint8_t> vstat;
  std::vector<std::int32_t> basis;
  std::vector<double> binv;  ///< row-major m x m
  // Objective (maximize form, zero on slacks) and reduced costs.
  std::vector<double> cost, d;
  bool bound_conflict = false;

  // Scratch.
  std::vector<double> alpha;  ///< Binv * A_enter
  std::vector<double> zrow;   ///< pivot row of Binv * A over all columns
  std::vector<double> y;      ///< dual prices / phase-1 prices
  std::vector<double> rhs;
  std::vector<std::int8_t> g;  ///< phase-1 infeasibility gradient per row
  std::vector<std::size_t> nz;  ///< nonzero columns of the pivot row

  std::size_t m() const { return lp->m_; }
  std::size_t n() const { return lp->n_; }
  std::size_t total() const { return lp->total_; }

  void init_from(const SparseLp& l) {
    lp = &l;
    lo = l.lower_;
    up = l.upper_;
    x = l.x_;
    vstat = l.vstat_;
    basis = l.basis_;
    binv = l.binv_;
    cost.assign(l.total_, 0.0);
    d.assign(l.total_, 0.0);
    bound_conflict = false;
    alpha.resize(l.m_);
    zrow.resize(l.total_);
    y.resize(l.m_);
    rhs.resize(l.m_);
    g.resize(l.m_);
  }

  void set_cost(const std::vector<double>& obj) {
    std::fill(cost.begin(), cost.end(), 0.0);
    const std::size_t k = std::min(obj.size(), n());
    std::copy(obj.begin(), obj.begin() + static_cast<std::ptrdiff_t>(k),
              cost.begin());
  }

  /// alpha = Binv * A_j. Slack columns are unit vectors.
  void ftran(std::int32_t j) {
    const std::size_t mm = m();
    if (static_cast<std::size_t>(j) >= n()) {
      const std::size_t i = static_cast<std::size_t>(j) - n();
      for (std::size_t r = 0; r < mm; ++r) alpha[r] = binv[r * mm + i];
      return;
    }
    const std::int32_t kb = lp->col_ptr_[static_cast<std::size_t>(j)];
    const std::int32_t ke = lp->col_ptr_[static_cast<std::size_t>(j) + 1];
    for (std::size_t r = 0; r < mm; ++r) {
      const double* br = &binv[r * mm];
      double s = 0.0;
      for (std::int32_t k = kb; k < ke; ++k)
        s += lp->val_[static_cast<std::size_t>(k)] *
             br[lp->row_idx_[static_cast<std::size_t>(k)]];
      alpha[r] = s;
    }
  }

  /// zrow[j] = (row r of Binv) . A_j for every column.
  void compute_pivot_row(std::size_t r) {
    const std::size_t mm = m();
    const double* rho = &binv[r * mm];
    for (std::size_t j = 0; j < n(); ++j) {
      const std::int32_t kb = lp->col_ptr_[j];
      const std::int32_t ke = lp->col_ptr_[j + 1];
      double s = 0.0;
      for (std::int32_t k = kb; k < ke; ++k)
        s += lp->val_[static_cast<std::size_t>(k)] *
             rho[lp->row_idx_[static_cast<std::size_t>(k)]];
      zrow[j] = s;
    }
    for (std::size_t i = 0; i < mm; ++i) zrow[n() + i] = rho[i];
  }

  /// y = c_B^T Binv; d_j = cost_j - y . A_j; d is exactly 0 on the basis.
  void compute_reduced_costs() {
    const std::size_t mm = m();
    std::fill(y.begin(), y.end(), 0.0);
    for (std::size_t i = 0; i < mm; ++i) {
      const double cb = cost[static_cast<std::size_t>(basis[i])];
      if (cb == 0.0) continue;
      const double* br = &binv[i * mm];
      for (std::size_t t = 0; t < mm; ++t) y[t] += cb * br[t];
    }
    for (std::size_t j = 0; j < n(); ++j) {
      const std::int32_t kb = lp->col_ptr_[j];
      const std::int32_t ke = lp->col_ptr_[j + 1];
      double s = 0.0;
      for (std::int32_t k = kb; k < ke; ++k)
        s += lp->val_[static_cast<std::size_t>(k)] *
             y[lp->row_idx_[static_cast<std::size_t>(k)]];
      d[j] = cost[j] - s;
    }
    for (std::size_t i = 0; i < mm; ++i) d[n() + i] = cost[n() + i] - y[i];
    for (std::size_t i = 0; i < mm; ++i)
      d[static_cast<std::size_t>(basis[i])] = 0.0;
  }

  /// Product-form update of Binv for entering column e pivoting in row r;
  /// `alpha` must hold Binv * A_e. Rows with a negligible multiplier are
  /// untouched, and the others change only in the pivot row's nonzero
  /// columns: on flow models Binv stays sparse, so this cuts phase 1 on
  /// the largest IPET (nsichneu) about threefold.
  void update_binv(std::size_t r, std::int32_t e) {
    const std::size_t mm = m();
    const double piv = alpha[r];
    UCP_CHECK(std::abs(piv) > kTiny);
    double* rowr = &binv[r * mm];
    const double inv = 1.0 / piv;
    nz.clear();
    for (std::size_t t = 0; t < mm; ++t) {
      rowr[t] *= inv;
      if (rowr[t] != 0.0) nz.push_back(t);
    }
    for (std::size_t i = 0; i < mm; ++i) {
      if (i == r) continue;
      const double f = alpha[i];
      if (std::abs(f) <= kTiny) continue;
      double* rowi = &binv[i * mm];
      for (std::size_t t : nz) rowi[t] -= f * rowr[t];
    }
    basis[r] = e;
  }

  /// Recomputes basic values exactly from the current nonbasic assignment:
  /// x_B = Binv (b - A_N x_N). Kills the drift of incremental updates so
  /// extracted solutions (and llround'ed edge counts downstream) are clean.
  void refresh_basic_values() {
    const std::size_t mm = m();
    rhs = lp->b_;
    for (std::size_t j = 0; j < total(); ++j) {
      if (vstat[j] == kBasic) continue;
      const double xj = (vstat[j] == kAtLower) ? lo[j] : up[j];
      x[j] = xj;
      if (xj == 0.0) continue;
      if (j < n()) {
        const std::int32_t kb = lp->col_ptr_[j];
        const std::int32_t ke = lp->col_ptr_[j + 1];
        for (std::int32_t k = kb; k < ke; ++k)
          rhs[lp->row_idx_[static_cast<std::size_t>(k)]] -=
              xj * lp->val_[static_cast<std::size_t>(k)];
      } else {
        rhs[j - n()] -= xj;
      }
    }
    for (std::size_t i = 0; i < mm; ++i) {
      const double* br = &binv[i * mm];
      double s = 0.0;
      for (std::size_t t = 0; t < mm; ++t) s += br[t] * rhs[t];
      x[static_cast<std::size_t>(basis[i])] = s;
    }
  }

  /// Tightens [lo, up] of `v` (branch-and-bound child bound). Nonbasic
  /// variables are shifted onto the moved bound immediately; a basic
  /// variable simply becomes primal infeasible for phase 1 to repair.
  void apply_bound(std::int32_t v, double new_lo, double new_up) {
    const auto vv = static_cast<std::size_t>(v);
    lo[vv] = std::max(lo[vv], new_lo);
    up[vv] = std::min(up[vv], new_up);
    if (lo[vv] > up[vv] + kFeasTol) {
      bound_conflict = true;
      return;
    }
    if (vstat[vv] == kBasic) return;
    const double nx = (vstat[vv] == kAtLower) ? lo[vv] : up[vv];
    const double dx = nx - x[vv];
    if (dx == 0.0) return;
    ftran(v);
    for (std::size_t i = 0; i < m(); ++i) {
      if (std::abs(alpha[i]) > kTiny)
        x[static_cast<std::size_t>(basis[i])] -= dx * alpha[i];
    }
    x[vv] = nx;
  }

  /// Applies a primal step of `theta` along entering variable e (direction
  /// `dir`); `alpha` holds Binv * A_e.
  void move_along(std::int32_t e, int dir, double theta) {
    const double step = dir * theta;
    if (step != 0.0) {
      for (std::size_t i = 0; i < m(); ++i) {
        if (std::abs(alpha[i]) > kTiny)
          x[static_cast<std::size_t>(basis[i])] -= step * alpha[i];
      }
    }
    x[static_cast<std::size_t>(e)] += step;
  }

  /// Updates the maintained reduced costs for a pivot in row r with
  /// entering column e; must run on the *pre-update* basis inverse.
  void update_reduced_costs(std::size_t r, std::int32_t e) {
    compute_pivot_row(r);
    const double dratio = d[static_cast<std::size_t>(e)] / alpha[r];
    if (dratio != 0.0) {
      for (std::size_t j = 0; j < total(); ++j) d[j] -= dratio * zrow[j];
    }
    d[static_cast<std::size_t>(e)] = 0.0;
  }

  /// Phase 2 primal simplex: assumes a primal-feasible basis and current
  /// reduced costs `d`; maximizes `cost`. Dantzig pricing, Bland fallback,
  /// dense-compatible deterministic tie-breaking.
  SolveStatus primal(SolveStats& stats) {
    const std::size_t mm = m();
    const std::size_t nn = total();
    std::uint64_t iters = 0;
    std::uint64_t since_refresh = 0;
    const std::uint64_t bland_after = 4 * (mm + nn) + 64;
    while (true) {
      throw_if_cancelled("sparse simplex (primal)");
      if (iters++ > kMaxPivots) return SolveStatus::kIterationLimit;
      const bool bland = iters > bland_after;

      // Entering column: ascending scan, strict improvement => smallest
      // index among ties, exactly like the dense objective-row scan.
      std::int32_t e = -1;
      int dir = 0;
      double best = kEps;
      for (std::size_t j = 0; j < nn; ++j) {
        if (vstat[j] == kBasic || lo[j] == up[j]) continue;
        const double dj = d[j];
        if (vstat[j] == kAtLower) {
          if (dj > best) {
            best = dj;
            e = static_cast<std::int32_t>(j);
            dir = +1;
            if (bland) break;
          }
        } else {
          if (-dj > best) {
            best = -dj;
            e = static_cast<std::int32_t>(j);
            dir = -1;
            if (bland) break;
          }
        }
      }
      if (e < 0) return SolveStatus::kOptimal;
      const auto ee = static_cast<std::size_t>(e);
      ftran(e);

      // Ratio test: smallest step, ties to the smallest basic variable
      // index (as in the dense tableau); the entering variable's own
      // range competes as a bound flip, losing ties to row pivots.
      double theta = kInfinity;
      std::ptrdiff_t blocker = -1;  // -1 unbounded, -2 bound flip, else row
      if (up[ee] != kInfinity && lo[ee] != -kInfinity) {
        theta = up[ee] - lo[ee];
        blocker = -2;
      }
      for (std::size_t i = 0; i < mm; ++i) {
        const double delta = dir * alpha[i];
        const auto bi = static_cast<std::size_t>(basis[i]);
        double r;
        if (delta > kPivTol) {
          if (lo[bi] == -kInfinity) continue;
          r = (x[bi] - lo[bi]) / delta;
        } else if (delta < -kPivTol) {
          if (up[bi] == kInfinity) continue;
          r = (up[bi] - x[bi]) / (-delta);
        } else {
          continue;
        }
        if (r < 0.0) r = 0.0;  // feasibility drift within tolerance
        if (blocker == -1 || r < theta - kEps) {
          theta = r;
          blocker = static_cast<std::ptrdiff_t>(i);
        } else if (r < theta + kEps) {
          if (blocker == -2) {
            if (r < theta) theta = r;
            blocker = static_cast<std::ptrdiff_t>(i);
          } else if (basis[i] < basis[static_cast<std::size_t>(blocker)]) {
            if (r < theta) theta = r;
            blocker = static_cast<std::ptrdiff_t>(i);
          }
        }
      }
      if (blocker == -1) return SolveStatus::kUnbounded;

      if (blocker == -2) {
        // Bound flip: the entering variable crosses its whole range
        // without any basic hitting a bound; the basis is unchanged.
        move_along(e, dir, theta);
        x[ee] = (dir > 0) ? up[ee] : lo[ee];
        vstat[ee] = (dir > 0) ? kAtUpper : kAtLower;
        ++stats.pivots;
        continue;
      }

      const auto r = static_cast<std::size_t>(blocker);
      const auto bl = static_cast<std::size_t>(basis[r]);
      move_along(e, dir, theta);
      if (dir * alpha[r] > 0.0) {
        x[bl] = lo[bl];
        vstat[bl] = kAtLower;
      } else {
        x[bl] = up[bl];
        vstat[bl] = kAtUpper;
      }
      update_reduced_costs(r, e);
      vstat[ee] = kBasic;
      update_binv(r, e);
      ++stats.pivots;
      if (++since_refresh >= 256) {
        // Guard the incrementally maintained reduced costs against drift.
        since_refresh = 0;
        compute_reduced_costs();
      }
    }
  }

  /// Phase 1: piecewise-linear infeasibility minimization. Drives every
  /// basic variable into its [lo, up] box; the gradient (-1 below, +1
  /// above) is recomputed each iteration, so bound crossings are handled
  /// by blocking at the crossed bound. Does not touch `cost`/`d`.
  SolveStatus phase1(SolveStats& stats) {
    const std::size_t mm = m();
    const std::size_t nn = total();
    std::uint64_t iters = 0;
    const std::uint64_t bland_after = 4 * (mm + nn) + 64;
    while (true) {
      bool any = false;
      for (std::size_t i = 0; i < mm; ++i) {
        const auto bi = static_cast<std::size_t>(basis[i]);
        if (x[bi] < lo[bi] - kFeasTol) {
          g[i] = -1;
          any = true;
        } else if (x[bi] > up[bi] + kFeasTol) {
          g[i] = +1;
          any = true;
        } else {
          g[i] = 0;
        }
      }
      if (!any) return SolveStatus::kOptimal;
      throw_if_cancelled("sparse simplex (phase 1)");
      if (iters++ > kMaxPivots) return SolveStatus::kIterationLimit;
      const bool bland = iters > bland_after;

      // Prices of the infeasibility objective: y = g^T Binv (sparse in g).
      std::fill(y.begin(), y.end(), 0.0);
      for (std::size_t i = 0; i < mm; ++i) {
        if (g[i] == 0) continue;
        const double gi = g[i];
        const double* br = &binv[i * mm];
        for (std::size_t t = 0; t < mm; ++t) y[t] += gi * br[t];
      }

      // Entering: steepest decrease of the infeasibility sum; the
      // derivative of f along +x_j is -(y . A_j).
      std::int32_t e = -1;
      int dir = 0;
      double best = kEps;
      for (std::size_t j = 0; j < nn; ++j) {
        if (vstat[j] == kBasic || lo[j] == up[j]) continue;
        double s;
        if (j < n()) {
          const std::int32_t kb = lp->col_ptr_[j];
          const std::int32_t ke = lp->col_ptr_[j + 1];
          s = 0.0;
          for (std::int32_t k = kb; k < ke; ++k)
            s += lp->val_[static_cast<std::size_t>(k)] *
                 y[lp->row_idx_[static_cast<std::size_t>(k)]];
        } else {
          s = y[j - n()];
        }
        const double df = -s;  // df/dx_j
        if (vstat[j] == kAtLower) {
          if (-df > best) {
            best = -df;
            e = static_cast<std::int32_t>(j);
            dir = +1;
            if (bland) break;
          }
        } else {
          if (df > best) {
            best = df;
            e = static_cast<std::int32_t>(j);
            dir = -1;
            if (bland) break;
          }
        }
      }
      if (e < 0) return SolveStatus::kInfeasible;
      const auto ee = static_cast<std::size_t>(e);
      ftran(e);

      double theta = kInfinity;
      std::ptrdiff_t blocker = -1;
      if (up[ee] != kInfinity && lo[ee] != -kInfinity) {
        theta = up[ee] - lo[ee];
        blocker = -2;
      }
      for (std::size_t i = 0; i < mm; ++i) {
        const double delta = dir * alpha[i];
        const auto bi = static_cast<std::size_t>(basis[i]);
        double r;
        if (g[i] < 0) {
          // Below its lower bound and moving up: blocks on arrival.
          if (delta >= -kPivTol) continue;
          r = (lo[bi] - x[bi]) / (-delta);
        } else if (g[i] > 0) {
          if (delta <= kPivTol) continue;
          r = (x[bi] - up[bi]) / delta;
        } else if (delta > kPivTol) {
          if (lo[bi] == -kInfinity) continue;
          r = (x[bi] - lo[bi]) / delta;
        } else if (delta < -kPivTol) {
          if (up[bi] == kInfinity) continue;
          r = (up[bi] - x[bi]) / (-delta);
        } else {
          continue;
        }
        if (r < 0.0) r = 0.0;
        if (blocker == -1 || r < theta - kEps) {
          theta = r;
          blocker = static_cast<std::ptrdiff_t>(i);
        } else if (r < theta + kEps) {
          if (blocker == -2) {
            if (r < theta) theta = r;
            blocker = static_cast<std::ptrdiff_t>(i);
          } else if (basis[i] < basis[static_cast<std::size_t>(blocker)]) {
            if (r < theta) theta = r;
            blocker = static_cast<std::ptrdiff_t>(i);
          }
        }
      }
      // A decreasing infeasibility sum is bounded below by zero, so some
      // blocker must exist; bail out defensively if numerics disagree.
      if (blocker == -1) return SolveStatus::kIterationLimit;

      if (blocker == -2) {
        move_along(e, dir, theta);
        x[ee] = (dir > 0) ? up[ee] : lo[ee];
        vstat[ee] = (dir > 0) ? kAtUpper : kAtLower;
        ++stats.pivots;
        continue;
      }

      const auto r = static_cast<std::size_t>(blocker);
      const auto bl = static_cast<std::size_t>(basis[r]);
      move_along(e, dir, theta);
      if (g[r] < 0) {
        x[bl] = lo[bl];
        vstat[bl] = kAtLower;
      } else if (g[r] > 0) {
        x[bl] = up[bl];
        vstat[bl] = kAtUpper;
      } else if (dir * alpha[r] > 0.0) {
        x[bl] = lo[bl];
        vstat[bl] = kAtLower;
      } else {
        x[bl] = up[bl];
        vstat[bl] = kAtUpper;
      }
      vstat[ee] = kBasic;
      update_binv(r, e);
      ++stats.pivots;
    }
  }

  double objective_value() const {
    double s = 0.0;
    for (std::size_t j = 0; j < n(); ++j) s += cost[j] * x[j];
    return s;
  }
};

}  // namespace detail

// --- SparseLp ---------------------------------------------------------------

SparseLp::SparseLp(const Model& model) {
  n_ = model.num_vars();
  m_ = model.num_constraints();
  total_ = n_ + m_;

  lower_.resize(total_);
  upper_.resize(total_);
  integer_.resize(n_);
  for (std::size_t v = 0; v < n_; ++v) {
    const auto& var = model.var(static_cast<VarId>(v));
    lower_[v] = var.lower;
    upper_[v] = var.upper;
    integer_[v] = var.integer ? 1 : 0;
  }

  b_.resize(m_);
  struct Entry {
    std::int32_t col;
    std::int32_t row;
    double val;
  };
  std::vector<Entry> entries;
  for (std::size_t i = 0; i < m_; ++i) {
    const auto& c = model.constraints()[i];
    b_[i] = c.rhs;
    for (const Term& t : c.terms)
      entries.push_back(Entry{t.var, static_cast<std::int32_t>(i), t.coeff});
    // Slack bounds encode the relation of the equality-form row
    // A x + s = b:  kLe -> s in [0, inf), kGe -> s in (-inf, 0],
    // kEq -> s fixed at 0.
    const std::size_t sj = n_ + i;
    switch (c.rel) {
      case Rel::kLe:
        lower_[sj] = 0.0;
        upper_[sj] = kInfinity;
        break;
      case Rel::kGe:
        lower_[sj] = -kInfinity;
        upper_[sj] = 0.0;
        break;
      case Rel::kEq:
        lower_[sj] = 0.0;
        upper_[sj] = 0.0;
        break;
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return a.col != b.col ? a.col < b.col : a.row < b.row;
            });
  col_ptr_.assign(n_ + 1, 0);
  row_idx_.reserve(entries.size());
  val_.reserve(entries.size());
  for (std::size_t k = 0; k < entries.size();) {
    // Merge duplicate (row, col) terms by summing, as the dense build did.
    std::size_t k2 = k + 1;
    double v = entries[k].val;
    while (k2 < entries.size() && entries[k2].col == entries[k].col &&
           entries[k2].row == entries[k].row) {
      v += entries[k2].val;
      ++k2;
    }
    row_idx_.push_back(entries[k].row);
    val_.push_back(v);
    ++col_ptr_[static_cast<std::size_t>(entries[k].col) + 1];
    k = k2;
  }
  for (std::size_t j = 0; j < n_; ++j) col_ptr_[j + 1] += col_ptr_[j];

  // Canonical start: all slacks basic (Binv = I), structural variables at
  // their (finite, model-enforced) lower bounds.
  x_.assign(total_, 0.0);
  vstat_.assign(total_, kAtLower);
  basis_.resize(m_);
  for (std::size_t v = 0; v < n_; ++v) x_[v] = lower_[v];
  for (std::size_t i = 0; i < m_; ++i) {
    basis_[i] = static_cast<std::int32_t>(n_ + i);
    vstat_[n_ + i] = kBasic;
  }
  for (std::size_t i = 0; i < m_; ++i) x_[n_ + i] = b_[i];
  for (std::size_t j = 0; j < n_; ++j) {
    const double xj = x_[j];
    if (xj == 0.0) continue;
    for (std::int32_t k = col_ptr_[j]; k < col_ptr_[j + 1]; ++k)
      x_[n_ + static_cast<std::size_t>(
                  row_idx_[static_cast<std::size_t>(k)])] -=
          xj * val_[static_cast<std::size_t>(k)];
  }
  binv_.assign(m_ * m_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) binv_[i * m_ + i] = 1.0;

  // One-time phase 1 builds the canonical feasible basis every later solve
  // clones.
  detail::SimplexWorker w;
  w.init_from(*this);
  SolveStats stats;
  canonical_status_ = w.phase1(stats);
  construction_pivots_ = stats.pivots;
  if (canonical_status_ == SolveStatus::kOptimal) {
    w.refresh_basic_values();
    x_ = std::move(w.x);
    vstat_ = std::move(w.vstat);
    basis_ = std::move(w.basis);
    binv_ = std::move(w.binv);
  }
}

namespace {

Solution extract(const detail::SimplexWorker& w, SolveStatus status,
                 SolveStats stats) {
  Solution solution;
  solution.status = status;
  solution.stats = stats;
  if (status != SolveStatus::kOptimal) return solution;
  solution.values.assign(w.x.begin(),
                         w.x.begin() + static_cast<std::ptrdiff_t>(w.n()));
  solution.objective = w.objective_value();
  return solution;
}

}  // namespace

namespace {

/// One registry add per solve, after the stats are final — the simplex's
/// inner loops never touch shared atomics (DESIGN.md §11).
void publish_solve_stats(const SolveStats& stats) {
  if (!obs::enabled()) return;
  static obs::Counter& c_solves =
      obs::registry().counter("ilp.solve.lp_solves");
  static obs::Counter& c_pivots = obs::registry().counter("ilp.solve.pivots");
  static obs::Counter& c_nodes = obs::registry().counter("ilp.solve.bb_nodes");
  c_solves.add(stats.lp_solves);
  c_pivots.add(stats.pivots);
  c_nodes.add(stats.bb_nodes);
}

}  // namespace

Solution SparseLp::solve_lp_with(const std::vector<double>& obj) const {
  obs::Span span("ilp.solve.lp");
  SolveStats stats;
  stats.lp_solves = 1;
  if (canonical_status_ != SolveStatus::kOptimal) {
    Solution solution;
    solution.status = canonical_status_;
    solution.stats = stats;
    publish_solve_stats(solution.stats);
    return solution;
  }
  detail::SimplexWorker w;
  w.init_from(*this);
  w.set_cost(obj);
  w.compute_reduced_costs();
  const SolveStatus status = w.primal(stats);
  if (status == SolveStatus::kOptimal) w.refresh_basic_values();
  Solution solution = extract(w, status, stats);
  publish_solve_stats(solution.stats);
  return solution;
}

Solution SparseLp::solve_ilp_with(const std::vector<double>& obj) const {
  struct NodeBound {
    std::int32_t var;
    double lo;
    double up;
  };
  using Path = std::vector<NodeBound>;  ///< bound overrides along the path

  obs::Span span("ilp.solve.bb");
  Solution best;
  best.status = SolveStatus::kInfeasible;
  bool have_best = false;
  SolveStats stats;

  std::vector<Path> stack;
  stack.push_back({});
  std::uint64_t nodes = 0;
  SolveStatus worst_failure = SolveStatus::kInfeasible;

  while (!stack.empty()) {
    throw_if_cancelled("branch-and-bound");
    if (++nodes > kMaxBbNodes) {
      if (!have_best) best.status = SolveStatus::kIterationLimit;
      best.stats = stats;
      publish_solve_stats(best.stats);
      return best;
    }
    stats.bb_nodes = nodes;
    const Path path = std::move(stack.back());
    stack.pop_back();

    // Solve the node relaxation: clone the canonical snapshot, apply the
    // path bounds, repair feasibility with phase 1 (nothing to repair at
    // the root), then optimize.
    detail::SimplexWorker w;
    SolveStatus status = canonical_status_;
    ++stats.lp_solves;
    if (status == SolveStatus::kOptimal) {
      w.init_from(*this);
      w.set_cost(obj);
      for (const NodeBound& nb : path) w.apply_bound(nb.var, nb.lo, nb.up);
      if (w.bound_conflict) {
        status = SolveStatus::kInfeasible;
      } else {
        status = w.phase1(stats);
        if (status == SolveStatus::kOptimal) {
          w.compute_reduced_costs();
          status = w.primal(stats);
        }
      }
    }

    if (status == SolveStatus::kUnbounded ||
        status == SolveStatus::kIterationLimit) {
      worst_failure = status;
      continue;
    }
    if (status != SolveStatus::kOptimal) continue;
    w.refresh_basic_values();
    const double objective = w.objective_value();
    if (have_best && objective <= best.objective + kIntTolerance)
      continue;  // bound: cannot beat incumbent

    // Find the most fractional integer variable (strict >, so the smallest
    // index wins ties — same rule as the dense branch-and-bound).
    std::int32_t branch_var = -1;
    double branch_frac = kIntTolerance;
    for (std::size_t v = 0; v < n_; ++v) {
      if (!integer_[v]) continue;
      const double xv = w.x[v];
      const double frac = std::abs(xv - std::round(xv));
      if (frac > branch_frac) {
        branch_frac = frac;
        branch_var = static_cast<std::int32_t>(v);
      }
    }
    if (branch_var < 0) {
      // Integral: candidate incumbent.
      if (!have_best || objective > best.objective) {
        best.status = SolveStatus::kOptimal;
        best.objective = objective;
        best.values.assign(
            w.x.begin(), w.x.begin() + static_cast<std::ptrdiff_t>(n_));
        for (std::size_t v = 0; v < n_; ++v) {
          if (integer_[v]) best.values[v] = std::round(best.values[v]);
        }
        have_best = true;
      }
      continue;
    }

    const double xb = w.x[static_cast<std::size_t>(branch_var)];
    Path down = path;
    down.push_back(NodeBound{branch_var, -kInfinity, std::floor(xb)});
    Path up = path;
    up.push_back(NodeBound{branch_var, std::ceil(xb), kInfinity});
    // DFS; push "up" last so the larger-count branch (usually the WCET
    // direction) is explored first.
    stack.push_back(std::move(down));
    stack.push_back(std::move(up));
  }

  if (!have_best) best.status = worst_failure;
  best.stats = stats;
  publish_solve_stats(best.stats);
  return best;
}

// --- Model-level entry points ----------------------------------------------

namespace {

std::vector<double> signed_objective(const Model& model, double sign) {
  std::vector<double> obj(model.num_vars(), 0.0);
  for (const Term& t : model.objective())
    obj[static_cast<std::size_t>(t.var)] += sign * t.coeff;
  return obj;
}

}  // namespace

Solution solve_lp(const Model& model) {
  const double sign = model.maximize() ? 1.0 : -1.0;
  const SparseLp lp(model);
  Solution solution = lp.solve_lp_with(signed_objective(model, sign));
  solution.objective *= sign;
  // The one-shot API pays for construction phase 1 here, so its pivots
  // count.
  solution.stats.pivots += lp.construction_pivots();
  return solution;
}

Solution solve_ilp(const Model& model) {
  const double sign = model.maximize() ? 1.0 : -1.0;
  const SparseLp lp(model);
  Solution solution = lp.solve_ilp_with(signed_objective(model, sign));
  solution.objective *= sign;
  solution.stats.pivots += lp.construction_pivots();
  return solution;
}

}  // namespace ucp::ilp
