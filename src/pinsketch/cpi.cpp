#include "pinsketch/cpi.hpp"

#include <stdexcept>

#include "common/rng.hpp"
#include "pinsketch/poly.hpp"

namespace ribltx::cpi {

using pinsketch::GF64;
using pinsketch::Poly;

GF64 CpiSketch::eval_point(std::size_t j) noexcept {
  // Fixed pseudorandom nonzero points, identical for all parties.
  std::uint64_t v = mix64(0xC7A9ac7e9157ULL + j);
  if (v == 0) v = 1;
  return GF64(v);
}

CpiSketch::CpiSketch(std::size_t capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("CpiSketch: capacity must be positive");
  }
  evals_.assign(capacity, GF64::one());
}

void CpiSketch::add_symbol(const U64Symbol& s) {
  add_element(GF64::from_symbol(s));
}

void CpiSketch::add_element(GF64 x) {
  if (x.is_zero()) {
    throw std::invalid_argument("CpiSketch: items must be nonzero");
  }
  for (std::size_t j = 0; j < evals_.size(); ++j) {
    const GF64 factor = eval_point(j) + x;  // (e_j - x) in char 2
    if (factor.is_zero()) {
      throw std::invalid_argument(
          "CpiSketch: item collides with an evaluation point");
    }
    evals_[j] *= factor;
  }
  ++set_size_;
}

GF64 CpiSketch::evaluate_at(std::span<const U64Symbol> items, std::size_t j) {
  const GF64 e = eval_point(j);
  GF64 acc = GF64::one();
  for (const U64Symbol& s : items) {
    const GF64 x = GF64::from_symbol(s);
    if (x.is_zero()) {
      throw std::invalid_argument("CpiSketch: items must be nonzero");
    }
    const GF64 factor = e + x;
    if (factor.is_zero()) {
      throw std::invalid_argument(
          "CpiSketch: item collides with an evaluation point");
    }
    acc *= factor;
  }
  return acc;
}

CpiSketch CpiSketch::from_evaluations(std::span<const GF64> evals,
                                      std::size_t set_size) {
  if (evals.empty()) {
    throw std::invalid_argument("CpiSketch::from_evaluations: need points");
  }
  CpiSketch out(evals.size());
  out.evals_.assign(evals.begin(), evals.end());
  out.set_size_ = set_size;
  return out;
}

void CpiSketch::remove_symbol(const U64Symbol& s) {
  const GF64 x = GF64::from_symbol(s);
  if (x.is_zero() || set_size_ == 0) {
    throw std::invalid_argument("CpiSketch: invalid removal");
  }
  for (std::size_t j = 0; j < evals_.size(); ++j) {
    evals_[j] *= (eval_point(j) + x).inverse();
  }
  --set_size_;
}

namespace {

/// Solves the m x u system over GF(2^64) by Gaussian elimination (forward
/// elimination to row-echelon form, then back-substitution -- about a third
/// of the field multiplies of full Gauss-Jordan, same O(m^3) class this
/// baseline is meant to exhibit). Returns false on inconsistency. Free
/// variables (rank deficiency, which happens when the true difference is
/// below capacity) are set to zero; the caller verifies the reconstruction
/// regardless.
bool gaussian_solve(std::vector<std::vector<GF64>>& rows, std::size_t unknowns,
                    std::vector<GF64>& solution) {
  const std::size_t m = rows.size();
  std::vector<std::size_t> pivot_of_col(unknowns, SIZE_MAX);
  std::size_t rank = 0;
  for (std::size_t col = 0; col < unknowns && rank < m; ++col) {
    std::size_t pivot = SIZE_MAX;
    for (std::size_t r = rank; r < m; ++r) {
      if (!rows[r][col].is_zero()) {
        pivot = r;
        break;
      }
    }
    if (pivot == SIZE_MAX) continue;
    std::swap(rows[rank], rows[pivot]);
    const GF64 inv = rows[rank][col].inverse();
    for (std::size_t c = col; c <= unknowns; ++c) rows[rank][c] *= inv;
    for (std::size_t r = rank + 1; r < m; ++r) {
      if (rows[r][col].is_zero()) continue;
      const GF64 f = rows[r][col];
      for (std::size_t c = col; c <= unknowns; ++c) {
        rows[r][c] += f * rows[rank][c];
      }
    }
    pivot_of_col[col] = rank;
    ++rank;
  }
  // Inconsistent row: all-zero coefficients with nonzero RHS (rows past the
  // rank are fully eliminated -- any nonzero coefficient there would have
  // been picked as a pivot when its column was scanned).
  for (std::size_t r = rank; r < m; ++r) {
    if (!rows[r][unknowns].is_zero()) return false;
  }
  solution.assign(unknowns, GF64::zero());
  for (std::size_t col = unknowns; col-- > 0;) {
    const std::size_t pr = pivot_of_col[col];
    if (pr == SIZE_MAX) continue;  // free variable: zero
    GF64 v = rows[pr][unknowns];
    for (std::size_t c = col + 1; c < unknowns; ++c) {
      if (!solution[c].is_zero() && !rows[pr][c].is_zero()) {
        v += rows[pr][c] * solution[c];
      }
    }
    solution[col] = v;
  }
  return true;
}

}  // namespace

CpiSketch::Result CpiSketch::reconcile(const CpiSketch& alice,
                                       const CpiSketch& bob) {
  Result out;
  const std::size_t m = alice.capacity();
  if (bob.capacity() != m) {
    throw std::invalid_argument("CpiSketch::reconcile: capacity mismatch");
  }

  // Degree split: d_A - d_B = |A| - |B| is known; d_A + d_B <= m. Any
  // slack becomes a common factor of P and Q, stripped by gcd below (MTZ
  // §3). In char-2 arithmetic subtraction is addition throughout. The
  // sizes are compared unsigned: a peer's size may be anything up to
  // 2^64 - 1, and only a gap within the capacity is signed-safe.
  const std::size_t size_a = alice.set_size();
  const std::size_t size_b = bob.set_size();
  const std::size_t gap = size_a > size_b ? size_a - size_b : size_b - size_a;
  if (gap > m) return out;  // difference exceeds capacity
  const auto mi = static_cast<std::int64_t>(m);
  const std::int64_t delta = size_a >= size_b
                                 ? static_cast<std::int64_t>(gap)
                                 : -static_cast<std::int64_t>(gap);
  const auto deg_p = static_cast<std::size_t>((mi + delta) / 2);
  const auto deg_q =
      static_cast<std::size_t>(static_cast<std::int64_t>(deg_p) - delta);

  // Unknowns: p_0..p_{deg_p-1}, q_0..q_{deg_q-1} (both polynomials monic).
  // Equation at e_j:  sum_i p_i e^i + r_j sum_i q_i e^i
  //                 = r_j e^{deg_q} + e^{deg_p},   r_j = chiA(e)/chiB(e).
  const std::size_t unknowns = deg_p + deg_q;
  std::vector<std::vector<GF64>> rows(
      m, std::vector<GF64>(unknowns + 1, GF64::zero()));
  for (std::size_t j = 0; j < m; ++j) {
    const GF64 e = eval_point(j);
    if (bob.evals_[j].is_zero() || alice.evals_[j].is_zero()) return out;
    const GF64 r = alice.evals_[j] * bob.evals_[j].inverse();
    GF64 power = GF64::one();
    for (std::size_t i = 0; i < deg_p; ++i) {
      rows[j][i] = power;
      power *= e;
    }
    const GF64 e_deg_p = power;
    power = GF64::one();
    for (std::size_t i = 0; i < deg_q; ++i) {
      rows[j][deg_p + i] = r * power;
      power *= e;
    }
    rows[j][unknowns] = r * power + e_deg_p;  // RHS (power = e^{deg_q})
  }

  std::vector<GF64> solution;
  if (!gaussian_solve(rows, unknowns, solution)) return out;

  std::vector<GF64> pc(solution.begin(),
                       solution.begin() + static_cast<std::ptrdiff_t>(deg_p));
  pc.push_back(GF64::one());
  std::vector<GF64> qc(solution.begin() + static_cast<std::ptrdiff_t>(deg_p),
                       solution.end());
  qc.push_back(GF64::one());
  Poly p(std::move(pc)), q(std::move(qc));

  // Strip the common slack factor.
  const Poly g = Poly::gcd(p, q);
  if (g.degree() > 0) {
    p = p.divmod(g).quotient;
    q = q.divmod(g).quotient;
  }

  std::vector<GF64> roots_p, roots_q;
  if (p.degree() > 0 && !pinsketch::find_roots(p, roots_p)) return out;
  if (q.degree() > 0 && !pinsketch::find_roots(q, roots_q)) return out;

  // Verify the rational function against every transmitted evaluation.
  for (std::size_t j = 0; j < m; ++j) {
    const GF64 e = eval_point(j);
    const GF64 qv = q.eval(e);
    if (qv.is_zero()) return out;
    const GF64 r = alice.evals_[j] * bob.evals_[j].inverse();
    if (p.eval(e) != r * qv) return out;
  }
  // Cross-check the degree split against the exchanged set sizes.
  if (static_cast<std::int64_t>(roots_p.size()) -
          static_cast<std::int64_t>(roots_q.size()) !=
      delta) {
    return out;
  }

  out.success = true;
  for (const GF64& x : roots_p) out.alice_only.push_back(x.to_symbol());
  for (const GF64& x : roots_q) out.bob_only.push_back(x.to_symbol());
  return out;
}

}  // namespace ribltx::cpi
