// Regular (fixed-size) Invertible Bloom Lookup Table -- the non-rateless
// baseline of the paper's Fig 7 (Goodrich & Mitzenmacher 2011; Eppstein et
// al. 2011 for set reconciliation).
//
// Each item maps to k cells, one per sub-table (partitioned hashing keeps
// the k indices distinct, as in Eppstein et al.'s implementation). Cells
// reuse the core CodedSymbol format (sum / keyed checksum / count). IBLTs
// with equal geometry subtract cell-wise; the peeling decoder recovers the
// symmetric difference or fails (probabilistically -- unlike Rateless IBLT
// there is no way to extend a failed table, Fig 3 / Theorems A.1-A.2).
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "core/coded_symbol.hpp"
#include "core/sketch.hpp"
#include "core/symbol.hpp"

namespace ribltx::iblt {

template <Symbol T, typename Hasher = SipHasher<T>>
class Iblt {
 public:
  /// `num_cells` total cells, `k` sub-tables (hash functions). num_cells is
  /// rounded up to a multiple of k. `salt` decorrelates cell placement from
  /// the checksum hash (and from other IBLT instances).
  Iblt(std::size_t num_cells, unsigned k, Hasher hasher = Hasher{},
       std::uint64_t salt = 0)
      : hasher_(std::move(hasher)), k_(k), salt_(salt) {
    if (k == 0) throw std::invalid_argument("Iblt: k must be positive");
    if (num_cells == 0) throw std::invalid_argument("Iblt: need cells");
    subtable_ = (num_cells + k - 1) / k;
    cells_.resize(subtable_ * k);
  }

  void add_symbol(const T& s) { apply(hasher_.hashed(s), Direction::kAdd); }
  void remove_symbol(const T& s) {
    apply(hasher_.hashed(s), Direction::kRemove);
  }

  void apply(const HashedSymbol<T>& s, Direction dir) noexcept {
    for (unsigned j = 0; j < k_; ++j) {
      cells_[cell_index(s.hash, j)].apply(s, dir);
    }
  }

  /// Cell-wise subtraction; geometries must match.
  Iblt& subtract(const Iblt& other) {
    if (other.cells_.size() != cells_.size() || other.k_ != k_ ||
        other.salt_ != salt_) {
      throw std::invalid_argument("Iblt::subtract: geometry mismatch");
    }
    subtract_run<T>(cells_, other.cells_);
    return *this;
  }

  friend Iblt operator-(Iblt a, const Iblt& b) {
    a.subtract(b);
    return a;
  }

  /// Cell-wise *addition*: folds `other`'s encoded multiset into this
  /// table, as if every item had been applied here directly (cell updates
  /// are linear, so add commutes exactly like subtract). Lets per-thread
  /// replica tables be maintained independently and merged when a combined
  /// view is needed. Geometries must match.
  Iblt& absorb(const Iblt& other) {
    if (other.cells_.size() != cells_.size() || other.k_ != k_ ||
        other.salt_ != salt_) {
      throw std::invalid_argument("Iblt::absorb: geometry mismatch");
    }
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      cells_[i].sum ^= other.cells_[i].sum;
      cells_[i].checksum ^= other.cells_[i].checksum;
      cells_[i].count = wrapping_add(cells_[i].count, other.cells_[i].count);
    }
    return *this;
  }

  /// Peels this (difference) IBLT. success = fully decoded; on failure the
  /// partial recovery is returned (regular IBLTs usually recover *nothing*
  /// when undersized -- Theorem A.1).
  ///
  /// `checksum_mask` supports narrow wire checksums (the §7.1 trick, ported
  /// from the rateless decoder): when the peer's cells carry truncated
  /// (e.g. 4-byte) checksums, pass the matching mask. Every cell's checksum
  /// is reduced modulo the mask up front (masking commutes with XOR, so
  /// mixed masked-remote / full-local cells settle into the masked domain),
  /// purity is verified against the masked keyed hash, and the full 64-bit
  /// hash driving cell placement is recomputed from the recovered sum.
  [[nodiscard]] DecodeResult<T> decode(
      std::uint64_t checksum_mask = ~std::uint64_t{0}) const {
    std::vector<CodedSymbol<T>> cells(cells_.begin(), cells_.end());
    if (checksum_mask != ~std::uint64_t{0}) {
      for (auto& c : cells) c.checksum &= checksum_mask;
    }
    const auto pure = [&](const CodedSymbol<T>& c) {
      return (c.count == 1 || c.count == -1) &&
             (hasher_(c.sum) & checksum_mask) == c.checksum;
    };
    DecodeResult<T> out;

    std::vector<std::size_t> queue;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (pure(cells[i])) queue.push_back(i);
    }
    while (!queue.empty()) {
      const std::size_t i = queue.back();
      queue.pop_back();
      if (!pure(cells[i])) continue;  // stale entry
      // Recompute the full hash from the sum: under a narrow mask the cell
      // only holds the low checksum bits, and cell placement needs all 64.
      const HashedSymbol<T> sym{cells[i].sum, hasher_(cells[i].sum)};
      const bool is_remote = cells[i].count == 1;
      (is_remote ? out.remote : out.local).push_back(sym);
      const Direction dir = is_remote ? Direction::kRemove : Direction::kAdd;
      for (unsigned j = 0; j < k_; ++j) {
        const std::size_t ci = cell_index(sym.hash, j);
        cells[ci].apply(sym, dir);
        cells[ci].checksum &= checksum_mask;
        if (pure(cells[ci])) queue.push_back(ci);
      }
    }

    out.success = true;
    for (const auto& c : cells) {
      if (!c.is_empty()) {
        out.success = false;
        break;
      }
    }
    return out;
  }

  /// Replaces this table's cells with cells received off the wire (see
  /// iblt_wire.hpp); the table must have been constructed with the sender's
  /// geometry (same cell count, k, and salt) for decode to be meaningful.
  void load_cells(std::span<const CodedSymbol<T>> cells) {
    if (cells.size() != cells_.size()) {
      throw std::invalid_argument("Iblt::load_cells: cell count mismatch");
    }
    for (std::size_t i = 0; i < cells_.size(); ++i) cells_[i] = cells[i];
  }

  [[nodiscard]] std::size_t cell_count() const noexcept {
    return cells_.size();
  }
  [[nodiscard]] unsigned k() const noexcept { return k_; }
  [[nodiscard]] std::span<const CodedSymbol<T>> cells() const noexcept {
    return cells_;
  }

  /// Bytes this IBLT occupies on the wire under the paper's accounting for
  /// the baselines (§7: 8-byte checksum and 8-byte count per cell).
  [[nodiscard]] std::size_t serialized_size() const noexcept {
    return cells_.size() * (T::kSize + 8 + 8);
  }

 private:
  [[nodiscard]] std::size_t cell_index(std::uint64_t hash,
                                       unsigned j) const noexcept {
    // Sub-table j gets an independently mixed index; partitioning keeps the
    // k cell choices distinct so counts stay consistent.
    const std::uint64_t h = mix64(hash ^ salt_ ^ (0x9e3779b97f4a7c15ULL * (j + 1)));
    return static_cast<std::size_t>(j) * subtable_ +
           static_cast<std::size_t>(h % subtable_);
  }

  Hasher hasher_;
  unsigned k_;
  std::uint64_t salt_;
  std::size_t subtable_;
  std::vector<CodedSymbol<T>> cells_;
};

}  // namespace ribltx::iblt
