// Coded symbol: one cell of a (rateless) IBLT.
//
// Format per the paper §3: `sum` (XOR of mapped source symbols), `checksum`
// (XOR of their keyed hashes), `count` (signed number of mapped symbols;
// negative counts appear only in *difference* cells, after subtraction).
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

#include "core/symbol.hpp"

namespace ribltx {

/// Count arithmetic wraps (two's complement, through the unsigned type).
/// Counts arrive from peers as any integer, where a signed add could
/// overflow (undefined behaviour); peeling only compares a count with 0 and
/// +/-1, so honest streams decode bit-identically, and the add stays one
/// instruction.
template <std::signed_integral I>
[[nodiscard]] constexpr I wrapping_add(I a, I b) noexcept {
  using U = std::make_unsigned_t<I>;
  return static_cast<I>(static_cast<U>(a) + static_cast<U>(b));
}

template <std::signed_integral I>
[[nodiscard]] constexpr I wrapping_sub(I a, I b) noexcept {
  using U = std::make_unsigned_t<I>;
  return static_cast<I>(static_cast<U>(a) - static_cast<U>(b));
}

/// Direction in which a source symbol is applied to a cell. XOR is its own
/// inverse, so `sum`/`checksum` updates are identical either way; only
/// `count` distinguishes add from remove.
enum class Direction : std::int64_t {
  kAdd = 1,
  kRemove = -1,
};

/// The opposite direction (add <-> remove).
[[nodiscard]] constexpr Direction invert(Direction dir) noexcept {
  return static_cast<Direction>(-static_cast<std::int64_t>(dir));
}

template <Symbol T>
struct CodedSymbol {
  T sum{};
  std::uint64_t checksum = 0;
  std::int64_t count = 0;

  /// Folds one hashed source symbol into this cell.
  void apply(const HashedSymbol<T>& s, Direction dir) noexcept {
    sum ^= s.symbol;
    checksum ^= s.hash;
    count = wrapping_add(count, static_cast<std::int64_t>(dir));
  }

  /// Cell-wise subtraction (paper §3): IBLT(A) - IBLT(B) = IBLT(A diff B).
  void subtract(const CodedSymbol& other) noexcept {
    sum ^= other.sum;
    checksum ^= other.checksum;
    count = wrapping_sub(count, other.count);
  }

  friend CodedSymbol operator-(CodedSymbol a, const CodedSymbol& b) noexcept {
    a.subtract(b);
    return a;
  }

  /// True iff no source symbol remains in this cell.
  [[nodiscard]] bool is_empty() const noexcept {
    return count == 0 && checksum == 0 && sum == T{};
  }

  /// True iff exactly one source symbol (from either side) remains, verified
  /// by the checksum (paper §3: "pure" cell). `hasher` must be the keyed
  /// hasher both parties agreed on.
  template <typename Hasher>
  [[nodiscard]] bool is_pure(const Hasher& hasher) const noexcept {
    return (count == 1 || count == -1) && hasher(sum) == checksum;
  }

  friend bool operator==(const CodedSymbol&, const CodedSymbol&) = default;
};

/// Cell-wise subtraction over two equal-length contiguous runs:
/// dst[i] -= src[i]. The single tight loop over restrict-qualified pointers
/// is the vectorizable spelling of the subtract loops every sketch family
/// repeats (Sketch, Iblt, StrataEstimator, MetIblt, and the MET arrival
/// path) -- the compiler can fuse the per-cell XOR words across cells
/// instead of reloading `this`/`other` through the member function.
template <Symbol T>
inline void subtract_run(std::span<CodedSymbol<T>> dst,
                         std::span<const CodedSymbol<T>> src) noexcept {
  const std::size_t n = dst.size() < src.size() ? dst.size() : src.size();
  if (dst.data() == src.data()) {
    // Self-subtraction zeroes every cell; the restrict-qualified fast path
    // below would be UB for aliasing arguments.
    for (std::size_t i = 0; i < n; ++i) dst[i] = CodedSymbol<T>{};
    return;
  }
  CodedSymbol<T>* __restrict__ d = dst.data();
  const CodedSymbol<T>* __restrict__ s = src.data();
  for (std::size_t i = 0; i < n; ++i) d[i].subtract(s[i]);
}

}  // namespace ribltx
