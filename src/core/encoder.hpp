// Streaming Rateless IBLT encoder (Alice's side).
//
// Encodes a set into the infinite coded-symbol sequence s0, s1, s2, ...
// defined in §4.1. The encoder is rateless: call produce_next() as many
// times as the peer needs; the first m outputs are exactly the length-m
// prefix regardless of m (prefix property, Fig 3). Per §6, the per-symbol
// cost is O(log m) thanks to the CodingWindow heap.
//
// One Encoder serves ONE stream. A server answering many peers should not
// build an encoder per session: the sequence is universal (§2), so use
// SequenceCache + its snapshot Cursors (core/sketch.hpp) -- cells are
// materialized once, shared by every session, and survive set churn --
// which is what sync::SyncEngine does.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "core/coded_symbol.hpp"
#include "core/coding_window.hpp"
#include "core/mapping.hpp"
#include "core/symbol.hpp"

namespace ribltx {

template <Symbol T, typename Hasher = SipHasher<T>,
          typename MappingFactory = DefaultMappingFactory>
class Encoder {
 public:
  using mapping_type = typename MappingFactory::mapping_type;

  explicit Encoder(Hasher hasher = Hasher{},
                   MappingFactory factory = MappingFactory{})
      : hasher_(std::move(hasher)), factory_(std::move(factory)) {}

  /// Adds a set item. All items must be added before the first
  /// produce_next(): cells already emitted cannot reflect a late item (use
  /// SequenceCache for post-hoc set updates). Throws std::logic_error on
  /// misuse.
  void add_symbol(const T& s) { add_hashed_symbol(hasher_.hashed(s)); }

  /// Same, for a pre-hashed item (lets callers reuse hashes across peers).
  void add_hashed_symbol(const HashedSymbol<T>& s) {
    if (next_index_ != 0) {
      throw std::logic_error(
          "Encoder::add_symbol: cannot add items after encoding started");
    }
    window_.add(s, factory_);
  }

  /// Produces the coded symbol at the next stream index.
  [[nodiscard]] CodedSymbol<T> produce_next() {
    CodedSymbol<T> cell;
    window_.apply_at(next_index_, cell, Direction::kAdd);
    ++next_index_;
    return cell;
  }

  /// Stream index of the next coded symbol to be produced.
  [[nodiscard]] std::uint64_t next_index() const noexcept {
    return next_index_;
  }

  [[nodiscard]] std::size_t set_size() const noexcept {
    return window_.size();
  }

  [[nodiscard]] const Hasher& hasher() const noexcept { return hasher_; }

  /// Forgets all items and restarts the stream at index 0.
  void reset() noexcept {
    window_.clear();
    next_index_ = 0;
  }

 private:
  Hasher hasher_;
  MappingFactory factory_;
  CodingWindow<T, mapping_type> window_;
  std::uint64_t next_index_ = 0;
};

}  // namespace ribltx
