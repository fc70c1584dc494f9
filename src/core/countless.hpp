// Count-less decoding (paper §7.1, "Scalability of Rateless IBLT"):
// "It is also possible to remove the count field altogether; Bob can still
// recover the symmetric difference as the peeling decoder does not use
// this field."
//
// Without counts, a cell is pure iff its checksum equals the keyed hash of
// its sum (works for both one-remote and one-local cells: XOR is sign-
// blind), and empty iff sum and checksum are both zero. What is lost is
// only the remote/local attribution -- the decoder returns one
// undifferentiated difference list, and callers who need sides can probe
// their own set. Paired with wire::SketchWireOptions{include_counts=false}
// this trims every varint residual byte off the stream.
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/coded_symbol.hpp"
#include "core/coding_window.hpp"
#include "core/mapping.hpp"
#include "core/symbol.hpp"

namespace ribltx {

template <Symbol T, typename Hasher = SipHasher<T>,
          typename MappingFactory = DefaultMappingFactory>
class CountlessDecoder {
 public:
  using mapping_type = typename MappingFactory::mapping_type;

  explicit CountlessDecoder(Hasher hasher = Hasher{},
                            MappingFactory factory = MappingFactory{})
      : hasher_(std::move(hasher)), factory_(std::move(factory)) {}

  /// Registers one of Bob's local items; must precede the stream.
  void add_local_symbol(const T& s) {
    if (!cells_.empty()) {
      throw std::logic_error(
          "CountlessDecoder: local items must precede coded symbols");
    }
    window_.add(hasher_.hashed(s), factory_);
  }

  /// Consumes the next coded symbol (count field ignored entirely).
  void add_coded_symbol(const CodedSymbol<T>& incoming) {
    const std::uint64_t index = cells_.size();
    CodedSymbol<T> cell = incoming;
    cell.count = 0;
    window_.apply_at(index, cell, Direction::kAdd);
    cells_.push_back(cell);
    settled_flags_.push_back(0);
    enqueue_if_actionable(static_cast<std::size_t>(index));
    peel();
  }

  [[nodiscard]] bool decoded() const noexcept {
    return !cells_.empty() && settled_count_ == cells_.size();
  }

  /// The symmetric difference A (-) B, unattributed, in recovery order.
  [[nodiscard]] std::span<const HashedSymbol<T>> difference() const noexcept {
    return difference_;
  }

  [[nodiscard]] std::size_t cells_received() const noexcept {
    return cells_.size();
  }

  void reset() noexcept {
    window_.clear();
    cells_.clear();
    settled_flags_.clear();
    queue_.clear();
    difference_.clear();
    settled_count_ = 0;
  }

 private:
  [[nodiscard]] bool cell_empty(const CodedSymbol<T>& c) const noexcept {
    return c.checksum == 0 && c.sum == T{};
  }

  [[nodiscard]] bool cell_pure(const CodedSymbol<T>& c) const noexcept {
    return !cell_empty(c) && hasher_(c.sum) == c.checksum;
  }

  void enqueue_if_actionable(std::size_t i) {
    if (settled_flags_[i]) return;
    if (cell_empty(cells_[i]) || cell_pure(cells_[i])) queue_.push_back(i);
  }

  void peel() {
    while (!queue_.empty()) {
      const std::size_t i = queue_.back();
      queue_.pop_back();
      if (settled_flags_[i]) continue;
      if (cell_empty(cells_[i])) {
        settled_flags_[i] = 1;
        ++settled_count_;
        continue;
      }
      if (!cell_pure(cells_[i])) continue;

      const HashedSymbol<T> sym{cells_[i].sum, cells_[i].checksum};
      mapping_type mapping = factory_(sym.hash);
      while (mapping.index() < cells_.size()) {
        const auto ci = static_cast<std::size_t>(mapping.index());
        cells_[ci].sum ^= sym.symbol;
        cells_[ci].checksum ^= sym.hash;
        enqueue_if_actionable(ci);
        mapping.advance();
      }
      difference_.push_back(sym);
      window_.add_with_mapping(sym, std::move(mapping));
    }
  }

  Hasher hasher_;
  MappingFactory factory_;
  CodingWindow<T, mapping_type> window_;  ///< local + recovered, all kAdd
  std::vector<CodedSymbol<T>> cells_;
  std::vector<std::uint8_t> settled_flags_;
  std::vector<std::size_t> queue_;
  std::size_t settled_count_ = 0;
  std::vector<HashedSymbol<T>> difference_;
};

}  // namespace ribltx
