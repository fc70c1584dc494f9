// CodingWindow: a set of source symbols plus a schedule of their next
// mapped coded-symbol indices.
//
// This is the paper's "efficient incremental encoding" structure (§6): the
// symbols mapped to the next stream index must be found in O(their count),
// never by scanning the whole set. It is the one schedule every stream walk
// folds through: Encoder::produce_next, SequenceCache grow_to blocks, writer
// lanes and cursor overlays, and the decoders' fold of the local set and of
// each recovered symbol (§3-§4). Stream indices are visited in
// non-decreasing order, which admits a calendar queue: a fixed-size
// circular bucket array covers the next kHorizon indices, and entries
// mapped beyond the horizon park in a "far" min-heap keyed by next index.
// The common operations become:
//
//   * apply_at(i): drain bucket i & (kHorizon-1) -- O(1) per mapped symbol,
//     no sift -- then re-bucket each advanced entry (O(1) when the next
//     index lands inside the horizon, one far-heap push otherwise);
//   * window advance: far entries whose key enters the horizon are pulled
//     with one heap pop each (amortized: a symbol has O(log m) mapped
//     indices below any horizon).
//
// The far heap sifts a flat (u64 key, u32 entry id) pair -- 12 bytes per
// level -- where the old 4-ary entry heap moved 24-byte entries; the
// near-horizon traffic (the dense, hot part of the mapping distribution)
// bypasses the heap entirely. Stream-order misuse still throws: a skipped
// index with a live entry is detected by scanning exactly the skipped
// bucket slots, and far entries below the applied index are caught at the
// heap head.
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/coded_symbol.hpp"
#include "core/mapping.hpp"
#include "core/symbol.hpp"

namespace ribltx {

template <Symbol T, typename Mapping = IndexMapping>
class CodingWindow {
 public:
  CodingWindow() = default;

  /// Adds a symbol whose mapping generator is freshly seeded (next mapped
  /// index = 0). Use before any cell has been produced/consumed.
  template <typename MappingFactory>
  void add(const HashedSymbol<T>& s, const MappingFactory& factory) {
    add_with_mapping(s, factory(s.hash));
  }

  /// Adds a symbol with an explicit mapping state: a decoder registers a
  /// just-recovered symbol whose mapping has already been walked past every
  /// received cell. `dir` is the entry's own direction: a kRemove entry
  /// folds its symbol with the opposite sign on every future cell -- a
  /// decoder's local item or recovered remote symbol, the tombstone that
  /// cancels an earlier kAdd entry of the same symbol (SequenceCache churn),
  /// or the undo of a set change a snapshot must not see
  /// (SequenceCache::Cursor overlays). The mapping must not point at an
  /// index the window already visited.
  void add_with_mapping(const HashedSymbol<T>& s, Mapping mapping,
                        Direction dir = Direction::kAdd) {
    if (symbols_.size() >= kRemoveBit) {
      throw std::length_error("CodingWindow: symbol capacity exhausted");
    }
    const std::uint64_t key = mapping.index();
    if (key < pos_) {
      throw std::logic_error(
          "CodingWindow: entry mapped to an already-visited index");
    }
    const auto ordinal = static_cast<std::uint32_t>(symbols_.size());
    symbols_.push_back(s);
    // The sign rides in the ordinal's top bit: windows are memory-bounded
    // far below 2^31 symbols, and a separate byte would widen the entry.
    const std::uint32_t packed =
        dir == Direction::kAdd ? ordinal : (ordinal | kRemoveBit);
    entries_.push_back(Entry{std::move(mapping), packed, kNilEntry});
    place(static_cast<std::uint32_t>(entries_.size() - 1), key);
  }

  /// Folds every symbol mapped to stream index `index` into `cell`, then
  /// advances those symbols to their next mapped index. `dir` composes with
  /// each entry's own direction (signs multiply). Must be called with
  /// non-decreasing `index` values (stream order); throws std::logic_error
  /// if a symbol's next index was already passed.
  void apply_at(std::uint64_t index, CodedSymbol<T>& cell, Direction dir) {
    if (index + 1 < pos_) {
      // A backward revisit would drain a bucket slot that now belongs to a
      // different (future) key -- corruption, not a no-op. Re-applying the
      // just-visited index is allowed (its slot is already drained).
      throw std::logic_error(
          "CodingWindow::apply_at: indices must be visited in stream order");
    }
    if (index + 1 > pos_) advance_to(index);
    if (buckets_.empty()) return;  // no entry was ever in bucket range
    const std::size_t slot = static_cast<std::size_t>(index) & (kHorizon - 1);
    std::uint32_t id = buckets_[slot];
    buckets_[slot] = kNilEntry;
    while (id != kNilEntry) {
      Entry& e = entries_[id];
      const std::uint32_t chain = e.next;
      if (chain != kNilEntry) __builtin_prefetch(&entries_[chain]);
      cell.apply(symbols_[e.ordinal & ~kRemoveBit],
                 (e.ordinal & kRemoveBit) == 0 ? dir : invert(dir));
      const std::uint64_t next = e.mapping.advance();
      e.next = kNilEntry;
      place(id, next);
      id = chain;
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return symbols_.size(); }
  [[nodiscard]] bool empty() const noexcept { return symbols_.empty(); }

  [[nodiscard]] std::span<const HashedSymbol<T>> symbols() const noexcept {
    return symbols_;
  }

  void clear() noexcept {
    symbols_.clear();
    entries_.clear();
    buckets_.clear();
    far_keys_.clear();
    far_ids_.clear();
    base_ = 0;
    pos_ = 0;
  }

  /// Visits every entry as (symbol, direction, next mapped index) in
  /// unspecified order. SequenceCache compaction uses this to recover the
  /// live multiset (adds minus tombstones) without shadow bookkeeping.
  template <typename Fn>
  void for_each_entry(Fn&& fn) const {
    for (const Entry& e : entries_) {
      fn(symbols_[e.ordinal & ~kRemoveBit],
         (e.ordinal & kRemoveBit) == 0 ? Direction::kAdd : Direction::kRemove,
         e.mapping.index());
    }
  }

  /// Calendar span: indices in [base, base + kHorizon) resolve to buckets;
  /// anything farther parks in the far heap until the window slides there.
  /// 8192 slots hold a whole ~3.5k-cell client stream (a `bulk` shard's)
  /// without a far-heap trip; a window pays 32 KB of buckets, allocated
  /// when it first holds an entry.
  static constexpr std::size_t kHorizon = 8192;

 private:
  /// Top ordinal bit marks a kRemove (tombstone/undo) entry.
  static constexpr std::uint32_t kRemoveBit = 0x80000000u;
  static constexpr std::uint32_t kNilEntry = 0xffffffffu;
  /// Far-heap fan-out: four (key, id) pairs per node keep the child keys on
  /// one cache line.
  static constexpr std::size_t kArity = 4;

  struct Entry {
    Mapping mapping;
    std::uint32_t ordinal;  ///< symbol index, kRemoveBit-tagged
    std::uint32_t next;     ///< intrusive bucket chain
  };

  static_assert((kHorizon & (kHorizon - 1)) == 0, "horizon must be 2^k");

  /// Links entry `id` (with next mapped index `key`) into its calendar
  /// bucket, or parks it in the far heap beyond the horizon.
  void place(std::uint32_t id, std::uint64_t key) {
    if (key < base_ + kHorizon) {
      if (buckets_.empty()) buckets_.assign(kHorizon, kNilEntry);
      const std::size_t slot = static_cast<std::size_t>(key) & (kHorizon - 1);
      entries_[id].next = buckets_[slot];
      buckets_[slot] = id;
    } else {
      far_push(key, id);
    }
  }

  /// Slides the visit position (and, when needed, the window base) forward
  /// to `index`: verifies every skipped bucket slot is empty (a live entry
  /// there means the caller broke stream order) and pulls far entries whose
  /// key now falls inside the horizon.
  void advance_to(std::uint64_t index) {
    if (!buckets_.empty() && index > pos_) {
      // Each in-window slot holds exactly the key congruent to it, so the
      // skipped values [pos_, index) -- at most kHorizon distinct slots --
      // are checkable without touching any entry.
      const std::uint64_t skipped = index - pos_;
      const std::uint64_t scan =
          skipped < kHorizon ? skipped : std::uint64_t{kHorizon};
      for (std::uint64_t v = pos_; v < pos_ + scan; ++v) {
        if (buckets_[static_cast<std::size_t>(v) & (kHorizon - 1)] !=
            kNilEntry) {
          throw std::logic_error(
              "CodingWindow::apply_at: indices must be visited in stream "
              "order");
        }
      }
    }
    pos_ = index + 1;
    if (index >= base_ + kHorizon) base_ = index;
    while (!far_keys_.empty() && far_keys_[0] < base_ + kHorizon) {
      if (far_keys_[0] < index) {
        throw std::logic_error(
            "CodingWindow::apply_at: indices must be visited in stream "
            "order");
      }
      const std::uint32_t id = far_ids_[0];
      const std::uint64_t key = far_keys_[0];
      far_pop();
      if (buckets_.empty()) buckets_.assign(kHorizon, kNilEntry);
      const std::size_t slot = static_cast<std::size_t>(key) & (kHorizon - 1);
      entries_[id].next = buckets_[slot];
      buckets_[slot] = id;
    }
  }

  // Far heap: flat 4-ary min-heap over (key, id) pairs in parallel arrays;
  // hole-based sifts move 12 bytes per level.
  void far_push(std::uint64_t key, std::uint32_t id) {
    far_keys_.push_back(key);
    far_ids_.push_back(id);
    std::size_t i = far_keys_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (far_keys_[parent] <= key) break;
      far_keys_[i] = far_keys_[parent];
      far_ids_[i] = far_ids_[parent];
      i = parent;
    }
    far_keys_[i] = key;
    far_ids_[i] = id;
  }

  void far_pop() {
    const std::uint64_t key = far_keys_.back();
    const std::uint32_t id = far_ids_.back();
    far_keys_.pop_back();
    far_ids_.pop_back();
    const std::size_t n = far_keys_.size();
    if (n == 0) return;
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = kArity * i + 1;
      if (first >= n) break;
      const std::size_t last = first + kArity < n ? first + kArity : n;
      std::size_t smallest = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (far_keys_[c] < far_keys_[smallest]) smallest = c;
      }
      if (far_keys_[smallest] >= key) break;
      far_keys_[i] = far_keys_[smallest];
      far_ids_[i] = far_ids_[smallest];
      i = smallest;
    }
    far_keys_[i] = key;
    far_ids_[i] = id;
  }

  std::vector<HashedSymbol<T>> symbols_;
  std::vector<Entry> entries_;          ///< flat arena, never reordered
  std::vector<std::uint32_t> buckets_;  ///< circular calendar, chain heads
  std::vector<std::uint64_t> far_keys_;  ///< far-heap keys (next index)
  std::vector<std::uint32_t> far_ids_;   ///< far-heap entry ids
  std::uint64_t base_ = 0;  ///< smallest index the calendar can hold
  std::uint64_t pos_ = 0;   ///< next unvisited stream index
};

}  // namespace ribltx
