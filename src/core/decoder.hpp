// Streaming Rateless IBLT decoder (Bob's side).
//
// Bob feeds (a) his local set items and (b) Alice's coded symbols in stream
// order. Each arriving cell is lazily reduced to a *difference* cell
// a_i (-) b_i by subtracting the local set's contributions (§3), plus the
// contributions of symbols already recovered. The peeling decoder (§3) runs
// incrementally: whenever a cell becomes pure (count = +/-1, checksum
// matches), its symbol is recovered, XOR-ed out of every received cell it
// maps to, and registered so future cells arrive pre-peeled. Reconciliation
// is complete when every received cell has settled to empty -- cell 0, to
// which every symbol maps, settles last (§4.1's termination signal).
//
// Hot-path layout (the fig09 cost center):
//   * Each cell lives in ONE power-of-two-aligned slot packing sum,
//     checksum, count, and the queue link word, so a peel apply touches a
//     single cache line per cell -- the old whole-struct cells plus
//     separate flag and queue vectors cost several scattered lines.
//   * The peel queue is a flat intrusive stack threaded through the
//     per-cell link word: a cell is on the queue at most once, is enqueued
//     by count alone (no hash at enqueue time), and its checksum is
//     verified exactly once at pop. The settled state is folded into the
//     same word. The old map/vector scheme hashed every candidate at
//     enqueue, again at pop, and a third time at recovery.
//   * Local items (kRemove entries), recovered remote symbols, and
//     recovered local symbols all fold through ONE CodingWindow
//     (core/coding_window.hpp), the calendar queue the encoder and the
//     SequenceCache schedule through: each entry carries its own direction
//     and sits in the bucket of its next mapped index (the same incremental
//     mapping state the encoder keeps, §6 -- never re-derived per cell), so
//     folding an arriving cell costs O(the symbols mapped to it).
//   * The recovery walk pipelines its index mapping: it advances one mapped
//     index ahead and prefetches that cell while applying the current one,
//     overlapping the inverse-CDF sqrt latency with the memory fetch --
//     the two serial dependencies that bound decode throughput.
//   * Checksum verification is batched: queued candidates are verified four
//     at a time through SipHasher::hash4 (interleaved SipHash lanes) when
//     the hasher supports it.
//   At steady state the peel loop performs no heap allocation: all state
//   lives in the flat cell array and the window, which grow amortized with
//   the stream / recovered difference only (reserve() removes the cells').
//
// Cost: O(log m) cell updates per recovered difference, matching the
// paper's O(l log d) per-difference decode bound.
//
// Narrow wire checksums: when the peer transmits truncated (e.g. 4-byte)
// checksums (wire.hpp, §7.1 "Scalability"), call set_checksum_mask() with
// the matching mask before the first coded symbol. Masking commutes with
// XOR, so the decoder keeps every received cell's checksum reduced modulo
// the mask and verifies purity against the masked hash; the full 64-bit
// hash that seeds the index mapping is recomputed from the recovered sum,
// so mappings stay bit-identical with the encoder's.
#pragma once

#include <cstdint>
#include <cstddef>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/coded_symbol.hpp"
#include "core/coding_window.hpp"
#include "core/mapping.hpp"
#include "core/symbol.hpp"

namespace ribltx {

/// Hashers that can verify four checksums per dispatch (SipHasher does).
template <typename Hasher, typename T>
concept BatchHasher = requires(const Hasher& h, const T* const s[4],
                               std::uint64_t out[4]) {
  h.hash4(s, out);
};

namespace detail {

/// Slot alignment: the next power of two >= the payload, capped at a cache
/// line, so a random cell access touches exactly one line for every item
/// size up to 48 bytes of payload (and the minimum number above that).
[[nodiscard]] constexpr std::size_t cell_slot_align(std::size_t raw) noexcept {
  std::size_t a = 1;
  while (a < raw && a < 64) a *= 2;
  return a;
}

}  // namespace detail

template <Symbol T, typename Hasher = SipHasher<T>,
          typename MappingFactory = DefaultMappingFactory>
class Decoder {
 public:
  using mapping_type = typename MappingFactory::mapping_type;

  explicit Decoder(Hasher hasher = Hasher{},
                   MappingFactory factory = MappingFactory{})
      : hasher_(std::move(hasher)), factory_(std::move(factory)) {}

  /// Registers one of Bob's local set items. All local items must be added
  /// before the first coded symbol arrives (earlier cells cannot be
  /// retroactively reduced); throws std::logic_error otherwise.
  void add_local_symbol(const T& s) { add_local_hashed_symbol(hasher_.hashed(s)); }

  void add_local_hashed_symbol(const HashedSymbol<T>& s) {
    if (!cells_.empty()) {
      throw std::logic_error(
          "Decoder::add_local_symbol: local items must precede coded symbols");
    }
    // A kRemove entry: the local set is subtracted from every arriving cell.
    window_.add_with_mapping(s, factory_(s.hash), Direction::kRemove);
  }

  /// Restricts checksum comparisons to the given mask (e.g. 0xffffffff for
  /// 4-byte wire checksums). Must be set before the first coded symbol.
  void set_checksum_mask(std::uint64_t mask) {
    if (!cells_.empty()) {
      throw std::logic_error(
          "Decoder::set_checksum_mask: must precede coded symbols");
    }
    checksum_mask_ = mask;
  }

  [[nodiscard]] std::uint64_t checksum_mask() const noexcept {
    return checksum_mask_;
  }

  /// Pre-sizes the cell array for an expected stream length (the peel loop
  /// never allocates; this removes the amortized growth too).
  void reserve(std::size_t cells) { cells_.reserve(cells); }

  /// Consumes the next coded symbol of Alice's stream (stream order is part
  /// of the protocol; cells carry no explicit index). Peeling runs
  /// incrementally; check decoded() after each call.
  void add_coded_symbol(const CodedSymbol<T>& incoming) {
    if (cells_.size() >= kSettled) {
      // The intrusive queue threads cell indices through a 32-bit link
      // word; past the sentinel range a new index would alias them.
      throw std::length_error("Decoder: coded-symbol capacity exhausted");
    }
    const std::uint64_t index = cells_.size();
    CodedSymbol<T> cell = incoming;
    // One calendar-bucket walk folds the local set (kRemove entries) and
    // every already-recovered symbol (entry-direction encoded) into it.
    window_.apply_at(index, cell, Direction::kAdd);
    Cell slot;
    slot.sum = cell.sum;
    slot.checksum = cell.checksum & checksum_mask_;
    slot.count = static_cast<std::int32_t>(cell.count);
    slot.link = kNotQueued;
    cells_.push_back(slot);
    enqueue_if_candidate(static_cast<std::size_t>(index));
    peel();
  }

  /// True when the received prefix fully decodes: every cell reduced to
  /// empty, i.e. all of A (-) B recovered (and Bob should tell Alice to stop
  /// streaming).
  [[nodiscard]] bool decoded() const noexcept {
    return !cells_.empty() && settled_count_ == cells_.size();
  }

  /// Symbols exclusive to Alice (A \ B), in recovery order.
  [[nodiscard]] std::span<const HashedSymbol<T>> remote() const noexcept {
    return remote_symbols_;
  }

  /// Symbols exclusive to Bob (B \ A), in recovery order.
  [[nodiscard]] std::span<const HashedSymbol<T>> local() const noexcept {
    return local_symbols_;
  }

  [[nodiscard]] std::size_t cells_received() const noexcept {
    return cells_.size();
  }

  /// Residual difference cell at stream index `i`, reassembled from the
  /// slot (diagnostics / tests).
  [[nodiscard]] CodedSymbol<T> cell(std::size_t i) const {
    const Cell& c = cells_.at(i);
    return CodedSymbol<T>{c.sum, c.checksum, c.count};
  }

  [[nodiscard]] const Hasher& hasher() const noexcept { return hasher_; }

  /// Clears everything, including local set items.
  void reset() noexcept {
    window_.clear();
    cells_.clear();
    queue_head_ = kQueueEnd;
    remote_symbols_.clear();
    local_symbols_.clear();
    settled_count_ = 0;
  }

 private:
  // Link-word states beyond "next queue index". Settling only ever happens
  // at pop time (when the link word is being vacated anyway), so the
  // settled state can live in the same word as the queue.
  static constexpr std::uint32_t kNotQueued = 0xffffffffu;
  static constexpr std::uint32_t kQueueEnd = 0xfffffffeu;
  static constexpr std::uint32_t kSettled = 0xfffffffdu;
  /// Candidates verified per dispatch == the batched SipHash lane count
  /// (the hash4 array parameters decay to pointers, so this tie is the
  /// compile-time guard against a lane-count change under-sizing the
  /// batch arrays).
  static constexpr std::size_t kBatch = kSipHashLanes;

  struct CellData {
    T sum;
    std::uint64_t checksum;
    std::int32_t count;
    std::uint32_t link;
  };

  /// One difference cell: sum, checksum, count, and the queue/settled link
  /// in a single aligned slot -- every peel-loop access is one cache line.
  struct alignas(detail::cell_slot_align(sizeof(CellData))) Cell
      : CellData {};

  void push_queue(std::size_t i) noexcept {
    cells_[i].link = queue_head_;
    queue_head_ = static_cast<std::uint32_t>(i);
  }

  [[nodiscard]] std::size_t pop_queue() noexcept {
    const std::uint32_t i = queue_head_;
    queue_head_ = cells_[i].link;
    cells_[i].link = kNotQueued;
    return i;
  }

  /// Cheap sign screen, no hashing: +/-1 cells and checksum-zero empties
  /// queue for verification/settling at pop; each cell queues at most once.
  void enqueue_if_candidate(std::size_t i) {
    Cell& c = cells_[i];
    if (c.link != kNotQueued) return;  // queued already, or settled
    if (c.count == 1 || c.count == -1 || (c.count == 0 && c.checksum == 0)) {
      push_queue(i);
    }
  }

  void apply_to_cell(std::size_t ci, const HashedSymbol<T>& sym,
                     Direction dir) noexcept {
    Cell& c = cells_[ci];
    c.sum ^= sym.symbol;
    c.checksum = (c.checksum ^ sym.hash) & checksum_mask_;
    c.count = wrapping_add(c.count, static_cast<std::int32_t>(dir));
  }

  void peel() {
    std::size_t cand[kBatch];
    std::uint64_t hashes[kBatch];
    bool dirty[kBatch];
    while (queue_head_ != kQueueEnd) {
      // Drain up to four +/-1 candidates; empties settle on the spot and
      // stale entries (count moved on since enqueue) drop out, re-entering
      // if a later apply makes them actionable again.
      std::size_t ncand = 0;
      while (queue_head_ != kQueueEnd && ncand < kBatch) {
        const std::size_t i = pop_queue();
        Cell& c = cells_[i];
        if (c.count == 1 || c.count == -1) {
          cand[ncand] = i;
          dirty[ncand] = false;
          ++ncand;
        } else if (c.count == 0 && c.checksum == 0 && c.sum == T{}) {
          c.link = kSettled;
          ++settled_count_;
        }
      }
      if (ncand == 0) continue;

      // One interleaved SipHash dispatch verifies four candidates when the
      // hasher supports it; short batches take the scalar path.
      if constexpr (BatchHasher<Hasher, T>) {
        if (ncand == kBatch) {
          const T* const s[kBatch] = {
              &cells_[cand[0]].sum, &cells_[cand[1]].sum,
              &cells_[cand[2]].sum, &cells_[cand[3]].sum};
          hasher_.hash4(s, hashes);
        } else {
          for (std::size_t k = 0; k < ncand; ++k) {
            hashes[k] = hasher_(cells_[cand[k]].sum);
          }
        }
      } else {
        for (std::size_t k = 0; k < ncand; ++k) {
          hashes[k] = hasher_(cells_[cand[k]].sum);
        }
      }

      if (checksum_mask_ == ~std::uint64_t{0}) {
        // Full-width checksums: two distinct simultaneously-pure cells can
        // only interfere through a 64-bit SipHash collision (if symbol A
        // mapped to pure cell B's cell, A's un-recovered contribution would
        // have to cancel exactly in sum, checksum, and count), which is the
        // same negligible failure class the scheme itself rests on (§4.3).
        // So after dropping duplicate symbols, the verified recoveries are
        // independent and their walks can run in lockstep -- four serial
        // inverse-CDF div/sqrt chains pipelining through the FP unit
        // instead of one at a time.
        std::size_t pure[kBatch];
        std::uint64_t pure_hash[kBatch];
        std::size_t npure = 0;
        for (std::size_t k = 0; k < ncand; ++k) {
          const std::size_t i = cand[k];
          if (hashes[k] != cells_[i].checksum) continue;
          bool duplicate = false;
          for (std::size_t j = 0; j < npure; ++j) {
            // The same symbol pure in two cells at once: recover it once;
            // its walk empties the twin.
            if (pure_hash[j] == hashes[k] &&
                cells_[pure[j]].sum == cells_[i].sum) {
              duplicate = true;
              break;
            }
          }
          if (duplicate) continue;
          pure[npure] = i;
          pure_hash[npure] = hashes[k];
          ++npure;
        }
        recover_interleaved(pure, pure_hash, npure);
      } else {
        for (std::size_t k = 0; k < ncand; ++k) {
          const std::size_t i = cand[k];
          if (cells_[i].link == kSettled) continue;  // peeled meanwhile
          if (dirty[k]) {
            // An earlier recovery in this batch rewrote the cell: the
            // prefetched hash no longer matches the sum. Re-screen and
            // re-hash before trusting it.
            const std::int32_t c = cells_[i].count;
            if (c != 1 && c != -1) continue;  // re-enqueued on changes
            hashes[k] = hasher_(cells_[i].sum);
          }
          if ((hashes[k] & checksum_mask_) != cells_[i].checksum) continue;
          recover(i, hashes[k], cand, dirty, ncand, k);
        }
      }
    }
  }

  /// Runs up to kBatch verified, distinct recoveries with their mapping
  /// walks interleaved round-robin: each walk's advance chain (multiply,
  /// divide, sqrt) is serially dependent, but the four chains are mutually
  /// independent, so the round-robin keeps the pipelined FP divider busy.
  /// Full-checksum mode only -- see the §4.3 argument at the call site.
  void recover_interleaved(const std::size_t* pure,
                           const std::uint64_t* pure_hash, std::size_t n) {
    struct Walk {
      HashedSymbol<T> sym;
      mapping_type mapping;
      std::uint64_t ci;
      Direction dir;
    };
    if (n == 0) return;
    std::optional<Walk> walks[kBatch];
    const std::size_t m = cells_.size();
    for (std::size_t w = 0; w < n; ++w) {
      const std::size_t i = pure[w];
      const bool is_remote = cells_[i].count == 1;
      walks[w].emplace(Walk{HashedSymbol<T>{cells_[i].sum, pure_hash[w]},
                            factory_(pure_hash[w]), 0,
                            is_remote ? Direction::kRemove : Direction::kAdd});
      walks[w]->ci = walks[w]->mapping.index();
      (is_remote ? remote_symbols_ : local_symbols_).push_back(walks[w]->sym);
    }
    std::size_t live = n;
    while (live > 0) {
      live = 0;
      for (std::size_t w = 0; w < n; ++w) {
        Walk& wk = *walks[w];
        if (wk.ci >= m) continue;
        const std::uint64_t next = wk.mapping.advance();
        if (next < m) {
          __builtin_prefetch(&cells_[static_cast<std::size_t>(next)]);
          ++live;
        }
        const auto ci = static_cast<std::size_t>(wk.ci);
        apply_to_cell(ci, wk.sym, wk.dir);
        enqueue_if_candidate(ci);
        wk.ci = next;
      }
    }
    for (std::size_t w = 0; w < n; ++w) {
      // Mapping now past the received prefix: future arrivals pre-peel
      // through the window.
      window_.add_with_mapping(walks[w]->sym, std::move(walks[w]->mapping),
                               walks[w]->dir);
    }
  }

  /// Pure cell i: recover its lone symbol and peel it out of every received
  /// cell it maps to (including cell i itself, which thereby empties and
  /// settles on its next pop). The mapping seed is the full 64-bit hash
  /// recomputed from the sum: under a narrow checksum mask the cell only
  /// holds the masked low bits, and the mapping must match the encoder's.
  void recover(std::size_t i, std::uint64_t full_hash, const std::size_t* cand,
               bool* dirty, std::size_t ncand, std::size_t k) {
    const HashedSymbol<T> sym{cells_[i].sum, full_hash};
    const bool is_remote = cells_[i].count == 1;
    const Direction dir = is_remote ? Direction::kRemove : Direction::kAdd;
    const std::size_t m = cells_.size();
    mapping_type mapping = factory_(sym.hash);
    // Software-pipelined walk: advance to the next mapped index and issue
    // its prefetch before applying the current one, so the inverse-CDF sqrt
    // and the cell-line fetch -- both serial chains -- overlap.
    std::size_t ci = static_cast<std::size_t>(mapping.index());
    while (ci < m) {
      const std::uint64_t next = mapping.advance();
      if (next < m) {
        __builtin_prefetch(&cells_[static_cast<std::size_t>(next)]);
      }
      apply_to_cell(ci, sym, dir);
      enqueue_if_candidate(ci);
      for (std::size_t j = k + 1; j < ncand; ++j) {
        if (cand[j] == ci) dirty[j] = true;
      }
      ci = static_cast<std::size_t>(next);
    }
    // The mapping state now points past the received prefix; future cells
    // at those indices arrive pre-peeled through the window (a kRemove
    // entry for a remote symbol mirrors the local set; a kAdd entry for a
    // local symbol cancels its local-set twin).
    window_.add_with_mapping(sym, std::move(mapping), dir);
    if (is_remote) {
      remote_symbols_.push_back(sym);
    } else {
      local_symbols_.push_back(sym);
    }
  }

  Hasher hasher_;
  MappingFactory factory_;
  std::uint64_t checksum_mask_ = ~std::uint64_t{0};  // wire checksum width

  /// Local items and recovered symbols, folded into every arriving cell.
  CodingWindow<T, mapping_type> window_;

  std::vector<Cell> cells_;  ///< difference cells, reduced in place
  std::uint32_t queue_head_ = kQueueEnd;
  std::size_t settled_count_ = 0;

  std::vector<HashedSymbol<T>> remote_symbols_;
  std::vector<HashedSymbol<T>> local_symbols_;
};

}  // namespace ribltx
