// Wire format for sketches and coded-symbol streams.
//
// Implements the paper's count-field compression (§6): the i-th cell of a
// sketch of an N-item set is expected to hold count ~= N * rho(i); only the
// zigzag residual (actual - expected) is stored, as a varint. For the §6
// workload (N = 10^6 items, 10^4 cells) this averages ~1 byte per cell
// instead of a fixed 8. The receiver reconstructs counts from N (in the
// header) and the cell position.
//
// Layout (all integers little-endian; varints are LEB128):
//   header:  magic "RBSK" | version u8 | flags u8 | checksum_len u8 |
//            symbol_len u32 | num_cells uvarint | set_size uvarint
//   cell i:  sum (symbol_len bytes) | checksum (checksum_len bytes) |
//            svarint(count - round(set_size * rho(i)))      [flags bit 0]
//
// flags bit 0: counts present. The paper notes the peeling decoder never
// reads count when reconciling (only the sign classification needs it);
// count-less sketches save the residual byte at the cost of not telling
// remote from local items.
// checksum_len: 8 by default; 4 is enough for differences up to tens of
// thousands (§7.1 "Scalability"), halving per-cell fixed overhead for small
// items.
#pragma once

#include <cstdint>
#include <cstring>
#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/bytes.hpp"
#include "core/sketch.hpp"

namespace ribltx::wire {

inline constexpr std::uint32_t kMagic = 0x4b534252;  // "RBSK"
inline constexpr std::uint8_t kVersion = 1;

inline constexpr std::uint8_t kFlagHasCounts = 0x01;

struct SketchWireOptions {
  bool include_counts = true;
  std::uint8_t checksum_len = 8;  ///< 4 or 8 bytes on the wire
};

/// Expected count of cell i for an N-item set under rho(i) = 1/(1 + i/2).
[[nodiscard]] inline std::int64_t expected_count(std::uint64_t set_size,
                                                 std::uint64_t i) noexcept {
  return static_cast<std::int64_t>(
      std::llround(static_cast<double>(set_size) /
                   (1.0 + 0.5 * static_cast<double>(i))));
}

/// Serializes a sketch built over `set_size` items. `set_size` must be the
/// number of items currently encoded (it anchors count reconstruction).
template <Symbol T, typename Hasher, typename MappingFactory>
[[nodiscard]] std::vector<std::byte> serialize_sketch(
    const Sketch<T, Hasher, MappingFactory>& sketch, std::uint64_t set_size,
    SketchWireOptions opts = {}) {
  if (opts.checksum_len != 4 && opts.checksum_len != 8) {
    throw std::invalid_argument("serialize_sketch: checksum_len must be 4 or 8");
  }
  ByteWriter w;
  w.u32(kMagic);
  w.u8(kVersion);
  w.u8(opts.include_counts ? kFlagHasCounts : 0);
  w.u8(opts.checksum_len);
  w.u32(static_cast<std::uint32_t>(T::kSize));
  w.uvarint(sketch.size());
  w.uvarint(set_size);
  std::uint64_t i = 0;
  for (const auto& cell : sketch.cells()) {
    w.bytes(cell.sum.bytes());
    if (opts.checksum_len == 8) {
      w.u64(cell.checksum);
    } else {
      w.u32(static_cast<std::uint32_t>(cell.checksum));
    }
    if (opts.include_counts) {
      w.svarint(cell.count - expected_count(set_size, i));
    }
    ++i;
  }
  return std::move(w).take();
}

/// Parsed sketch plus the metadata needed to interpret it.
template <Symbol T>
struct ParsedSketch {
  std::vector<CodedSymbol<T>> cells;
  std::uint64_t set_size = 0;
  bool has_counts = false;
  std::uint8_t checksum_len = 8;
};

/// Parses a serialized sketch. Throws std::invalid_argument on malformed
/// input (bad magic/version/symbol size) and std::out_of_range on
/// truncation.
template <Symbol T>
[[nodiscard]] ParsedSketch<T> parse_sketch(std::span<const std::byte> data) {
  ByteReader r(data);
  if (r.u32() != kMagic) throw std::invalid_argument("sketch: bad magic");
  if (r.u8() != kVersion) throw std::invalid_argument("sketch: bad version");
  const std::uint8_t flags = r.u8();
  const std::uint8_t checksum_len = r.u8();
  if (checksum_len != 4 && checksum_len != 8) {
    throw std::invalid_argument("sketch: bad checksum length");
  }
  const std::uint32_t symbol_len = r.u32();
  if (symbol_len != T::kSize) {
    throw std::invalid_argument("sketch: symbol size mismatch");
  }
  const std::uint64_t num_cells = r.uvarint();
  const std::uint64_t set_size = r.uvarint();
  // Every cell occupies at least sum + checksum (+1 residual byte when
  // counts are present); a claimed cell count beyond what the frame can
  // possibly hold is rejected before any allocation, so a hostile header
  // cannot trigger a huge resize.
  const std::size_t min_cell =
      T::kSize + checksum_len + ((flags & kFlagHasCounts) ? 1 : 0);
  if (num_cells > r.remaining() / min_cell) {
    throw std::out_of_range("sketch: num_cells exceeds frame size");
  }

  ParsedSketch<T> out;
  out.set_size = set_size;
  out.has_counts = (flags & kFlagHasCounts) != 0;
  out.checksum_len = checksum_len;
  out.cells.resize(num_cells);
  for (std::uint64_t i = 0; i < num_cells; ++i) {
    CodedSymbol<T>& cell = out.cells[static_cast<std::size_t>(i)];
    r.copy_to(cell.sum.data.data(), T::kSize);
    cell.checksum = (checksum_len == 8) ? r.u64() : r.u32();
    cell.count = out.has_counts
                     ? wrapping_add(r.svarint(), expected_count(set_size, i))
                     : 0;
  }
  return out;
}

/// The checksum-compare mask for a wire checksum width. The single source
/// of the width contract: throws std::invalid_argument for anything but 4
/// or 8, and yields the mask Decoder::set_checksum_mask expects.
[[nodiscard]] inline std::uint64_t checksum_mask(std::uint8_t checksum_len) {
  if (checksum_len == 8) return ~std::uint64_t{0};
  if (checksum_len == 4) return 0xffffffffULL;
  throw std::invalid_argument("checksum width must be 4 or 8");
}

/// Bytes a single streamed coded symbol occupies on the wire (stream frames
/// have no count residual anchor, so counts ride as plain svarints).
template <Symbol T>
[[nodiscard]] std::size_t
streamed_symbol_size(const CodedSymbol<T>& cell, std::uint8_t checksum_len = 8) {
  return T::kSize + checksum_len + uvarint_size(zigzag_encode(cell.count));
}

/// Serializes one coded symbol as a stream frame.
template <Symbol T>
void write_stream_symbol(ByteWriter& w, const CodedSymbol<T>& cell,
                         std::uint8_t checksum_len = 8) {
  w.bytes(cell.sum.bytes());
  if (checksum_len == 8) {
    w.u64(cell.checksum);
  } else {
    w.u32(static_cast<std::uint32_t>(cell.checksum));
  }
  w.svarint(cell.count);
}

/// Parses one coded symbol written by write_stream_symbol.
template <Symbol T>
[[nodiscard]] CodedSymbol<T> read_stream_symbol(ByteReader& r,
                                                std::uint8_t checksum_len = 8) {
  CodedSymbol<T> cell;
  r.copy_to(cell.sum.data.data(), T::kSize);
  cell.checksum = (checksum_len == 8) ? r.u64() : r.u32();
  cell.count = r.svarint();
  return cell;
}

/// Serializes one stream symbol with the §6 count compression: the count
/// rides as a residual against `anchor_set_size * rho(stream_index)`. Both
/// ends must share the anchor (the v2 engine negotiates it in HELLO/ACK,
/// pinned to the serving SequenceCache's snapshot set_size) and the
/// absolute stream index (implicit: symbols are consumed in stream order).
template <Symbol T>
void write_stream_symbol_residual(ByteWriter& w, const CodedSymbol<T>& cell,
                                  std::uint8_t checksum_len,
                                  std::uint64_t anchor_set_size,
                                  std::uint64_t stream_index) {
  w.bytes(cell.sum.bytes());
  if (checksum_len == 8) {
    w.u64(cell.checksum);
  } else {
    w.u32(static_cast<std::uint32_t>(cell.checksum));
  }
  w.svarint(cell.count - expected_count(anchor_set_size, stream_index));
}

/// Parses one stream symbol written by write_stream_symbol_residual.
template <Symbol T>
[[nodiscard]] CodedSymbol<T> read_stream_symbol_residual(
    ByteReader& r, std::uint8_t checksum_len, std::uint64_t anchor_set_size,
    std::uint64_t stream_index) {
  CodedSymbol<T> cell;
  r.copy_to(cell.sum.data.data(), T::kSize);
  cell.checksum = (checksum_len == 8) ? r.u64() : r.u32();
  cell.count = wrapping_add(r.svarint(),
                            expected_count(anchor_set_size, stream_index));
  return cell;
}

}  // namespace ribltx::wire
