// Big-endian byte stream reader/writer used by the MRT and BGP wire codecs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/annotations.hpp"
#include "util/errors.hpp"

namespace mlp {

/// Append-only big-endian encoder.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void bytes(std::span<const std::uint8_t> data);
  void bytes(const std::string& data);

  /// Reserve a placeholder of `width` bytes and return its offset, for
  /// back-patching length fields.
  std::size_t placeholder(std::size_t width);
  void patch_u16(std::size_t offset, std::uint16_t v);

  std::size_t size() const { return buf_.size(); }
  const std::vector<std::uint8_t>& data() const MLP_LIFETIMEBOUND {
    return buf_;
  }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked big-endian decoder over a borrowed buffer.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  /// The returned span aliases the borrowed buffer. Binding it to the
  /// reader (lifetimebound) is deliberately conservative: every caller
  /// keeps the reader in scope anyway, and the bound catches a view kept
  /// past a temporary reader.
  std::span<const std::uint8_t> bytes(std::size_t n) MLP_LIFETIMEBOUND;

  /// Sub-reader over the next n bytes (consumes them from this reader).
  ByteReader sub(std::size_t n) MLP_LIFETIMEBOUND;

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }
  std::size_t position() const { return pos_; }

  /// Reposition to an absolute offset (resync support for tolerant
  /// decoders). Throws ParseError past the end of the buffer.
  void seek(std::size_t pos);

 private:
  void need(std::size_t n) const;
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace mlp
