#include "util/bytes.hpp"

namespace mlp {

void ByteWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::u32(std::uint32_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 24));
  buf_.push_back(static_cast<std::uint8_t>(v >> 16));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v >> 32));
  u32(static_cast<std::uint32_t>(v));
}

void ByteWriter::bytes(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void ByteWriter::bytes(const std::string& data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

std::size_t ByteWriter::placeholder(std::size_t width) {
  const std::size_t offset = buf_.size();
  buf_.insert(buf_.end(), width, 0);
  return offset;
}

void ByteWriter::patch_u16(std::size_t offset, std::uint16_t v) {
  if (offset + 2 > buf_.size())
    throw InvalidArgument("ByteWriter::patch_u16: offset out of range");
  buf_[offset] = static_cast<std::uint8_t>(v >> 8);
  buf_[offset + 1] = static_cast<std::uint8_t>(v);
}

void ByteReader::need(std::size_t n) const {
  if (pos_ + n > data_.size())
    throw ParseError("ByteReader: truncated input (need " + std::to_string(n) +
                     " bytes, have " + std::to_string(data_.size() - pos_) +
                     ")");
}

std::uint8_t ByteReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] << 8) |
                    static_cast<std::uint16_t>(data_[pos_ + 1]);
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = (static_cast<std::uint32_t>(data_[pos_]) << 24) |
                    (static_cast<std::uint32_t>(data_[pos_ + 1]) << 16) |
                    (static_cast<std::uint32_t>(data_[pos_ + 2]) << 8) |
                    static_cast<std::uint32_t>(data_[pos_ + 3]);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  const std::uint64_t hi = u32();
  return (hi << 32) | u32();
}

std::span<const std::uint8_t> ByteReader::bytes(std::size_t n) {
  need(n);
  auto out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

ByteReader ByteReader::sub(std::size_t n) { return ByteReader(bytes(n)); }

void ByteReader::seek(std::size_t pos) {
  if (pos > data_.size())
    throw ParseError("ByteReader::seek: offset " + std::to_string(pos) +
                     " past end (" + std::to_string(data_.size()) + ")");
  pos_ = pos;
}

}  // namespace mlp
