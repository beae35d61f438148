// The byte window both live framers (MrtFramer, BmpFramer) frame from.
//
// A framer appends transport chunks and consumes complete frames off the
// front. The window keeps every frame position as an absolute stream
// offset across compaction, reconnect resets and checkpoint resumes, and
// carries the tolerant resync state: resync() distrusts the most recently
// marked frame and the framer's scan resumes one byte past its start.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/errors.hpp"

namespace mlp::stream {

class FrameWindow {
 public:
  /// Append one chunk. Compacting first keeps the buffer at O(partial
  /// frame + chunk): the consumed front never survives into the next
  /// cycle.
  void feed(std::span<const std::uint8_t> chunk) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    base_offset_ += pos_;
    pos_ = 0;
    last_pos_ = 0;
    buf_.insert(buf_.end(), chunk.begin(), chunk.end());
    bytes_fed_ += chunk.size();
  }

  /// The buffered, not yet consumed bytes. Borrows the buffer: invalid
  /// after the next feed()/reset().
  std::span<const std::uint8_t> unread() const {
    return std::span<const std::uint8_t>(buf_).subspan(pos_);
  }
  std::size_t buffered() const { return buf_.size() - pos_; }
  /// Consume `n` unread bytes (a framed frame, or one resync scan step).
  void consume(std::size_t n) { pos_ += n; }
  /// The front is the frame being framed now: resync() distrusts it and
  /// last_offset() names it.
  void mark() {
    last_pos_ = pos_;
    last_offset_ = base_offset_ + pos_;
  }

  /// Rewind to one byte past the marked frame's start (its own header is
  /// what is no longer trusted) and start a resync scan.
  void resync() {
    pos_ = std::min(last_pos_ + 1, buf_.size());
    resyncing_ = true;
  }
  bool resyncing() const { return resyncing_; }
  /// The scan found its anchor at the front.
  void anchored() { resyncing_ = false; }

  /// Transport-level resume: drop the buffered partial frame and any
  /// pending scan; offsets keep naming positions in the total fed stream.
  /// Returns the number of bytes dropped.
  std::size_t reset() {
    const std::size_t dropped = buffered();
    buf_.clear();
    pos_ = 0;
    last_pos_ = 0;
    base_offset_ = bytes_fed_;
    resyncing_ = false;
    return dropped;
  }

  std::uint64_t bytes_fed() const { return bytes_fed_; }
  std::uint64_t last_offset() const { return last_offset_; }

  /// Checkpoint hooks: the acknowledged offset (bytes_fed() - buffered():
  /// the partial tail is redelivered by the resumed transport, never
  /// serialized), the last frame offset and the resync flag. restore
  /// drops any buffered bytes; a scan mid-flight at the checkpoint is
  /// re-armed, so redelivered bytes replay it deterministically.
  void serialize_state(ByteWriter& writer) const {
    writer.u64(bytes_fed_ - buffered());
    writer.u64(last_offset_);
    writer.u8(resyncing_ ? 1 : 0);
  }
  void restore_state(ByteReader& reader) {
    const std::uint64_t acknowledged = reader.u64();
    const std::uint64_t last_offset = reader.u64();
    const std::uint8_t resyncing = reader.u8();
    if (resyncing > 1)
      throw ParseError("checkpoint: framer resync byte " +
                       std::to_string(resyncing));
    bytes_fed_ = acknowledged;
    (void)reset();
    last_offset_ = last_offset;
    resyncing_ = resyncing != 0;
  }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;            // start of the unconsumed region
  std::size_t last_pos_ = 0;       // buffer pos of the marked frame
  std::uint64_t base_offset_ = 0;  // stream offset of buf_[0]
  std::uint64_t bytes_fed_ = 0;
  std::uint64_t last_offset_ = 0;
  bool resyncing_ = false;
};

}  // namespace mlp::stream
