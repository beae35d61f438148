// Incremental MRT framing for live byte streams.
//
// A live feed (socket, pipe, BMP-style relay) delivers bytes in arbitrary
// chunks that need not respect record boundaries. MrtFramer buffers the
// chunks and yields one complete MRT record span at a time, so a consumer
// can decode message-by-message while the stream is still flowing.
//
// Memory contract: the framer never materializes the backlog. After the
// complete records of a feed() are drained through next(), the buffer
// holds at most the one trailing partial record (plus the bytes of the
// current chunk while it is being drained), so peak footprint is
// O(chunk + one record) regardless of total stream length.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "stream/frame_window.hpp"
#include "util/annotations.hpp"

namespace mlp::stream {

class MrtFramer {
 public:
  struct Config {
    /// Upper bound on a single record's body length. A corrupt length
    /// field would otherwise make the framer buffer (nearly) forever
    /// waiting for a record that never completes; anything above the cap
    /// throws ParseError from next(). Real RIB records run to a few MB;
    /// BGP4MP messages are <= 4 KiB.
    std::uint32_t max_record_bytes = 1u << 24;
  };

  MrtFramer() = default;
  explicit MrtFramer(Config config) : config_(config) {}

  /// Append one chunk of stream bytes.
  void feed(std::span<const std::uint8_t> chunk) { window_.feed(chunk); }

  /// The next complete record (header + body), or nullopt when the
  /// buffered bytes end mid-record (feed more and retry). The span
  /// borrows the internal buffer (lifetimebound): it is invalidated by
  /// the next call to feed(), next() or resync(). Throws ParseError when
  /// the record at the front claims a body larger than
  /// Config::max_record_bytes.
  [[nodiscard]] std::optional<std::span<const std::uint8_t>> next()
      MLP_LIFETIMEBOUND;

  /// Tolerant recovery: distrust the most recently framed (or currently
  /// front) record, drop one byte past its start and scan forward for the
  /// next plausible record header (known type/subtype, sane length). The
  /// scan continues across future feeds until an anchor is found.
  void resync() { window_.resync(); }

  /// Transport-level resume (a reconnect): the byte stream restarts at a
  /// record boundary, so the buffered partial record can never complete.
  /// Drops the buffered tail and any pending resync scan, keeping the
  /// counters (bytes_fed/records carry over the reconnect). Returns the
  /// number of bytes dropped (0 means the disconnect was record-aligned).
  std::size_t reset() { return window_.reset(); }

  /// Bytes accepted so far (total stream length fed).
  std::uint64_t bytes_fed() const { return window_.bytes_fed(); }

  /// Complete records framed so far.
  std::uint64_t records() const { return records_; }

  /// Bytes currently buffered (the partial tail record, between drains).
  std::size_t buffered() const { return window_.buffered(); }

  /// Absolute stream offset of the record most recently returned by
  /// next() (error-message context for the decode layer).
  std::uint64_t last_record_offset() const { return window_.last_offset(); }

  /// True while a tolerant resync() scan is still hunting its anchor.
  bool resyncing() const { return window_.resyncing(); }

  /// Checkpoint hooks: the window image (FrameWindow) at the acknowledged
  /// offset -- every byte before it framed into a complete record, or
  /// stepped over by a finished resync scan -- plus the record count. The
  /// buffered partial tail is NOT serialized: the resumed transport
  /// redelivers it, which is what makes framing exactly-once. restore
  /// parses the whole image before committing (a ParseError leaves the
  /// framer untouched).
  void serialize_state(ByteWriter& writer) const;
  void restore_state(ByteReader& reader);

 private:
  Config config_;
  FrameWindow window_;
  std::uint64_t records_ = 0;
};

}  // namespace mlp::stream
