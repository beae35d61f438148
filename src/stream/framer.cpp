#include "stream/framer.hpp"

#include <string>

#include "mrt/record_codec.hpp"
#include "util/bytes.hpp"
#include "util/errors.hpp"

namespace mlp::stream {

using mrt::detail::kMrtHeaderBytes;

std::optional<std::span<const std::uint8_t>> MrtFramer::next() {
  // Scan for the next plausible record header; the anchor check only
  // needs the 12 header bytes, so a partial candidate simply waits for
  // the next feed.
  while (window_.resyncing() && window_.buffered() >= kMrtHeaderBytes) {
    const auto peek = mrt::detail::peek_header(window_.unread());
    if (mrt::detail::known_record_kind(peek->type, peek->subtype) &&
        peek->length <= config_.max_record_bytes)
      window_.anchored();
    else
      window_.consume(1);
  }
  if (window_.resyncing()) return std::nullopt;
  const auto peek = mrt::detail::peek_header(window_.unread());
  if (!peek) return std::nullopt;
  window_.mark();
  if (peek->length > config_.max_record_bytes)
    throw ParseError("MrtFramer: record claims " +
                     std::to_string(peek->length) +
                     " body bytes (cap " +
                     std::to_string(config_.max_record_bytes) +
                     ") at stream offset " +
                     std::to_string(window_.last_offset()));
  const std::size_t total = kMrtHeaderBytes + peek->length;
  if (window_.buffered() < total) return std::nullopt;
  const auto record = window_.unread().first(total);
  window_.consume(total);
  ++records_;
  return record;
}

void MrtFramer::serialize_state(ByteWriter& writer) const {
  window_.serialize_state(writer);
  writer.u64(records_);
}

void MrtFramer::restore_state(ByteReader& reader) {
  MrtFramer image(config_);
  image.window_.restore_state(reader);
  image.records_ = reader.u64();
  *this = std::move(image);
}

}  // namespace mlp::stream
