// Decode one framed MRT record at a time with reusable scratch.
//
// The live path frames records out of a byte stream (MrtFramer) and
// decodes each span as it completes -- the incremental analogue of
// mrt::MrtCursor's BGP4MP branch, sharing the same record_codec decode
// helpers so the two paths cannot diverge. Like the cursor, a warm
// decoder re-decodes into kept-capacity buffers, so steady-state framing
// plus decoding is allocation-free.
#pragma once

#include <cstdint>
#include <span>

#include "bgp/wire.hpp"
#include "util/annotations.hpp"
#include "util/bytes.hpp"

namespace mlp::stream {

/// Borrowed view of one decoded BGP4MP update; valid until the next
/// decode() call.
struct UpdateRecordView {
  std::uint32_t timestamp = 0;
  std::uint32_t peer_asn = 0;
  std::uint32_t peer_ip = 0;
  const bgp::UpdateMessage* update = nullptr;
};

class UpdateDecoder {
 public:
  /// Decode one complete MRT record (header + body, as framed). Returns
  /// a view when the record is a BGP4MP update message; nullptr for
  /// records an update consumer steps over (TABLE_DUMP_V2, unknown
  /// types), which are counted in skipped(). Throws ParseError on a
  /// structurally invalid update record.
  [[nodiscard]] const UpdateRecordView* decode(
      std::span<const std::uint8_t> record) MLP_LIFETIMEBOUND;

  /// Records stepped over without decoding.
  std::size_t skipped() const { return skipped_; }

  /// Checkpoint hooks: carry the skip counter over a resume (the scratch
  /// buffers are per-decode transients with nothing to restore).
  void serialize_state(ByteWriter& writer) const { writer.u64(skipped_); }
  void restore_state(ByteReader& reader) { skipped_ = reader.u64(); }

 private:
  bgp::UpdateMessage scratch_;
  UpdateRecordView view_;
  std::size_t skipped_ = 0;
};

}  // namespace mlp::stream
