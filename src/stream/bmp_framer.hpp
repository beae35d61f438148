// BMP (RFC 7854) transport in front of the MRT update path.
//
// Route collectors increasingly export live feeds over the BGP Monitoring
// Protocol instead of raw MRT byte streams: each monitored BGP UPDATE
// arrives wrapped in a Route Monitoring message (common header + per-peer
// header + the verbatim BGP PDU). BmpFramer buffers arbitrary transport
// chunks, frames complete BMP messages, and surfaces the ones that carry
// session semantics as events:
//
//   Update   -- a Route Monitoring UPDATE, synthesized into an MRT
//               BGP4MP_MESSAGE[_AS4] record so the existing
//               MrtFramer/UpdateDecoder/PassiveExtractor chain consumes a
//               BMP feed unchanged (the two transports cannot diverge
//               semantically). IPv6 peers synthesize AFI-2 records.
//   PeerUp   -- RFC 7854 type 3: the monitored router (re)established a
//               BGP session with the peer. Consumers tear down any state
//               left from a previous session that died without a PeerDown.
//   PeerDown -- RFC 7854 type 2, with the reason code when present: the
//               peer's session ended; its pending announcements must not
//               linger.
//
// Every event carries the fully parsed per-peer header. Messages without
// session meaning to this pipeline (Initiation, Stats Reports,
// Termination, Route Mirroring) and Route Monitoring PDUs that are not
// UPDATEs are framed, counted in skipped() and stepped over.
//
// Memory contract mirrors MrtFramer: the buffer never holds more than one
// partial message after a drain, and the synthesized record scratch is
// reused across next() calls, so peak footprint is O(chunk + one message).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "stream/frame_window.hpp"
#include "util/annotations.hpp"

namespace mlp::stream {

/// The RFC 7854 section 4.2 per-peer header, fully parsed.
struct BmpPeerHeader {
  std::uint8_t peer_type = 0;
  std::uint8_t flags = 0;
  bool ipv6 = false;            // V flag: 16-byte address is IPv6
  bool legacy_as_path = false;  // A flag: PDU carries 2-octet AS_PATH
  std::uint64_t distinguisher = 0;
  std::uint8_t address[16] = {};  // verbatim 16-byte peer address field
  std::uint32_t peer_ip = 0;      // low 4 bytes when !ipv6; 0 otherwise
  std::uint32_t asn = 0;
  std::uint32_t bgp_id = 0;
  std::uint32_t timestamp = 0;     // seconds
  std::uint32_t timestamp_us = 0;  // microseconds
};

/// One framed BMP message with session meaning.
struct BmpEvent {
  enum class Kind : std::uint8_t { Update, PeerUp, PeerDown };
  Kind kind = Kind::Update;
  BmpPeerHeader peer;
  /// Update only: the synthesized MRT record (header + body). Borrows the
  /// framer's scratch buffer -- invalidated by the next feed()/next()/
  /// resync() call. Empty for PeerUp/PeerDown.
  std::span<const std::uint8_t> record;
  /// PeerDown only: the RFC 7854 reason code, 0 when the body is absent
  /// or truncated (parsed defensively -- a missing reason is not an
  /// error).
  std::uint8_t peer_down_reason = 0;
};

class BmpFramer {
 public:
  struct Config {
    /// Upper bound on one BMP message. A corrupt length field must not
    /// make the framer buffer forever; RFC 7854 messages carry one BGP
    /// PDU (<= 4 KiB) plus fixed headers, so even 64 KiB is generous.
    std::uint32_t max_message_bytes = 1u << 20;
  };

  BmpFramer() = default;
  explicit BmpFramer(Config config) : config_(config) {}

  /// Append one chunk of transport bytes.
  void feed(std::span<const std::uint8_t> chunk) { window_.feed(chunk); }

  /// The next session event (Update / PeerUp / PeerDown), or nullopt when
  /// the buffered bytes end mid-message and every complete message has
  /// been served. An Update event's record span borrows the framer's
  /// scratch (lifetimebound). Throws ParseError on a structurally invalid
  /// message (bad version, absurd length, truncated Route Monitoring
  /// payload), naming the message's byte offset in the stream.
  [[nodiscard]] std::optional<BmpEvent> next() MLP_LIFETIMEBOUND;

  /// Tolerant recovery: distrust the message at the front, drop one byte
  /// past its start and scan for the next plausible BMP header (version
  /// 3, known type, sane length). The scan continues across feeds.
  void resync() { window_.resync(); }

  /// Transport-level resume (a reconnect): drop the buffered partial
  /// message and any pending resync scan, keeping the counters. Returns
  /// the number of bytes dropped.
  std::size_t reset() { return window_.reset(); }

  /// Transport bytes accepted so far.
  std::uint64_t bytes_fed() const { return window_.bytes_fed(); }

  /// Complete BMP messages framed so far (all types).
  std::uint64_t messages() const { return messages_; }

  /// Messages stepped over without yielding an event: Initiation, Stats,
  /// Termination, Mirroring, and non-UPDATE PDUs.
  std::uint64_t skipped() const { return skipped_; }

  /// PeerUp / PeerDown events surfaced so far.
  std::uint64_t peer_ups() const { return peer_ups_; }
  std::uint64_t peer_downs() const { return peer_downs_; }

  /// Bytes currently buffered (the partial tail message, between drains).
  std::size_t buffered() const { return window_.buffered(); }

  /// Absolute stream offset of the message most recently framed.
  std::uint64_t last_message_offset() const { return window_.last_offset(); }

  /// True while a tolerant resync() scan is still hunting its anchor.
  bool resyncing() const { return window_.resyncing(); }

  /// Checkpoint hooks: the window image (FrameWindow) at the acknowledged
  /// transport offset plus every counter; the buffered partial message is
  /// redelivered by the resumed transport, never serialized. restore
  /// parses the whole image before committing (a ParseError leaves the
  /// framer untouched).
  void serialize_state(ByteWriter& writer) const;
  void restore_state(ByteReader& reader);

 private:
  Config config_;
  FrameWindow window_;
  std::uint64_t messages_ = 0;
  std::uint64_t skipped_ = 0;
  std::uint64_t peer_ups_ = 0;
  std::uint64_t peer_downs_ = 0;
  std::vector<std::uint8_t> record_;  // synthesized MRT record scratch
};

/// Encode one BMP Route Monitoring message wrapping `bgp_pdu` (a complete
/// BGP message, marker included) as seen from `peer_asn`/`peer_ip` at
/// `timestamp`. `legacy_as_path` sets the RFC 7854 A flag: the PDU's
/// AS_PATH uses 2-octet ASNs (unwrapped as subtype Message instead of
/// MessageAs4). Test/bench/replay helper -- the encode mirror of what
/// BmpFramer::next() unwraps.
std::vector<std::uint8_t> bmp_route_monitoring(
    std::uint32_t timestamp, std::uint32_t peer_asn, std::uint32_t peer_ip,
    std::span<const std::uint8_t> bgp_pdu, bool legacy_as_path = false);

/// IPv6-peer variant: `peer_addr` is the 16-byte address; sets the V flag.
std::vector<std::uint8_t> bmp_route_monitoring_v6(
    std::uint32_t timestamp, std::uint32_t peer_asn,
    std::span<const std::uint8_t> peer_addr,
    std::span<const std::uint8_t> bgp_pdu, bool legacy_as_path = false);

/// Encode a Peer Up (type 3) for `peer_asn`/`peer_ip`: per-peer header
/// plus the RFC 7854 body (local address/ports and two minimal OPEN
/// PDUs, which this pipeline does not parse).
std::vector<std::uint8_t> bmp_peer_up(std::uint32_t timestamp,
                                      std::uint32_t peer_asn,
                                      std::uint32_t peer_ip);

/// Encode a Peer Down (type 2) with `reason` (default 1: local system
/// closed, notification follows omitted -- the body past the reason code
/// is not parsed).
std::vector<std::uint8_t> bmp_peer_down(std::uint32_t timestamp,
                                        std::uint32_t peer_asn,
                                        std::uint32_t peer_ip,
                                        std::uint8_t reason = 1);

/// Encode a minimal Initiation (type 4) / Termination (type 5) message;
/// real collectors bracket a session with these, and the framer must step
/// over them.
std::vector<std::uint8_t> bmp_initiation();
std::vector<std::uint8_t> bmp_termination();

/// Re-wrap a BGP4MP update archive as a BMP session byte stream:
/// Initiation, a Peer Up per distinct peer on first sight, one Route
/// Monitoring message per update record (peer and timestamp carried
/// over), Termination. Non-update records are dropped. The replay-side
/// bridge used by tests, benchmarks and `mlp_infer serve --bmp`.
std::vector<std::uint8_t> bmp_wrap_updates(
    std::span<const std::uint8_t> mrt_updates);

}  // namespace mlp::stream
