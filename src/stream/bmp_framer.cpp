#include "stream/bmp_framer.hpp"

#include <set>
#include <string>

#include "bgp/asn.hpp"
#include "mrt/record_codec.hpp"
#include "util/bytes.hpp"
#include "util/errors.hpp"

namespace mlp::stream {

namespace {

constexpr std::uint8_t kBmpVersion = 3;
constexpr std::size_t kBmpHeaderBytes = 6;   // version, length, type
constexpr std::size_t kPerPeerBytes = 42;    // RFC 7854 section 4.2
constexpr std::size_t kBgpHeaderBytes = 19;  // marker + length + type

constexpr std::uint8_t kTypeRouteMonitoring = 0;
constexpr std::uint8_t kTypePeerDown = 2;
constexpr std::uint8_t kTypePeerUp = 3;
constexpr std::uint8_t kTypeMax = 6;  // through Route Mirroring
constexpr std::uint8_t kPeerFlagV = 0x80;  // IPv6 peer address
constexpr std::uint8_t kPeerFlagA = 0x20;  // legacy 2-octet AS_PATH PDU

constexpr std::uint8_t kBgpTypeOpen = 1;
constexpr std::uint8_t kBgpTypeUpdate = 2;

std::uint32_t read_u32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

std::uint64_t read_u64(const std::uint8_t* p) {
  return (static_cast<std::uint64_t>(read_u32(p)) << 32) | read_u32(p + 4);
}

void push_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void push_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Parse the 42-byte per-peer header at `peer`.
BmpPeerHeader parse_per_peer(const std::uint8_t* peer) {
  BmpPeerHeader header;
  header.peer_type = peer[0];
  header.flags = peer[1];
  header.ipv6 = (header.flags & kPeerFlagV) != 0;
  header.legacy_as_path = (header.flags & kPeerFlagA) != 0;
  header.distinguisher = read_u64(peer + 2);
  for (int i = 0; i < 16; ++i) header.address[i] = peer[10 + i];
  if (!header.ipv6) header.peer_ip = read_u32(peer + 10 + 12);
  header.asn = read_u32(peer + 26);
  header.bgp_id = read_u32(peer + 30);
  header.timestamp = read_u32(peer + 34);
  header.timestamp_us = read_u32(peer + 38);
  return header;
}

/// Minimum length a message of `type` can declare and still be decoded.
std::size_t min_message_bytes(std::uint8_t type) {
  std::size_t min = kBmpHeaderBytes;
  if (type <= 3) min += kPerPeerBytes;  // RM, Stats, Peer Down, Peer Up
  if (type == kTypeRouteMonitoring) min += kBgpHeaderBytes;
  return min;
}

/// Resync anchor: a header that a later next() would accept.
bool plausible_header(const std::uint8_t* p, std::uint32_t cap) {
  if (p[0] != kBmpVersion) return false;
  const std::uint32_t length = read_u32(p + 1);
  const std::uint8_t type = p[5];
  if (type > kTypeMax) return false;
  return length >= min_message_bytes(type) && length <= cap;
}

/// Common header + per-peer header prelude of an encoded message.
void write_prelude(ByteWriter& w, std::uint8_t type, std::size_t body_bytes,
                   std::uint8_t flags,
                   std::span<const std::uint8_t> peer_addr16,
                   std::uint32_t peer_asn, std::uint32_t bgp_id,
                   std::uint32_t timestamp) {
  w.u8(kBmpVersion);
  w.u32(static_cast<std::uint32_t>(kBmpHeaderBytes + kPerPeerBytes +
                                   body_bytes));
  w.u8(type);
  w.u8(0);  // peer type: global instance
  w.u8(flags);
  w.u64(0);  // peer distinguisher
  w.bytes(peer_addr16);
  w.u32(peer_asn);
  w.u32(bgp_id);
  w.u32(timestamp);
  w.u32(0);  // microseconds
}

/// The 16-byte per-peer address field for a v4 peer (low 4 bytes).
std::vector<std::uint8_t> v4_addr16(std::uint32_t peer_ip) {
  std::vector<std::uint8_t> addr(16, 0);
  addr[12] = static_cast<std::uint8_t>(peer_ip >> 24);
  addr[13] = static_cast<std::uint8_t>(peer_ip >> 16);
  addr[14] = static_cast<std::uint8_t>(peer_ip >> 8);
  addr[15] = static_cast<std::uint8_t>(peer_ip);
  return addr;
}

/// A minimal, valid BGP OPEN PDU (Peer Up bodies embed two of these).
std::vector<std::uint8_t> minimal_open(std::uint32_t bgp_id) {
  ByteWriter w;
  for (int i = 0; i < 16; ++i) w.u8(0xff);  // marker
  w.u16(29);                                // length
  w.u8(kBgpTypeOpen);
  w.u8(4);  // BGP version
  w.u16(0);
  w.u16(180);  // hold time
  w.u32(bgp_id);
  w.u8(0);  // no optional parameters
  return w.take();
}

}  // namespace

std::optional<BmpEvent> BmpFramer::next() {
  for (;;) {
    while (window_.resyncing() && window_.buffered() >= kBmpHeaderBytes) {
      if (plausible_header(window_.unread().data(),
                           config_.max_message_bytes))
        window_.anchored();
      else
        window_.consume(1);
    }
    if (window_.resyncing() || window_.buffered() < kBmpHeaderBytes)
      return std::nullopt;
    const std::uint8_t* head = window_.unread().data();
    const std::uint8_t version = head[0];
    const std::uint32_t length = read_u32(head + 1);
    const std::uint8_t type = head[5];
    window_.mark();
    const std::uint64_t offset = window_.last_offset();
    if (version != kBmpVersion)
      throw ParseError("BmpFramer: bad version " + std::to_string(version) +
                       " at stream offset " + std::to_string(offset));
    if (type > kTypeMax)
      throw ParseError("BmpFramer: unknown message type " +
                       std::to_string(type) + " at stream offset " +
                       std::to_string(offset));
    if (length < min_message_bytes(type) ||
        length > config_.max_message_bytes)
      throw ParseError("BmpFramer: message claims " + std::to_string(length) +
                       " bytes (type " + std::to_string(type) + ", cap " +
                       std::to_string(config_.max_message_bytes) +
                       ") at stream offset " + std::to_string(offset));
    if (window_.buffered() < length) return std::nullopt;
    const std::span<const std::uint8_t> message(head, length);
    window_.consume(length);
    ++messages_;

    if (type == kTypePeerUp || type == kTypePeerDown) {
      BmpEvent event;
      event.peer = parse_per_peer(head + kBmpHeaderBytes);
      if (type == kTypePeerUp) {
        event.kind = BmpEvent::Kind::PeerUp;
        ++peer_ups_;
      } else {
        event.kind = BmpEvent::Kind::PeerDown;
        ++peer_downs_;
        // Reason code, when the body carries one (defensive: a bare
        // per-peer header is tolerated and reads as reason 0).
        if (length > kBmpHeaderBytes + kPerPeerBytes)
          event.peer_down_reason = head[kBmpHeaderBytes + kPerPeerBytes];
      }
      return event;
    }
    if (type != kTypeRouteMonitoring) {
      ++skipped_;
      continue;
    }

    // Route Monitoring: per-peer header, then the verbatim BGP PDU.
    const BmpPeerHeader peer = parse_per_peer(head + kBmpHeaderBytes);
    const std::span<const std::uint8_t> pdu =
        message.subspan(kBmpHeaderBytes + kPerPeerBytes);
    if (pdu[18] != kBgpTypeUpdate) {  // OPEN/KEEPALIVE etc: stepped over
      ++skipped_;
      continue;
    }

    // Synthesize the BGP4MP record the MRT path expects. The A flag
    // marks a legacy peer whose PDU carries 2-octet AS_PATH segments
    // (RFC 7854 section 4.2): it maps to subtype Message, everything
    // else to MessageAs4, so the downstream decoder parses the AS_PATH
    // with the width the peer actually used. The V flag selects AFI 2
    // with the 16-byte address fields.
    const std::size_t asn_bytes = peer.legacy_as_path ? 2u * 2 : 2u * 4;
    const std::size_t addr_bytes = peer.ipv6 ? 2u * 16 : 2u * 4;
    record_.clear();
    push_u32(record_, peer.timestamp);
    push_u16(record_, static_cast<std::uint16_t>(mrt::MrtType::Bgp4mp));
    push_u16(record_, static_cast<std::uint16_t>(
                          peer.legacy_as_path ? mrt::Bgp4mpSubtype::Message
                                              : mrt::Bgp4mpSubtype::MessageAs4));
    push_u32(record_,
             static_cast<std::uint32_t>(asn_bytes + 4 + addr_bytes +
                                        pdu.size()));
    if (peer.legacy_as_path) {
      push_u16(record_, static_cast<std::uint16_t>(
                            bgp::is_16bit(peer.asn) ? peer.asn
                                                    : bgp::kAsTrans));
      push_u16(record_, 0);  // local ASN: the monitoring station has none
    } else {
      push_u32(record_, peer.asn);
      push_u32(record_, 0);
    }
    push_u16(record_, 0);  // interface index
    if (peer.ipv6) {
      push_u16(record_, 2);  // AFI IPv6
      record_.insert(record_.end(), peer.address, peer.address + 16);
      record_.insert(record_.end(), 16, 0);  // local address
    } else {
      push_u16(record_, 1);  // AFI IPv4
      push_u32(record_, peer.peer_ip);
      push_u32(record_, 0);  // local IP
    }
    record_.insert(record_.end(), pdu.begin(), pdu.end());
    BmpEvent event;
    event.kind = BmpEvent::Kind::Update;
    event.peer = peer;
    event.record = std::span<const std::uint8_t>(record_);
    return event;
  }
}

void BmpFramer::serialize_state(ByteWriter& writer) const {
  window_.serialize_state(writer);
  writer.u64(messages_);
  writer.u64(skipped_);
  writer.u64(peer_ups_);
  writer.u64(peer_downs_);
}

void BmpFramer::restore_state(ByteReader& reader) {
  BmpFramer image(config_);
  image.window_.restore_state(reader);
  image.messages_ = reader.u64();
  image.skipped_ = reader.u64();
  image.peer_ups_ = reader.u64();
  image.peer_downs_ = reader.u64();
  *this = std::move(image);
}

std::vector<std::uint8_t> bmp_route_monitoring(
    std::uint32_t timestamp, std::uint32_t peer_asn, std::uint32_t peer_ip,
    std::span<const std::uint8_t> bgp_pdu, bool legacy_as_path) {
  ByteWriter w;
  write_prelude(w, kTypeRouteMonitoring, bgp_pdu.size(),
                legacy_as_path ? kPeerFlagA : 0, v4_addr16(peer_ip),
                peer_asn, /*bgp_id=*/peer_ip, timestamp);
  w.bytes(bgp_pdu);
  return w.take();
}

std::vector<std::uint8_t> bmp_route_monitoring_v6(
    std::uint32_t timestamp, std::uint32_t peer_asn,
    std::span<const std::uint8_t> peer_addr,
    std::span<const std::uint8_t> bgp_pdu, bool legacy_as_path) {
  if (peer_addr.size() != 16)
    throw InvalidArgument("bmp_route_monitoring_v6: address must be 16 bytes");
  ByteWriter w;
  write_prelude(w, kTypeRouteMonitoring, bgp_pdu.size(),
                static_cast<std::uint8_t>(kPeerFlagV |
                                          (legacy_as_path ? kPeerFlagA : 0)),
                peer_addr, peer_asn, /*bgp_id=*/0, timestamp);
  w.bytes(bgp_pdu);
  return w.take();
}

std::vector<std::uint8_t> bmp_peer_up(std::uint32_t timestamp,
                                      std::uint32_t peer_asn,
                                      std::uint32_t peer_ip) {
  const auto sent = minimal_open(/*bgp_id=*/1);
  const auto received = minimal_open(/*bgp_id=*/peer_ip);
  ByteWriter w;
  write_prelude(w, kTypePeerUp,
                /*body=*/16 + 2 + 2 + sent.size() + received.size(),
                /*flags=*/0, v4_addr16(peer_ip), peer_asn,
                /*bgp_id=*/peer_ip, timestamp);
  w.bytes(std::vector<std::uint8_t>(16, 0));  // local address
  w.u16(179);                                 // local port
  w.u16(179);                                 // remote port
  w.bytes(sent);
  w.bytes(received);
  return w.take();
}

std::vector<std::uint8_t> bmp_peer_down(std::uint32_t timestamp,
                                        std::uint32_t peer_asn,
                                        std::uint32_t peer_ip,
                                        std::uint8_t reason) {
  ByteWriter w;
  write_prelude(w, kTypePeerDown, /*body=*/1, /*flags=*/0,
                v4_addr16(peer_ip), peer_asn, /*bgp_id=*/peer_ip, timestamp);
  w.u8(reason);
  return w.take();
}

std::vector<std::uint8_t> bmp_initiation() {
  ByteWriter w;
  w.u8(kBmpVersion);
  w.u32(kBmpHeaderBytes + 8);
  w.u8(4);   // Initiation
  w.u16(1);  // sysDescr TLV
  w.u16(4);
  w.bytes(std::string("mlp0"));
  return w.take();
}

std::vector<std::uint8_t> bmp_termination() {
  ByteWriter w;
  w.u8(kBmpVersion);
  w.u32(kBmpHeaderBytes + 6);
  w.u8(5);   // Termination
  w.u16(1);  // reason TLV
  w.u16(2);
  w.u16(0);  // administratively closed
  return w.take();
}

std::vector<std::uint8_t> bmp_wrap_updates(
    std::span<const std::uint8_t> mrt_updates) {
  std::vector<std::uint8_t> out = bmp_initiation();
  std::set<std::uint32_t> announced_peers;
  std::size_t pos = 0;
  while (pos < mrt_updates.size()) {
    const auto peek = mrt::detail::peek_header(mrt_updates.subspan(pos));
    if (!peek) throw ParseError("bmp_wrap_updates: truncated MRT record");
    const std::size_t total = mrt::detail::kMrtHeaderBytes + peek->length;
    if (mrt_updates.size() - pos < total)
      throw ParseError("bmp_wrap_updates: truncated MRT record body");
    const bool as4 = peek->subtype == static_cast<std::uint16_t>(
                                          mrt::Bgp4mpSubtype::MessageAs4);
    if (peek->type == static_cast<std::uint16_t>(mrt::MrtType::Bgp4mp) &&
        (as4 || peek->subtype == static_cast<std::uint16_t>(
                                     mrt::Bgp4mpSubtype::Message))) {
      ByteReader body(mrt_updates.subspan(
          pos + mrt::detail::kMrtHeaderBytes, peek->length));
      const auto header = mrt::detail::decode_bgp4mp_header(body, as4);
      // Real collectors announce each monitored session before routing
      // data from it; mirror that so the unwrap side's session tracking
      // is exercised by every replayed archive.
      if (announced_peers.insert(header.peer_asn).second) {
        const auto up =
            bmp_peer_up(peek->timestamp, header.peer_asn, header.peer_ip);
        out.insert(out.end(), up.begin(), up.end());
      }
      // A 2-octet-AS record's PDU carries 2-octet AS_PATH segments:
      // flag the peer as legacy so the unwrap side restores the subtype.
      const auto message = bmp_route_monitoring(
          peek->timestamp, header.peer_asn, header.peer_ip,
          body.bytes(body.remaining()), /*legacy_as_path=*/!as4);
      out.insert(out.end(), message.begin(), message.end());
    }
    pos += total;
  }
  const auto termination = bmp_termination();
  out.insert(out.end(), termination.begin(), termination.end());
  return out;
}

}  // namespace mlp::stream
