// Simulated public BGP collectors (Route Views / RIPE RIS).
//
// A collector holds BGP sessions with volunteer "feeder" ASes and archives
// what they export. Two-thirds of real feeders treat the collector session
// like a peer and export only customer routes (paper section 2.3); the
// `full_feed` flag models that distinction. The archived table is emitted
// as genuine MRT TABLE_DUMP_V2 bytes so the passive pipeline consumes the
// same wire format as with real Route Views data.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bgp/prefix.hpp"
#include "bgp/rib.hpp"
#include "propagation/routing.hpp"

namespace mlp::propagation {

/// One BGP feed into a collector.
struct FeedSpec {
  Asn feeder = 0;
  std::uint32_t feeder_ip = 0;
  /// Full table vs customer-routes-only (peer-type session).
  bool full_feed = false;
};

/// Decorates the attributes of a route as exported by `feeder`; the
/// scenario layer uses this to attach route-server communities to paths
/// that crossed an IXP route server, and to model community scrubbing.
using PathDecorator =
    std::function<void(const bgp::AsPath& path, bgp::PathAttributes& attrs)>;

/// A passive route collector.
class Collector {
 public:
  Collector(std::string name, Asn collector_asn, std::uint32_t collector_ip)
      : name_(std::move(name)),
        asn_(collector_asn),
        ip_(collector_ip) {}

  const std::string& name() const { return name_; }
  Asn asn() const { return asn_; }

  void add_feed(const FeedSpec& feed) { feeds_.push_back(feed); }

  /// Archive the routes toward `prefix` that the feeders export: each
  /// feeder contributes its best path in `tree` (the tree of the prefix's
  /// origin) subject to its feed type. `decorate` may be null.
  void collect(const bgp::IpPrefix& prefix, const RoutingTree& tree,
               const PathDecorator& decorate);

  /// The same for every (prefix, origin) pair, over one routing sweep.
  void collect(RoutingModel& model, const std::vector<PrefixOrigin>& origins,
               const PathDecorator& decorate);

  const bgp::Rib& rib() const { return rib_; }

  /// Archive the current RIB as an MRT TABLE_DUMP_V2 byte stream.
  std::vector<std::uint8_t> table_dump(std::uint32_t timestamp) const;

  /// Archive the current RIB as a BGP4MP update stream (one announcement
  /// per RIB entry), as if replaying the session establishment.
  std::vector<std::uint8_t> update_dump(std::uint32_t timestamp) const;

 private:
  std::string name_;
  Asn asn_ = 0;
  std::uint32_t ip_ = 0;
  std::vector<FeedSpec> feeds_;
  bgp::Rib rib_;
};

}  // namespace mlp::propagation
