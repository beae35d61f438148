#include "propagation/collector.hpp"

#include "mrt/table_dump.hpp"

namespace mlp::propagation {

void Collector::collect(const bgp::IpPrefix& prefix, const RoutingTree& tree,
                        const PathDecorator& decorate) {
  for (const FeedSpec& feed : feeds_) {
    const Via via = tree.via(feed.feeder);
    if (via == Via::None) continue;
    if (!feed.full_feed && via != Via::Customer && via != Via::Origin)
      continue;  // peer-type session: only customer routes are exported
    auto path = tree.path_from(feed.feeder);
    if (!path) continue;
    bgp::Route route;
    route.prefix = prefix;
    route.attrs.as_path = *path;
    route.attrs.next_hop = feed.feeder_ip;
    if (decorate) decorate(*path, route.attrs);
    rib_.announce(feed.feeder, feed.feeder_ip, std::move(route));
  }
}

void Collector::collect(RoutingModel& model,
                        const std::vector<PrefixOrigin>& origins,
                        const PathDecorator& decorate) {
  model.sweep(origins, [&](const PrefixOrigin& o, const RoutingTree& tree) {
    collect(o.prefix, tree, decorate);
  });
}

std::vector<std::uint8_t> Collector::table_dump(
    std::uint32_t timestamp) const {
  return mrt::dump_rib(rib_, timestamp, ip_, name_);
}

std::vector<std::uint8_t> Collector::update_dump(
    std::uint32_t timestamp) const {
  std::vector<mrt::ObservedUpdate> updates;
  for (const auto& prefix : rib_.prefixes()) {
    for (const auto& entry : rib_.paths(prefix)) {
      mrt::ObservedUpdate u;
      u.timestamp = timestamp;
      u.peer_asn = entry.peer_asn;
      u.peer_ip = entry.peer_ip;
      u.update.nlri = {prefix};
      u.update.attrs = entry.route.attrs;
      updates.push_back(std::move(u));
    }
  }
  return mrt::dump_updates(updates, asn_, ip_);
}

}  // namespace mlp::propagation
