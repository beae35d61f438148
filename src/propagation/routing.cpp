#include "propagation/routing.hpp"

#include <algorithm>
#include <initializer_list>
#include <queue>
#include <string>
#include <tuple>

#include "util/errors.hpp"
#include "util/thread_pool.hpp"

namespace mlp::propagation {

using Rel = bgp::Rel;

GraphIndex::GraphIndex(const topology::AsGraph& graph)
    : asns(graph.ases()) {
  offsets.push_back(0);
  for (const Asn asn : asns) {
    for (const topology::Neighbor& n : graph.neighbors(asn))
      edges.emplace_back(position(n.asn), n.rel);
    offsets.push_back(static_cast<std::uint32_t>(edges.size()));
  }
}

std::uint32_t GraphIndex::position(Asn asn) const {
  const auto it = std::lower_bound(asns.begin(), asns.end(), asn);
  if (it == asns.end() || *it != asn) return npos;
  return static_cast<std::uint32_t>(it - asns.begin());
}

RoutingTree::RoutingTree(std::shared_ptr<const GraphIndex> index,
                         Asn origin)
    : index_(std::move(index)),
      origin_(index_->position(origin)),
      entries_(index_->asns.size()) {
  if (origin_ == GraphIndex::npos)
    throw InvalidArgument("compute_routes: unknown origin AS" +
                          std::to_string(origin));
  const GraphIndex& g = *index_;

  // Items are (length, next hop, node) positions. Lower is better, so ties
  // resolve to the lowest next-hop ASN deterministically.
  using Item = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
  // One Gao-Rexford stage, Dijkstra-like: every AS whose route came from
  // one of `exporters` offers it across its `follows` edges; an AS without
  // a route takes the best offer as `via` and, if the stage chains, offers
  // it on in turn.
  auto stage = [&](Via via, std::initializer_list<Via> exporters,
                   std::initializer_list<Rel> follows, bool chain) {
    auto has = [](auto set, auto value) {
      return std::find(set.begin(), set.end(), value) != set.end();
    };
    for (std::uint32_t p = 0; p < entries_.size(); ++p)
      if (has(exporters, entries_[p].via))
        pq.emplace(entries_[p].length, p, p);
    while (!pq.empty()) {
      const auto [length, next, node] = pq.top();
      pq.pop();
      Entry& entry = entries_[node];
      if (entry.via == via) continue;  // took a better offer already
      if (entry.via == Via::None) {
        entry = Entry{via, length, next};
        if (!chain) continue;
      }
      for (auto e = g.offsets[node]; e < g.offsets[node + 1]; ++e) {
        const auto [to, rel] = g.edges[e];
        if (has(follows, rel) && entries_[to].via == Via::None)
          pq.emplace(length + 1, node, to);
      }
    }
  };

  entries_[origin_] = Entry{Via::Origin, 1, origin_};
  // Customer routes: the origin's announcement climbs provider and
  // sibling edges; every AS reached prefers these routes.
  stage(Via::Customer, {Via::Origin}, {Rel::C2P, Rel::Sibling}, true);
  // Peer routes: customer routes (and the origin's) cross one p2p link and
  // are not re-exported to other peers.
  stage(Via::Peer, {Via::Customer, Via::Origin}, {Rel::P2P}, false);
  // Provider routes: everything settled so far descends customer and
  // sibling edges, repeatedly.
  stage(Via::Provider, {Via::Origin, Via::Customer, Via::Peer},
        {Rel::P2C, Rel::Sibling}, true);
}

Via RoutingTree::via(Asn asn) const {
  const std::uint32_t p = index_->position(asn);
  return p == GraphIndex::npos ? Via::None : entries_[p].via;
}

std::optional<AsPath> RoutingTree::path_from(Asn vantage) const {
  const std::uint32_t p = index_->position(vantage);
  if (p == GraphIndex::npos || entries_[p].via == Via::None)
    return std::nullopt;
  std::vector<Asn> asns;
  for (std::uint32_t current = p;; current = entries_[current].next) {
    asns.push_back(index_->asns[current]);
    if (current == origin_) break;
    if (asns.size() > entries_.size())
      throw InvalidArgument("RoutingTree: next-hop cycle detected");
  }
  return AsPath(std::move(asns));
}

RoutingTree compute_routes(const topology::AsGraph& graph, Asn origin) {
  return RoutingTree(std::make_shared<const GraphIndex>(graph), origin);
}

/// Distinct origins per sweep window, or one per pool thread if the pool
/// is larger. At most two windows of trees are alive, so this bounds the
/// sweep's heap.
constexpr std::size_t kMinWindow = 64;

RoutingModel::RoutingModel(const topology::AsGraph& graph,
                           std::size_t threads)
    : index_(std::make_shared<const GraphIndex>(graph)),
      threads_(util::ThreadPool::resolve(threads)) {}

void RoutingModel::sweep(const std::vector<PrefixOrigin>& origins,
                         const Visit& visit) {
  // Slots number the distinct origins in order of first visit.
  std::vector<std::uint32_t> slot_of(index_->asns.size(), GraphIndex::npos);
  std::vector<Asn> slot_origin;
  std::vector<std::size_t> last_visit;
  for (std::size_t i = 0; i < origins.size(); ++i) {
    const std::uint32_t p = index_->position(origins[i].origin);
    if (p == GraphIndex::npos)
      throw InvalidArgument("RoutingModel::sweep: unknown origin AS" +
                            std::to_string(origins[i].origin));
    if (slot_of[p] == GraphIndex::npos) {
      slot_of[p] = static_cast<std::uint32_t>(slot_origin.size());
      slot_origin.push_back(origins[i].origin);
      last_visit.push_back(i);
    }
    last_visit[slot_of[p]] = i;
  }

  // The pool computes the next window of trees while this thread visits
  // the current one; each worker writes only its own slot. `trees` is
  // declared before the pool, whose destructor drains in-flight work.
  std::vector<std::optional<RoutingTree>> trees(slot_origin.size());
  util::ThreadPool pool(threads_);
  std::size_t ready = 0, launched = 0;
  auto launch = [&] {
    const std::size_t end =
        std::min(launched + std::max(kMinWindow, threads_), trees.size());
    for (; launched < end; ++launched)
      pool.submit([this, &trees, &slot_origin, s = launched] {
        trees[s].emplace(index_, slot_origin[s]);
      });
  };
  launch();
  for (std::size_t i = 0; i < origins.size(); ++i) {
    const std::uint32_t s = slot_of[index_->position(origins[i].origin)];
    if (s == ready) {  // first visit of the window in flight
      pool.wait_idle();
      ready = launched;
      launch();
    }
    visit(origins[i], *trees[s]);
    if (last_visit[s] == i) trees[s].reset();
  }
  computed_ += trees.size();
}

}  // namespace mlp::propagation
