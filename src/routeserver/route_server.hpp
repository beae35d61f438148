// An IXP route server: one BGP session per member, community-driven
// outbound filtering, and route reflection among members (paper section 3).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "bgp/rib.hpp"
#include "routeserver/export_policy.hpp"
#include "routeserver/scheme.hpp"

namespace mlp::routeserver {

/// Per-member session state.
struct MemberSession {
  Asn asn = 0;
  std::uint32_t ixp_ip = 0;  // address on the IXP peering LAN
};

/// A route server instance for one IXP.
///
/// Members announce routes tagged with RS communities; `exports_to`
/// computes the filtered view each member receives, and
/// `reciprocal_links` derives the ground-truth multilateral peering mesh
/// under the paper's connectivity+reachability definition.
class RouteServer {
 public:
  struct Options {
    /// Strip all community values before re-advertising (Netnod behaviour,
    /// section 5.8) -- defeats passive inference by design.
    bool strip_communities = false;
    /// Insert the route server's ASN into re-advertised paths. Most route
    /// servers are transparent; the paper found 3 that were not.
    bool prepend_rs_asn = false;
    /// Also apply inbound per-member import filters (import policies are
    /// at most as restrictive as export filters; see section 4.4).
    bool honour_import_filters = true;
  };

  explicit RouteServer(IxpCommunityScheme scheme)
      : scheme_(std::move(scheme)) {}
  RouteServer(IxpCommunityScheme scheme, Options options)
      : scheme_(std::move(scheme)), options_(options) {}

  const IxpCommunityScheme& scheme() const { return scheme_; }
  const Options& options() const { return options_; }

  /// Open a session. Re-connecting an existing member updates its IP.
  void connect(Asn member, std::uint32_t ixp_ip);

  /// Tear down a session and drop its routes.
  void disconnect(Asn member);

  bool is_member(Asn asn) const { return sessions_.count(asn) != 0; }
  std::vector<MemberSession> members() const;
  std::size_t member_count() const { return sessions_.size(); }

  /// Set a member's import filter (who it accepts routes from). Defaults
  /// to accept-everyone. Only consulted if honour_import_filters is set.
  void set_import_filter(Asn member, ExportPolicy filter);

  /// Member announces a route; the RS communities on `route.attrs` define
  /// its export policy toward other members. Throws InvalidArgument if the
  /// member has no session.
  void announce(Asn member, bgp::Route route);

  void withdraw(Asn member, const bgp::IpPrefix& prefix);

  /// The route server's own table (everything members sent), unfiltered.
  const bgp::Rib& rib() const { return rib_; }

  /// The filtered Adj-RIB-Out toward `member`: every route whose setter's
  /// export policy allows `member` (and whose own import filter accepts
  /// the setter, if enabled). Communities are stripped and/or the RS ASN
  /// prepended per Options.
  std::vector<bgp::RibEntry> exports_to(Asn member) const;

  /// Export policy of `member` as derived from the communities on its
  /// announcements, intersected across its prefixes (paper step 4).
  /// Defaults to open if the member announced nothing or used no RS
  /// communities.
  ExportPolicy effective_policy(Asn member) const;

  /// Ground-truth multilateral peering links: pairs of members that allow
  /// each other (connectivity + reciprocal reachability, paper step 5).
  std::set<bgp::AsLink> reciprocal_links() const;

 private:
  bool member_allows(Asn setter, Asn receiver) const;

  IxpCommunityScheme scheme_;
  Options options_;
  std::map<Asn, MemberSession> sessions_;
  /// The connected members as a flat sorted set (the policy-intersection
  /// universe, maintained by connect/disconnect).
  FlatAsnSet member_set_;
  std::map<Asn, ExportPolicy> import_filters_;
  bgp::Rib rib_;
  /// effective_policy is derived from RIB state; memoised because
  /// exports_to and reciprocal_links consult it per (setter, receiver).
  mutable std::map<Asn, ExportPolicy> policy_cache_;
};

}  // namespace mlp::routeserver
