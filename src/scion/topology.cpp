#include "scion/topology.hpp"

#include <cassert>
#include <stdexcept>

#include "util/log.hpp"

namespace pan::scion {

namespace {
constexpr std::string_view kLog = "topo";
/// Access link of a host added without explicit link parameters.
constexpr net::LinkParams kHostAccessLink{
    .latency = microseconds(200),
    .bandwidth_bps = 1e9,
    .loss_rate = 0.0,
    .mtu = 1500,
};
}  // namespace

Topology::Topology(sim::Simulator& sim, TopologyConfig config)
    : sim_(sim), config_(config), network_(sim, config.seed ^ 0x6e657477ULL) {}

Topology::~Topology() = default;

void Topology::add_as(const AsSpec& spec) {
  assert(!finalized_);
  if (as_by_name_.contains(spec.name)) {
    throw std::invalid_argument("duplicate AS name: " + spec.name);
  }
  if (as_by_ia_.contains(spec.ia)) {
    throw std::invalid_argument("duplicate ISD-AS: " + spec.ia.to_string());
  }
  AsState state;
  state.spec = spec;
  state.router_node = network_.add_node("br-" + spec.name);
  state.router = std::make_unique<net::Router>(network_, state.router_node);
  const std::size_t index = ases_.size();
  as_by_name_[spec.name] = index;
  as_by_ia_[spec.ia] = index;
  ases_.push_back(std::move(state));
}

std::size_t Topology::as_index(const std::string& name) const {
  const auto it = as_by_name_.find(name);
  if (it == as_by_name_.end()) {
    throw std::invalid_argument("unknown AS name: " + name);
  }
  return it->second;
}

void Topology::add_link(const AsLinkSpec& spec) {
  assert(!finalized_);
  const std::size_t ia = as_index(spec.a);
  const std::size_t ib = as_index(spec.b);
  if (ia == ib) throw std::invalid_argument("self-link on AS " + spec.a);
  if (spec.type == LinkType::kParentChild &&
      ases_[ia].spec.ia.isd() != ases_[ib].spec.ia.isd()) {
    throw std::invalid_argument("parent-child links must stay within one ISD: " + spec.a +
                                " -> " + spec.b);
  }
  if (spec.type == LinkType::kCore && (!ases_[ia].spec.core || !ases_[ib].spec.core)) {
    throw std::invalid_argument("core links must connect core ASes: " + spec.a + " -- " +
                                spec.b);
  }
  if (spec.type == LinkType::kPeering && (ases_[ia].spec.core || ases_[ib].spec.core)) {
    throw std::invalid_argument("peering links connect non-core ASes: " + spec.a + " -- " +
                                spec.b);
  }

  const auto [if_a, if_b] =
      network_.connect(ases_[ia].router_node, ases_[ib].router_node, spec.params);
  const std::size_t link_index = link_specs_.size();
  link_specs_.push_back(spec);

  ases_[ia].adjacency.push_back(AsAdjacency{
      link_index, ib, BorderRouter::to_scion_if(if_a), spec.type, /*is_parent_side=*/true});
  ases_[ib].adjacency.push_back(AsAdjacency{
      link_index, ia, BorderRouter::to_scion_if(if_b), spec.type, /*is_parent_side=*/false});
}

HostId Topology::add_host(const std::string& as_name, const std::string& host_name) {
  return add_host(as_name, host_name, kHostAccessLink);
}

HostId Topology::add_host(const std::string& as_name, const std::string& host_name,
                          const net::LinkParams& access) {
  assert(!finalized_);
  if (host_by_name_.contains(host_name)) {
    throw std::invalid_argument("duplicate host name: " + host_name);
  }
  const std::size_t as_idx = as_index(as_name);
  AsState& as = ases_[as_idx];

  HostState state;
  state.name = host_name;
  state.as_index = as_idx;
  state.node = network_.add_node(host_name);
  state.ip = net::IpAddr{static_cast<std::uint32_t>(((as_idx + 1) << 16) |
                                                    (as.hosts.size() + 1))};
  // Host side first so the host's access interface is its interface 0.
  const auto [host_if, router_if] = network_.connect(state.node, as.router_node, access);
  (void)host_if;
  as.router->set_host_route(state.ip, router_if);

  state.host = std::make_unique<net::Host>(network_, state.node, state.ip);
  state.stack = std::make_unique<ScionStack>(*state.host, as.spec.ia);

  const HostId id{hosts_.size()};
  host_by_name_[host_name] = id.index;
  as.hosts.push_back(id.index);
  hosts_.push_back(std::move(state));
  return id;
}

LinkMeta Topology::link_meta(std::size_t link_spec_index) const {
  const AsLinkSpec& spec = link_specs_[link_spec_index];
  LinkMeta meta;
  meta.latency = spec.params.latency;
  meta.bandwidth_bps = spec.params.bandwidth_bps;
  meta.mtu = spec.params.mtu;
  meta.loss_rate = spec.params.loss_rate;
  meta.jitter = spec.params.latency.scaled(spec.params.jitter_frac);
  meta.co2_g_per_gb = spec.co2_g_per_gb;
  meta.cost_per_gb = spec.cost_per_gb;
  return meta;
}

void Topology::build_pki(Rng& rng) {
  // Keys.
  for (AsState& as : ases_) {
    as.forwarding_key.resize(16);
    for (auto& byte : as.forwarding_key) {
      byte = static_cast<std::uint8_t>(rng.next_below(256));
    }
    Rng key_rng = rng.fork(as.spec.ia.packed());
    as.keypair = crypto::generate_keypair(key_rng);
  }

  // TRCs: one per ISD, listing core AS keys.
  std::unordered_map<Isd, Trc> trcs;
  for (const AsState& as : ases_) {
    Trc& trc = trcs[as.spec.ia.isd()];
    trc.isd = as.spec.ia.isd();
    if (as.spec.core) {
      trc.core_keys[as.spec.ia] = as.keypair.public_key;
      infra_.register_core_as(as.spec.ia);
    }
  }
  for (auto& [isd, trc] : trcs) {
    if (trc.core_keys.empty()) {
      throw std::logic_error("ISD " + std::to_string(isd) + " has no core AS");
    }
    trust_.add_trc(std::move(trc));
  }

  // Certificates: issued by the lowest-numbered core AS of the subject's
  // ISD (core ASes self-issue), chaining every AS key to its TRC.
  for (const AsState& as : ases_) {
    const AsState* issuer = nullptr;
    if (as.spec.core) {
      issuer = &as;
    } else {
      for (const AsState& candidate : ases_) {
        if (!candidate.spec.core || candidate.spec.ia.isd() != as.spec.ia.isd()) continue;
        if (issuer == nullptr || candidate.spec.ia < issuer->spec.ia) issuer = &candidate;
      }
    }
    if (issuer == nullptr) {
      throw std::logic_error("no issuer for AS " + as.spec.ia.to_string());
    }
    trust_.add_certificate(issue_certificate(as.spec.ia, as.keypair.public_key,
                                             issuer->spec.ia, issuer->keypair.private_key));
  }
}

void Topology::build_legacy_routes() {
  // AS-level graph weighted by hop count (BGP-like); edge tags carry the
  // local egress (net) interface id.
  net::Adjacency adj(ases_.size());
  for (std::size_t i = 0; i < ases_.size(); ++i) {
    for (const AsAdjacency& a : ases_[i].adjacency) {
      adj[i].push_back(net::GraphEdge{static_cast<std::uint32_t>(a.neighbor), 1.0,
                                      static_cast<std::uint32_t>(
                                          BorderRouter::to_net_if(a.scion_if))});
    }
  }
  for (std::size_t i = 0; i < ases_.size(); ++i) {
    const net::ShortestPaths paths = net::dijkstra(adj, static_cast<std::uint32_t>(i));
    for (std::size_t j = 0; j < ases_.size(); ++j) {
      if (i == j) continue;
      const std::uint32_t tag =
          net::first_hop_tag(paths, static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j));
      if (tag == UINT32_MAX) {
        PAN_WARN(kLog) << ases_[i].spec.name << " has no legacy route to "
                       << ases_[j].spec.name;
        continue;
      }
      const std::uint16_t prefix = static_cast<std::uint16_t>(j + 1);
      ases_[i].router->set_prefix_route(prefix, static_cast<net::IfId>(tag));
    }
  }
}

void Topology::finalize() {
  assert(!finalized_);
  Rng rng(config_.seed);
  build_pki(rng);
  build_legacy_routes();
  run_beaconing();

  // Register directed-link capacities with the reservation service and hand
  // the routers a policing handle.
  for (const AsState& as : ases_) {
    for (const AsAdjacency& adj : as.adjacency) {
      reservations_.register_link(as.spec.ia, adj.scion_if,
                                  link_specs_[adj.link_spec_index].params.bandwidth_bps);
    }
  }
  BorderRouterConfig br_config = config_.border_router;
  br_config.reservations = &reservations_;
  for (AsState& as : ases_) {
    // Per-AS config copy: each router gets its own pre-registered
    // forward-latency histogram (distinct pointer per AS).
    BorderRouterConfig as_config = br_config;
    if (config_.metrics != nullptr) {
      as_config.forward_latency =
          &config_.metrics->histogram("router." + as.spec.ia.to_string() + ".forward_latency");
    }
    as.border_router = std::make_unique<BorderRouter>(*as.router, as.spec.ia,
                                                      as.forwarding_key, as_config);
    as.daemon = std::make_unique<Daemon>(sim_, infra_, as.spec.ia);
  }
  finalized_ = true;
  PAN_INFO(kLog) << "topology finalized: " << ases_.size() << " ASes, " << hosts_.size()
                 << " hosts, " << infra_.segment_count() << " segments";
}

void Topology::rebeacon(std::uint32_t new_timestamp) {
  assert(finalized_);
  config_.beacon_timestamp = new_timestamp;
  infra_.clear_segments();
  run_beaconing();
  for (AsState& as : ases_) {
    as.daemon->flush_cache();
  }
  PAN_INFO(kLog) << "re-beaconed at ts=" << new_timestamp << ": "
                 << infra_.segment_count() << " segments";
}

void Topology::set_data_plane_time(std::uint32_t unix_time) {
  for (AsState& as : ases_) {
    if (as.border_router != nullptr) as.border_router->set_current_time(unix_time);
  }
}

std::vector<IsdAsn> Topology::all_ases() const {
  std::vector<IsdAsn> out;
  out.reserve(ases_.size());
  for (const AsState& as : ases_) out.push_back(as.spec.ia);
  return out;
}

IsdAsn Topology::as_by_name(const std::string& name) const {
  return ases_[as_index(name)].spec.ia;
}

const Topology::AsState& Topology::as_state(IsdAsn ia) const {
  const auto it = as_by_ia_.find(ia);
  if (it == as_by_ia_.end()) {
    throw std::invalid_argument("unknown ISD-AS: " + ia.to_string());
  }
  return ases_[it->second];
}

Topology::AsState& Topology::as_state(IsdAsn ia) {
  return const_cast<AsState&>(static_cast<const Topology*>(this)->as_state(ia));
}

const AsMeta& Topology::as_meta(IsdAsn ia) const { return as_state(ia).spec.meta; }

bool Topology::is_core(IsdAsn ia) const { return as_state(ia).spec.core; }

Daemon& Topology::daemon(IsdAsn ia) {
  assert(finalized_);
  return *as_state(ia).daemon;
}

const BorderRouterStats& Topology::border_router_stats(IsdAsn ia) const {
  return as_state(ia).border_router->stats();
}

const ForwardingKey& Topology::forwarding_key(IsdAsn ia) const {
  return as_state(ia).forwarding_key;
}

net::Host& Topology::host(HostId id) { return *hosts_.at(id.index).host; }

ScionStack& Topology::scion_stack(HostId id) { return *hosts_.at(id.index).stack; }

Daemon& Topology::daemon_for(HostId id) {
  return *ases_[hosts_.at(id.index).as_index].daemon;
}

net::IpAddr Topology::ip(HostId id) const { return hosts_.at(id.index).ip; }

IsdAsn Topology::as_of(HostId id) const {
  return ases_[hosts_.at(id.index).as_index].spec.ia;
}

ScionAddr Topology::scion_addr(HostId id) const {
  return ScionAddr{as_of(id), ip(id)};
}

const std::string& Topology::host_name(HostId id) const { return hosts_.at(id.index).name; }

HostId Topology::host_by_name(const std::string& name) const {
  const auto it = host_by_name_.find(name);
  if (it == host_by_name_.end()) {
    throw std::invalid_argument("unknown host name: " + name);
  }
  return HostId{it->second};
}

}  // namespace pan::scion
