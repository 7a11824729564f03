#include "net/network.h"

#include <string>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/logging.h"

namespace picloud::net {

Network::Network(sim::Simulation& sim, Fabric& fabric)
    : sim_(sim), fabric_(fabric) {}

void Network::bind_ip(Ipv4Addr ip, NetNodeId node) {
  PICLOUD_CHECK(!ip.is_any() && !ip.is_broadcast())
      << "bind_ip to reserved address " << ip.to_string();
  ip_to_node_[ip] = node;
}

void Network::unbind_ip(Ipv4Addr ip) { ip_to_node_.erase(ip); }

std::optional<NetNodeId> Network::resolve(Ipv4Addr ip) const {
  auto it = ip_to_node_.find(ip);
  if (it == ip_to_node_.end()) return std::nullopt;
  return it->second;
}

size_t Network::ips_on_node(NetNodeId node) const {
  size_t n = 0;
  for (const auto& [ip, nid] : ip_to_node_) {
    if (nid == node) ++n;
  }
  return n;
}

void Network::listen(Ipv4Addr ip, std::uint16_t port, Handler handler) {
  listeners_[{ip.value(), port}] = std::move(handler);
}

void Network::unlisten(Ipv4Addr ip, std::uint16_t port) {
  listeners_.erase({ip.value(), port});
}

bool Network::send(Message msg) {
  auto src_node = resolve(msg.src);
  if (!src_node) return false;
  ++sent_;

  if (msg.dst.is_broadcast()) {
    // Deliver a copy to every listener on the port, except the sender.
    // Collect first: transmit() may mutate listener state via callbacks.
    std::vector<Ipv4Addr> targets;
    for (const auto& [key, handler] : listeners_) {
      if (key.second != msg.dst_port) continue;
      Ipv4Addr ip(key.first);
      if (ip == msg.src) continue;
      targets.push_back(ip);
    }
    if (targets.empty()) {
      ++dropped_;
      return true;
    }
    const double bytes = size_for_wire(msg);
    for (Ipv4Addr target : targets) {
      auto dst_node = resolve(target);
      if (!dst_node) continue;
      Message copy = msg;
      copy.dst = target;
      transmit(*src_node, *dst_node, std::move(copy), bytes, /*l2=*/false);
    }
    return true;
  }

  auto dst_node = resolve(msg.dst);
  if (!dst_node) {
    ++dropped_;
    LOG_DEBUG("net", "no route to host %s", msg.dst.to_string().c_str());
    return true;
  }
  const double bytes = size_for_wire(msg);
  transmit(*src_node, *dst_node, std::move(msg), bytes, /*l2=*/false);
  return true;
}

double Network::size_for_wire(Message& msg) {
  // The same sum as Message::wire_bytes(), with the body counted by the
  // walk that canonicalizes it.
  return Message::kHeaderBytes + static_cast<double>(msg.body.canonicalize()) +
         msg.padding_bytes;
}

void Network::transmit(NetNodeId src_node, NetNodeId dst_node, Message msg,
                       double wire_bytes, bool l2) {
  FlowSpec spec;
  spec.src = src_node;
  spec.dst = dst_node;
  spec.bytes = wire_bytes;
  // An L2 frame is handed to dst_node's node listener; an IP datagram to
  // the listener bound on (msg.dst, msg.dst_port).
  const std::optional<NetNodeId> l2_node =
      l2 ? std::optional<NetNodeId>(dst_node) : std::nullopt;
  spec.on_complete = [this, l2_node, msg = std::move(msg)](
                         FlowId id, bool success) mutable {
    auto delay_it = pending_delay_.find(id);
    sim::Duration delay = delay_it != pending_delay_.end()
                              ? delay_it->second
                              : Fabric::kLoopbackDelay;
    if (delay_it != pending_delay_.end()) pending_delay_.erase(delay_it);
    if (!success) {
      ++dropped_;
      return;
    }
    sim_.after(delay, [this, l2_node, msg = std::move(msg)]() mutable {
      // Delivery schedule point (DESIGN.md §13): in a default run the hub is
      // empty and the message is handed to its listener right here, exactly
      // where it always was. Under a model-checking strategy the delivery is
      // parked and the strategy picks its place in the interleaving.
      if (!sim_.schedule_points().active()) {
        deliver(msg, l2_node);
        return;
      }
      sim::SchedulePoint point;
      point.kind = sim::SchedulePointKind::kDelivery;
      if (l2_node) {
        point.label = "deliver-l2:node" + std::to_string(*l2_node) + ":" +
                      std::to_string(msg.dst_port);
        point.object = "node" + std::to_string(*l2_node);
      } else {
        point.label = "deliver:" + msg.src.to_string() + ":" +
                      std::to_string(msg.src_port) + ">" +
                      msg.dst.to_string() + ":" + std::to_string(msg.dst_port);
        point.object = msg.dst.to_string();
      }
      point.src_ip = msg.src.to_string();
      point.dst_ip = msg.dst.to_string();
      point.src_port = msg.src_port;
      point.dst_port = msg.dst_port;
      sim_.schedule_points().intercept(
          std::move(point), [this, l2_node, msg = std::move(msg)]() {
            deliver(msg, l2_node);
          });
    });
  };
  FlowId id = fabric_.start_flow(std::move(spec));
  // The flow is still registered until its completion event fires, so the
  // assigned path (and its propagation delay) is observable here.
  std::vector<LinkId> path = fabric_.flow_path(id);
  if (!path.empty()) pending_delay_[id] = fabric_.path_delay(path);
}

void Network::listen_node(NetNodeId node, std::uint16_t port, Handler handler) {
  node_listeners_[{node, port}] = std::move(handler);
}

void Network::unlisten_node(NetNodeId node, std::uint16_t port) {
  node_listeners_.erase({node, port});
}

void Network::send_to_node(NetNodeId src_node, std::optional<NetNodeId> dst_node,
                           Message msg) {
  ++sent_;
  if (dst_node) {
    const double bytes = size_for_wire(msg);
    transmit(src_node, *dst_node, std::move(msg), bytes, /*l2=*/true);
    return;
  }
  // L2 broadcast to every node listener on the port.
  std::vector<NetNodeId> targets;
  for (const auto& [key, handler] : node_listeners_) {
    if (key.second == msg.dst_port && key.first != src_node) {
      targets.push_back(key.first);
    }
  }
  if (targets.empty()) {
    ++dropped_;
    return;
  }
  const double bytes = size_for_wire(msg);
  for (NetNodeId target : targets) {
    transmit(src_node, target, msg, bytes, /*l2=*/true);
  }
}

void Network::deliver(const Message& msg, std::optional<NetNodeId> l2_node) {
  const auto& table = l2_node ? node_listeners_ : listeners_;
  auto it = table.find({l2_node ? *l2_node : msg.dst.value(), msg.dst_port});
  if (it == table.end()) {
    ++dropped_;
    if (!l2_node) {
      LOG_DEBUG("net", "port unreachable %s:%u", msg.dst.to_string().c_str(),
                msg.dst_port);
    }
    return;
  }
  ++delivered_;
  // Copy the handler: it may unlisten itself while running.
  Handler handler = it->second;
  handler(msg);
}

}  // namespace picloud::net
