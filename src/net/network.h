// Network — datagram-style messaging over the fabric.
//
// Binds IP addresses (assigned by DHCP) to fabric nodes, registers port
// listeners, and carries every message as a real flow so that control-plane
// traffic (REST, DHCP, DNS, heartbeats) contends with data-plane traffic on
// the same links — the cross-layer coupling the paper's argument rests on.
// A message's JSON body travels as a util::Json value, never as text: the
// flow is sized from the text the body would dump to, and the receiver gets
// the value that parsing that text would give (DESIGN.md §15).
//
// Containers are bridged (paper §II-B): a container's IP binds to its host
// device's fabric node, so all containers on one Pi share its 100 Mb NIC.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "net/addr.h"
#include "net/fabric.h"
#include "sim/simulation.h"
#include "util/json.h"

namespace picloud::net {

struct Message {
  Ipv4Addr src;
  Ipv4Addr dst;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  // The JSON body, carried as a value (DESIGN.md §15): no text is built or
  // parsed in flight, yet the fabric is charged the bytes body.dump() would
  // put on the wire, and send() canonicalizes the body so the receiver sees
  // what parsing that text would have given it.
  util::Json body;
  // Bulk body size carried on the wire but not materialised as bytes in the
  // body (MapReduce shuffle partitions, file chunks). The fabric charges it;
  // receivers read it as metadata.
  double padding_bytes = 0;

  // L2-L4 framing overhead charged to the fabric per message.
  static constexpr double kHeaderBytes = 64;
  double wire_bytes() const {
    return kHeaderBytes + static_cast<double>(body.dump_size()) +
           padding_bytes;
  }
};

class Network {
 public:
  Network(sim::Simulation& sim, Fabric& fabric);

  Fabric& fabric() { return fabric_; }
  sim::Simulation& simulation() { return sim_; }

  // --- Address registry -----------------------------------------------------
  // Binds an IP to a fabric node (host NIC or bridged container).
  void bind_ip(Ipv4Addr ip, NetNodeId node);
  void unbind_ip(Ipv4Addr ip);
  std::optional<NetNodeId> resolve(Ipv4Addr ip) const;
  // Number of IPs bound to `node`.
  size_t ips_on_node(NetNodeId node) const;

  // --- Sockets ----------------------------------------------------------------
  using Handler = std::function<void(const Message&)>;
  // Registers a listener on (ip, port). Replaces any existing listener.
  void listen(Ipv4Addr ip, std::uint16_t port, Handler handler);
  void unlisten(Ipv4Addr ip, std::uint16_t port);

  // Sends a message, canonicalizing its body (util::Json::canonicalize())
  // in the walk that sizes it. Returns false when the source IP is unbound
  // (caller bug). Unknown destinations and unreachable paths drop the
  // message (a datagram network); reliability lives in proto::rest retries.
  // dst == broadcast delivers a copy to every listener on dst_port (except
  // the sender) — used by DHCP DISCOVER.
  bool send(Message msg);

  // --- Raw node addressing ----------------------------------------------------
  // Pre-IP traffic (the DHCP handshake happens before a node has an address)
  // addresses fabric nodes directly. A node listener receives messages sent
  // with send_to_node() on that port.
  void listen_node(NetNodeId node, std::uint16_t port, Handler handler);
  void unlisten_node(NetNodeId node, std::uint16_t port);
  // Sends from a node (src IP may be 0.0.0.0) to every listener on
  // `dst_port` when `dst_node` is nullopt (L2 broadcast), or to the node
  // listener of `dst_node`.
  void send_to_node(NetNodeId src_node, std::optional<NetNodeId> dst_node,
                    Message msg);

  // --- Counters ----------------------------------------------------------------
  std::uint64_t messages_sent() const { return sent_; }
  std::uint64_t messages_delivered() const { return delivered_; }
  std::uint64_t messages_dropped() const { return dropped_; }

 private:
  // Carries `msg` as a fabric flow of `wire_bytes` (msg.wire_bytes(), sized
  // once per send) from src_node to dst_node, then hands it to dst_node's
  // node listener on dst_port (`l2`) or to the listener bound on (msg.dst,
  // msg.dst_port).
  void transmit(NetNodeId src_node, NetNodeId dst_node, Message msg,
                double wire_bytes, bool l2);
  // Canonicalizes msg.body and returns msg.wire_bytes(), in one walk.
  static double size_for_wire(Message& msg);
  void deliver(const Message& msg, std::optional<NetNodeId> l2_node);

  sim::Simulation& sim_;
  Fabric& fabric_;
  std::map<Ipv4Addr, NetNodeId> ip_to_node_;
  std::map<std::pair<std::uint32_t, std::uint16_t>, Handler> listeners_;
  std::map<std::pair<NetNodeId, std::uint16_t>, Handler> node_listeners_;
  std::map<FlowId, sim::Duration> pending_delay_;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace picloud::net
