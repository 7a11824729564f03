// Network (message layer) tests: addressing, delivery, broadcast,
// node-level pre-IP messaging, drop semantics.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "net/addr.h"
#include "net/network.h"
#include "net/topology.h"
#include "sim/simulation.h"
#include "util/json.h"

namespace picloud::net {
namespace {

TEST(Ipv4Addr, ParseAndFormat) {
  auto a = Ipv4Addr::parse("10.0.1.17");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->to_string(), "10.0.1.17");
  EXPECT_EQ(*a, Ipv4Addr(10, 0, 1, 17));
  EXPECT_FALSE(Ipv4Addr::parse("10.0.1").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("10.0.1.256").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("ten.0.1.2").has_value());
}

TEST(Subnet, ContainmentAndRanges) {
  auto subnet = Subnet::parse("10.0.0.0/16");
  ASSERT_TRUE(subnet.has_value());
  EXPECT_TRUE(subnet->contains(Ipv4Addr(10, 0, 255, 1)));
  EXPECT_FALSE(subnet->contains(Ipv4Addr(10, 1, 0, 1)));
  EXPECT_EQ(subnet->first_host(), Ipv4Addr(10, 0, 0, 1));
  EXPECT_EQ(subnet->last_host(), Ipv4Addr(10, 0, 255, 254));
  EXPECT_EQ(subnet->broadcast_addr(), Ipv4Addr(10, 0, 255, 255));
  EXPECT_EQ(subnet->host_capacity(), 65534u);
  EXPECT_EQ(subnet->to_string(), "10.0.0.0/16");
}

TEST(Subnet, SlashThirtyTwoHasNoHosts) {
  Subnet s(Ipv4Addr(1, 2, 3, 4), 32);
  EXPECT_EQ(s.host_capacity(), 0u);
  EXPECT_TRUE(s.contains(Ipv4Addr(1, 2, 3, 4)));
}

struct MessageWorld {
  sim::Simulation sim;
  Fabric fabric{sim};
  Network network{sim, fabric};
  Topology topo;

  MessageWorld() { topo = build_single_rack(fabric, 4); }
};

TEST(Network, UnicastDeliveryWithLatency) {
  MessageWorld w;
  Ipv4Addr a(10, 0, 0, 1), b(10, 0, 0, 2);
  w.network.bind_ip(a, w.topo.hosts[0]);
  w.network.bind_ip(b, w.topo.hosts[1]);
  sim::SimTime delivered_at;
  util::Json got;
  w.network.listen(b, 80, [&](const Message& msg) {
    got = msg.body;
    delivered_at = w.sim.now();
  });
  Message msg;
  msg.src = a;
  msg.dst = b;
  msg.dst_port = 80;
  msg.body = "hello";
  EXPECT_TRUE(w.network.send(msg));
  w.sim.run();
  EXPECT_EQ(got, util::Json("hello"));
  // Serialization (71 B over 100 Mb) + 2 hops of 50 us propagation.
  EXPECT_GT(delivered_at.to_seconds(), 100e-6);
  EXPECT_EQ(w.network.messages_delivered(), 1u);
}

TEST(Network, UnboundSourceRefused) {
  MessageWorld w;
  Message msg;
  msg.src = Ipv4Addr(9, 9, 9, 9);
  msg.dst = Ipv4Addr(10, 0, 0, 2);
  msg.dst_port = 80;
  EXPECT_FALSE(w.network.send(msg));
}

TEST(Network, UnknownDestinationDrops) {
  MessageWorld w;
  Ipv4Addr a(10, 0, 0, 1);
  w.network.bind_ip(a, w.topo.hosts[0]);
  Message msg;
  msg.src = a;
  msg.dst = Ipv4Addr(10, 0, 0, 99);
  msg.dst_port = 80;
  EXPECT_TRUE(w.network.send(msg));  // accepted, then dropped
  w.sim.run();
  EXPECT_EQ(w.network.messages_dropped(), 1u);
  EXPECT_EQ(w.network.messages_delivered(), 0u);
}

TEST(Network, PortUnreachableDrops) {
  MessageWorld w;
  Ipv4Addr a(10, 0, 0, 1), b(10, 0, 0, 2);
  w.network.bind_ip(a, w.topo.hosts[0]);
  w.network.bind_ip(b, w.topo.hosts[1]);
  Message msg;
  msg.src = a;
  msg.dst = b;
  msg.dst_port = 81;  // nobody listening
  w.network.send(msg);
  w.sim.run();
  EXPECT_EQ(w.network.messages_dropped(), 1u);
}

TEST(Network, BroadcastReachesAllListenersExceptSender) {
  MessageWorld w;
  Ipv4Addr ips[3] = {Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2),
                     Ipv4Addr(10, 0, 0, 3)};
  int received = 0;
  for (int i = 0; i < 3; ++i) {
    w.network.bind_ip(ips[i], w.topo.hosts[i]);
    w.network.listen(ips[i], 67, [&](const Message&) { ++received; });
  }
  Message msg;
  msg.src = ips[0];
  msg.dst = Ipv4Addr::broadcast();
  msg.dst_port = 67;
  w.network.send(msg);
  w.sim.run();
  EXPECT_EQ(received, 2);
}

TEST(Network, NodeLevelMessagingWorksWithoutIp) {
  MessageWorld w;
  int got = 0;
  w.network.listen_node(w.topo.hosts[1], 67,
                        [&](const Message&) { ++got; });
  Message msg;
  msg.dst_port = 67;
  w.network.send_to_node(w.topo.hosts[0], std::nullopt, msg);  // broadcast
  w.network.send_to_node(w.topo.hosts[0], w.topo.hosts[1], msg);  // unicast
  w.sim.run();
  EXPECT_EQ(got, 2);
}

TEST(Network, RebindMovesDelivery) {
  MessageWorld w;
  Ipv4Addr a(10, 0, 0, 1), vip(10, 0, 0, 50);
  w.network.bind_ip(a, w.topo.hosts[0]);
  w.network.bind_ip(vip, w.topo.hosts[1]);
  // The "migration": vip moves from host 1 to host 2.
  w.network.bind_ip(vip, w.topo.hosts[2]);
  EXPECT_EQ(w.network.resolve(vip), std::optional<NetNodeId>(w.topo.hosts[2]));
  EXPECT_EQ(w.network.ips_on_node(w.topo.hosts[1]), 0u);  // vip moved away
  EXPECT_EQ(w.network.ips_on_node(w.topo.hosts[2]), 1u);
  int got = 0;
  w.network.listen(vip, 80, [&](const Message&) { ++got; });
  Message msg;
  msg.src = a;
  msg.dst = vip;
  msg.dst_port = 80;
  w.network.send(msg);
  w.sim.run();
  EXPECT_EQ(got, 1);
}

TEST(Network, PaddingBytesStretchTransferTime) {
  MessageWorld w;
  Ipv4Addr a(10, 0, 0, 1), b(10, 0, 0, 2);
  w.network.bind_ip(a, w.topo.hosts[0]);
  w.network.bind_ip(b, w.topo.hosts[1]);
  sim::SimTime small_at, big_at;
  w.network.listen(b, 80, [&](const Message& msg) {
    (msg.padding_bytes > 0 ? big_at : small_at) = w.sim.now();
  });
  Message small;
  small.src = a;
  small.dst = b;
  small.dst_port = 80;
  w.network.send(small);
  w.sim.run();
  Message big = small;
  big.padding_bytes = 1.25e6;  // 0.1 s at 100 Mb/s
  sim::SimTime start = w.sim.now();
  w.network.send(big);
  w.sim.run();
  EXPECT_GT((big_at - start).to_seconds(), 0.09);
}

TEST(Network, FabricIsChargedTheBodyTextSize) {
  MessageWorld w;
  Ipv4Addr a(10, 0, 0, 1), b(10, 0, 0, 2);
  w.network.bind_ip(a, w.topo.hosts[0]);
  w.network.bind_ip(b, w.topo.hosts[1]);
  util::Json delivered;
  w.network.listen(b, 80, [&](const Message& msg) { delivered = msg.body; });
  util::Json body = util::Json::object();
  body.set("id", 7);
  body.set("path", "/a \"b\"\n");
  body.set("cost", 1.5);
  body.set("tags", util::JsonArray{util::Json(true), util::Json()});
  Message msg;
  msg.src = a;
  msg.dst = b;
  msg.dst_port = 80;
  msg.body = body;
  msg.padding_bytes = 1000;
  const std::string text = body.dump();
  EXPECT_EQ(msg.wire_bytes(),
            64.0 + static_cast<double>(text.size()) + 1000.0);
  ASSERT_TRUE(w.network.send(msg));
  w.sim.run();
  EXPECT_EQ(delivered, body);
  // host0 -> ToR -> host1: both hops carry exactly the charged bytes.
  EXPECT_EQ(w.fabric.total_bytes_carried(),
            2 * (64.0 + static_cast<double>(text.size()) + 1000.0));
}

TEST(Network, ReceiverSeesWhatParsingTheTextGives) {
  MessageWorld w;
  Ipv4Addr a(10, 0, 0, 1), b(10, 0, 0, 2);
  w.network.bind_ip(a, w.topo.hosts[0]);
  w.network.bind_ip(b, w.topo.hosts[1]);
  util::Json delivered;
  w.network.listen(b, 80, [&](const Message& msg) { delivered = msg.body; });
  util::Json body = util::Json::object();
  body.set("nan", std::nan(""));
  body.set("inf", -HUGE_VAL);
  body.set("negzero", -0.0);
  Message msg;
  msg.src = a;
  msg.dst = b;
  msg.dst_port = 80;
  msg.body = body;
  ASSERT_TRUE(w.network.send(msg));
  w.sim.run();
  auto reparsed = util::Json::parse(body.dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(delivered, reparsed.value());
  EXPECT_TRUE(delivered.get("nan").is_null());
  EXPECT_TRUE(delivered.get("inf").is_null());
  EXPECT_FALSE(std::signbit(delivered.get("negzero").as_number()));
}

}  // namespace
}  // namespace picloud::net
