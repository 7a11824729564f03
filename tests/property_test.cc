// Cross-cutting property tests: whole-system determinism, JSON round-trip
// under random documents, fabric byte conservation, DHCP uniqueness under
// churn.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>

#include "apps/loadgen.h"
#include "cloud/cloud.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/strings.h"

namespace picloud {
namespace {

// ---------------------------------------------------------------------------
// Determinism: the same seed must produce the exact same world.

struct RunFingerprint {
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  double bytes_carried = 0;
  std::vector<std::string> placements;
  std::uint64_t completed = 0;
  double p99 = 0;

  bool operator==(const RunFingerprint&) const = default;
};

RunFingerprint run_world(std::uint64_t seed) {
  sim::Simulation sim(seed);
  cloud::PiCloudConfig config;
  config.racks = 2;
  config.hosts_per_rack = 5;
  cloud::PiCloud cloud(sim, config);
  cloud.power_on();
  cloud.await_ready();
  cloud.run_for(sim::Duration::seconds(5));
  std::vector<net::Ipv4Addr> targets;
  for (int i = 0; i < 6; ++i) {
    auto r = cloud.spawn_and_wait(
        {.name = util::format("w%d", i), .app_kind = "httpd"});
    if (r.ok()) targets.push_back(r.value().ip);
  }
  apps::HttpLoadGen::Params load;
  load.requests_per_sec = 50;
  apps::HttpLoadGen gen(cloud.network(), cloud.admin_ip(), targets, load,
                        util::Rng(seed ^ 0xabc));
  gen.start();
  cloud.run_for(sim::Duration::seconds(20));
  gen.stop();

  RunFingerprint fp;
  fp.events = sim.events_executed();
  fp.messages = cloud.network().messages_sent();
  fp.bytes_carried = cloud.fabric().total_bytes_carried();
  for (const auto& record : cloud.master().instances()) {
    fp.placements.push_back(record.name + "@" + record.hostname + "=" +
                            record.ip.to_string());
  }
  fp.completed = gen.completed();
  fp.p99 = gen.latencies().p99();
  return fp;
}

TEST(Determinism, IdenticalSeedsProduceIdenticalWorlds) {
  RunFingerprint a = run_world(1234);
  RunFingerprint b = run_world(1234);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bytes_carried, b.bytes_carried);
  EXPECT_EQ(a.placements, b.placements);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.p99, b.p99);
}

TEST(Determinism, DifferentSeedsDiverge) {
  RunFingerprint a = run_world(1234);
  RunFingerprint b = run_world(5678);
  EXPECT_NE(a.events, b.events);
}

// ---------------------------------------------------------------------------
// JSON round-trip over random documents.

// A number whose text form parse() maps to something else (NaN, +-Inf,
// -0.0) or that must survive it bit for bit (integers at and above 2^53,
// subnormals).
double awkward_number(util::Rng& rng) {
  switch (rng.uniform_int(0, 6)) {
    case 0: return std::numeric_limits<double>::quiet_NaN();
    case 1: return std::numeric_limits<double>::infinity();
    case 2: return -std::numeric_limits<double>::infinity();
    case 3: return -0.0;
    case 4:
      return 9007199254740992.0 +
             2.0 * static_cast<double>(rng.uniform_int(0, 1000));
    case 5:
      return -9007199254740992.0 *
             static_cast<double>(rng.uniform_int(1, 1 << 20));
    default:
      return std::numeric_limits<double>::denorm_min() *
             static_cast<double>(rng.uniform_int(1, 1LL << 40));
  }
}

// With `awkward`, numbers also come from awkward_number() and strings may
// hold any byte, control characters included.
util::Json random_json(util::Rng& rng, int depth, bool awkward = false) {
  double leaf_bias = depth >= 4 ? 1.0 : 0.55;
  if (rng.next_double() < leaf_bias) {
    switch (rng.uniform_int(0, 3)) {
      case 0: return util::Json(nullptr);
      case 1: return util::Json(rng.chance(0.5));
      case 2: {
        if (awkward && rng.chance(0.5)) return util::Json(awkward_number(rng));
        // Mix integers and awkward doubles.
        if (rng.chance(0.5)) {
          return util::Json(static_cast<long long>(
              rng.uniform_int(-1000000000000LL, 1000000000000LL)));
        }
        return util::Json(rng.uniform(-1e6, 1e6));
      }
      default: {
        std::string s;
        int len = static_cast<int>(rng.uniform_int(0, 12));
        for (int i = 0; i < len; ++i) {
          if (awkward) {
            s.push_back(static_cast<char>(rng.uniform_int(0, 255)));
            continue;
          }
          // Throw in escapes and control characters.
          const char* alphabet = "ab\"\\\n\t/x 7\x01";
          s.push_back(alphabet[rng.uniform_int(0, 10)]);
        }
        return util::Json(s);
      }
    }
  }
  if (rng.chance(0.5)) {
    util::Json arr = util::Json::array();
    int n = static_cast<int>(rng.uniform_int(0, 5));
    for (int i = 0; i < n; ++i) {
      arr.push_back(random_json(rng, depth + 1, awkward));
    }
    return arr;
  }
  util::Json obj = util::Json::object();
  int n = static_cast<int>(rng.uniform_int(0, 5));
  for (int i = 0; i < n; ++i) {
    obj.set("k" + std::to_string(i), random_json(rng, depth + 1, awkward));
  }
  return obj;
}

// Json::operator== compares numbers with ==, so -0.0 equals 0; this also
// tells them apart.
bool identical(const util::Json& a, const util::Json& b) {
  if (a.type() != b.type()) return false;
  if (a.is_number()) {
    return std::bit_cast<std::uint64_t>(a.as_number()) ==
           std::bit_cast<std::uint64_t>(b.as_number());
  }
  if (a.is_array()) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!identical(a[i], b[i])) return false;
    }
    return true;
  }
  if (a.is_object()) {
    if (a.size() != b.size()) return false;
    for (const auto& [k, v] : a.as_object()) {
      if (!b.has(k) || !identical(v, b.get(k))) return false;
    }
    return true;
  }
  return a == b;
}

class JsonRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(JsonRoundTrip, DumpParseIsIdentity) {
  util::Rng rng(GetParam() * 7919 + 17);
  for (int doc = 0; doc < 50; ++doc) {
    util::Json original = random_json(rng, 0);
    auto reparsed = util::Json::parse(original.dump());
    ASSERT_TRUE(reparsed.ok()) << original.dump();
    EXPECT_EQ(original, reparsed.value()) << original.dump();
    // pretty() parses back to the same document too.
    auto repretty = util::Json::parse(original.pretty());
    ASSERT_TRUE(repretty.ok());
    EXPECT_EQ(original, repretty.value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTrip, ::testing::Range(1, 9));

// The message path (net::Network) charges dump_size() and hands receivers
// the canonicalized value instead of dumping and parsing: both must agree
// with the text exactly.
class JsonWireWalk : public ::testing::TestWithParam<int> {};

TEST_P(JsonWireWalk, SizeAndCanonicalFormMatchTheText) {
  util::Rng rng(GetParam() * 104729 + 3);
  for (int doc = 0; doc < 50; ++doc) {
    const util::Json original = random_json(rng, 0, /*awkward=*/true);
    const std::string text = original.dump();
    EXPECT_EQ(original.dump_size(), text.size()) << text;
    auto reparsed = util::Json::parse(text);
    ASSERT_TRUE(reparsed.ok()) << text;
    util::Json delivered = original;
    EXPECT_EQ(delivered.canonicalize(), text.size()) << text;
    EXPECT_TRUE(identical(delivered, reparsed.value())) << text;
    EXPECT_EQ(delivered.dump(), text);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonWireWalk, ::testing::Range(1, 9));

TEST(JsonWireWalk, NestingBeyondTheParserCapArrivesAsNull) {
  constexpr int kCap = util::Json::kMaxDepth;
  int rejected = 0;
  for (int n = kCap - 1; n <= kCap + 2; ++n) {
    // A scalar, and an empty array, nested inside n arrays.
    for (util::Json v : {util::Json(1), util::Json::array()}) {
      for (int i = 0; i < n; ++i) v = util::Json(util::JsonArray{v});
      const std::string text = v.dump();
      auto parsed = util::Json::parse(text);
      EXPECT_EQ(v.canonicalize(), text.size());
      if (parsed.ok()) {
        EXPECT_TRUE(identical(v, parsed.value())) << "n=" << n;
      } else {
        ++rejected;
        EXPECT_TRUE(v.is_null()) << "n=" << n;
      }
    }
  }
  EXPECT_EQ(rejected, 4);  // both shapes at n = kCap + 1 and kCap + 2
}

// dump() formats numbers into a stack buffer instead of util::format(); the
// text must stay byte-identical to the printf formats it replaced.
std::string printf_number(double d) {
  if (!std::isfinite(d)) return "null";
  if (std::nearbyint(d) == d && std::fabs(d) < 9.007199254740992e15) {
    return util::format("%lld", static_cast<long long>(d));
  }
  return util::format("%.17g", d);
}

TEST(JsonNumberText, MatchesPrintfOnRandomDoubles) {
  util::Rng rng(20131);
  for (int i = 0; i < 30000; ++i) {
    double d = 0;
    switch (i % 4) {
      case 0: d = std::bit_cast<double>(rng.next_u64()); break;
      case 1:
        d = static_cast<double>(rng.uniform_int(-(1LL << 61), 1LL << 61));
        break;
      case 2:
        d = static_cast<double>(rng.uniform_int(-(1LL << 53), 1LL << 53));
        break;
      default: d = rng.uniform(-1e6, 1e6); break;
    }
    const std::string want = printf_number(d);
    ASSERT_EQ(util::Json(d).dump(), want);
    ASSERT_EQ(util::Json(d).dump_size(), want.size());
  }
}

// ---------------------------------------------------------------------------
// Fabric conservation: bytes carried per link sum to flow bytes x hops.

TEST(FabricConservation, BytesCarriedEqualFlowBytesTimesHops) {
  sim::Simulation sim(5);
  net::Fabric fabric(sim);
  net::Topology topo =
      net::build_multi_root_tree(fabric, net::MultiRootTreeConfig{});
  util::Rng rng(7);
  double expected = 0;
  int completed = 0;
  for (int i = 0; i < 40; ++i) {
    auto src = static_cast<size_t>(rng.uniform_int(0, 55));
    auto dst = static_cast<size_t>(rng.uniform_int(0, 55));
    if (src == dst) continue;
    double bytes = rng.uniform(1e4, 5e6);
    net::FlowSpec spec;
    spec.src = topo.hosts[src];
    spec.dst = topo.hosts[dst];
    spec.bytes = bytes;
    spec.on_complete = [&completed](net::FlowId, bool ok) {
      if (ok) ++completed;
    };
    net::FlowId id = fabric.start_flow(std::move(spec));
    expected += bytes * static_cast<double>(fabric.flow_path(id).size());
  }
  sim.run();
  EXPECT_GT(completed, 30);
  EXPECT_NEAR(fabric.total_bytes_carried(), expected, expected * 1e-6);
}

// ---------------------------------------------------------------------------
// DHCP uniqueness under churn: repeated crash/restart cycles never hand the
// same live address to two nodes.

TEST(DhcpChurn, AddressesStayUniqueAcrossRestarts) {
  sim::Simulation sim(77);
  cloud::PiCloudConfig config;
  config.racks = 2;
  config.hosts_per_rack = 4;
  cloud::PiCloud cloud(sim, config);
  cloud.power_on();
  ASSERT_TRUE(cloud.await_ready());
  util::Rng rng(3);
  for (int round = 0; round < 6; ++round) {
    // Crash a random pair and bring them back.
    size_t a = static_cast<size_t>(rng.uniform_int(0, 7));
    size_t b = static_cast<size_t>(rng.uniform_int(0, 7));
    cloud.daemon(a).crash();
    if (b != a) cloud.daemon(b).crash();
    cloud.run_for(sim::Duration::seconds(5));
    cloud.daemon(a).start();
    if (b != a) cloud.daemon(b).start();
    cloud.run_for(sim::Duration::seconds(10));

    std::set<std::uint32_t> live_ips;
    for (size_t i = 0; i < cloud.node_count(); ++i) {
      if (!cloud.node(i).running()) continue;
      net::Ipv4Addr ip = cloud.daemon(i).ip();
      if (ip.is_any()) continue;
      EXPECT_TRUE(live_ips.insert(ip.value()).second)
          << "duplicate live address " << ip.to_string();
    }
  }
}

}  // namespace
}  // namespace picloud
