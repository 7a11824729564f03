// Overload & graceful degradation acceptance tests (DESIGN.md §11): a 10×
// open-loop flash crowd against a 3-replica httpd fleet behind the L7 load
// balancer. Admission control + brownout must keep goodput during the
// crowd ≥ 5× the no-shedding baseline, with every request accounted for
// exactly once and retry amplification inside the token-bucket budget.
#include <gtest/gtest.h>

#include "apps/httpd.h"
#include "apps/kvstore.h"
#include "apps/lb.h"
#include "apps/loadgen.h"
#include "hw/device.h"
#include "net/topology.h"
#include "os/node_os.h"
#include "sim/simulation.h"

namespace picloud::apps {
namespace {

struct FlashWorld {
  sim::Simulation sim;
  net::Fabric fabric{sim};
  net::Network network{sim, fabric};
  net::Topology topo;
  std::vector<std::unique_ptr<hw::Device>> devices;
  std::vector<std::unique_ptr<os::NodeOs>> nodes;
  net::Ipv4Addr client_ip{10, 0, 0, 200};

  explicit FlashWorld(int host_count = 4) {
    topo = net::build_single_rack(fabric, host_count);
    for (int i = 0; i < host_count; ++i) {
      devices.push_back(std::make_unique<hw::Device>(
          i, "pi-r0-" + std::to_string(i), hw::pi_model_b()));
      nodes.push_back(std::make_unique<os::NodeOs>(
          sim, *devices.back(), network, topo.hosts[i]));
      nodes.back()->boot();
      nodes.back()->set_host_ip(net::Ipv4Addr(10, 0, 0, 1 + i));
    }
    network.bind_ip(client_ip, topo.internet);
  }

  net::Ipv4Addr launch(int n, const std::string& name,
                       std::unique_ptr<os::ContainerApp> app) {
    auto created = nodes[n]->create_container({.name = name});
    EXPECT_TRUE(created.ok());
    created.value()->set_app(std::move(app));
    net::Ipv4Addr ip(10, 0, 1,
                     static_cast<std::uint8_t>(10 * (n + 1) +
                                               nodes[n]->container_count()));
    EXPECT_TRUE(created.value()->start(ip).ok());
    return ip;
  }
};

struct FlashResult {
  std::uint64_t goodput_in_window = 0;  // completions during the crowd
  std::uint64_t completed = 0;
  std::uint64_t completed_brownout = 0;
  std::uint64_t shed = 0;  // admission + deadline sheds across the fleet
  bool conserved = true;
  bool budget_ok = true;
  bool brownout_cleared = true;
};

// The acceptance scenario: 3 httpd replicas behind one LB, open-loop base
// rate stepped 10× for 20 s. `admission` off reproduces the pre-overload
// tier (every request straight to run_cpu) as the baseline.
FlashResult run_flash_crowd(bool admission) {
  FlashWorld w;
  HttpdParams hp;
  hp.admission_control = admission;
  hp.cycles_per_request = 2e7;  // ~29 ms alone: the crowd is 3.8× capacity
  std::vector<net::Ipv4Addr> backends;
  std::vector<HttpdApp*> apps;
  for (int i = 0; i < 3; ++i) {
    std::string name = "web" + std::to_string(i);
    backends.push_back(w.launch(i, name, std::make_unique<HttpdApp>(hp)));
    apps.push_back(
        dynamic_cast<HttpdApp*>(w.nodes[i]->find_container(name)->app()));
  }
  auto lb_ip = w.launch(3, "lb", std::make_unique<LbApp>());
  auto* lb = dynamic_cast<LbApp*>(w.nodes[3]->find_container("lb")->app());
  lb->set_backends(backends);

  HttpLoadGen::Params params;
  params.requests_per_sec = 40;
  params.request_timeout = sim::Duration::seconds(1);
  params.shape.kind = TrafficShape::Kind::kFlashCrowd;
  params.shape.at = sim::Duration::seconds(10);
  params.shape.duration = sim::Duration::seconds(20);
  params.shape.multiplier = 10.0;
  HttpLoadGen gen(w.network, w.client_ip, {lb_ip}, params, util::Rng(29));
  gen.start();

  FlashResult r;
  std::uint64_t completed_at_window_start = 0;
  w.sim.after(sim::Duration::seconds(10),
              [&]() { completed_at_window_start = gen.completed(); });
  w.sim.after(sim::Duration::seconds(30), [&]() {
    r.goodput_in_window = gen.completed() - completed_at_window_start;
  });
  w.sim.run_until(w.sim.now() + sim::Duration::seconds(45));
  gen.stop();
  w.sim.run_until(w.sim.now() + sim::Duration::seconds(5));

  r.completed = gen.completed();
  r.completed_brownout = gen.completed_brownout();
  for (HttpdApp* app : apps) {
    r.shed += app->shed_admission() + app->shed_deadline();
    if (app->requests_received() !=
        app->served_ok() + app->served_brownout() + app->shed_admission() +
            app->shed_deadline() + app->refused_at_start() +
            app->queue_depth() + static_cast<std::uint64_t>(app->in_service())) {
      r.conserved = false;
    }
    if (app->brownout_active()) r.brownout_cleared = false;
  }
  if (gen.arrivals() != gen.completed() + gen.failed() + gen.timed_out() +
                            gen.breaker_rejected() + gen.in_flight()) {
    r.conserved = false;
  }
  if (lb->requests_received() != lb->responses_ok() + lb->responses_error() +
                                     lb->dropped_in_flight() +
                                     lb->in_flight()) {
    r.conserved = false;
  }
  const double lb_budget = lb->params().retry_budget_ratio *
                               static_cast<double>(lb->requests_forwarded()) +
                           lb->params().retry_budget_burst;
  if (static_cast<double>(lb->attempts_forwarded() -
                          lb->requests_forwarded()) > lb_budget + 1e-6) {
    r.budget_ok = false;
  }
  const double gen_budget =
      gen.params().retry_budget_ratio * static_cast<double>(gen.sent()) +
      gen.params().retry_budget_burst;
  if (static_cast<double>(gen.attempts_sent() - gen.sent()) >
      gen_budget + 1e-6) {
    r.budget_ok = false;
  }
  return r;
}

TEST(FlashCrowd, AdmissionControlKeepsGoodputUnderOverload) {
  FlashResult with_shedding = run_flash_crowd(/*admission=*/true);
  FlashResult baseline = run_flash_crowd(/*admission=*/false);

  // Zero unaccounted requests, both modes.
  EXPECT_TRUE(with_shedding.conserved);
  EXPECT_TRUE(baseline.conserved);
  // Retry amplification stays inside the budget, both modes.
  EXPECT_TRUE(with_shedding.budget_ok);
  EXPECT_TRUE(baseline.budget_ok);

  // The tentpole number: goodput during the crowd with admission control is
  // at least 5× the collapse baseline.
  EXPECT_GE(with_shedding.goodput_in_window,
            5 * std::max<std::uint64_t>(baseline.goodput_in_window, 1));
  EXPECT_GT(with_shedding.goodput_in_window, 2000u);

  // Degradation was graceful and temporary: brownout responses were served
  // during the crowd and the fleet left brownout once it passed.
  EXPECT_GT(with_shedding.completed_brownout, 0u);
  EXPECT_TRUE(with_shedding.brownout_cleared);
}

TEST(FlashCrowd, DiurnalShapeModulatesOfferedLoad) {
  // factor() is a pure function of time-since-start: the sinusoid peaks at
  // t = period/4 and troughs at 3·period/4, and never reaches zero.
  TrafficShape shape;
  shape.kind = TrafficShape::Kind::kDiurnal;
  shape.amplitude = 0.5;
  shape.period = sim::Duration::seconds(100);
  EXPECT_NEAR(shape.factor(sim::Duration::seconds(0)), 1.0, 1e-9);
  EXPECT_NEAR(shape.factor(sim::Duration::seconds(25)), 1.5, 1e-9);
  EXPECT_NEAR(shape.factor(sim::Duration::seconds(75)), 0.5, 1e-9);
  // A full-amplitude trough clamps instead of killing the arrival chain.
  shape.amplitude = 1.0;
  EXPECT_GE(shape.factor(sim::Duration::seconds(75)), 0.05);

  TrafficShape flash;
  flash.kind = TrafficShape::Kind::kFlashCrowd;
  flash.at = sim::Duration::seconds(30);
  flash.duration = sim::Duration::seconds(20);
  flash.multiplier = 10.0;
  EXPECT_NEAR(flash.factor(sim::Duration::seconds(29)), 1.0, 1e-9);
  EXPECT_NEAR(flash.factor(sim::Duration::seconds(30)), 10.0, 1e-9);
  EXPECT_NEAR(flash.factor(sim::Duration::seconds(49)), 10.0, 1e-9);
  EXPECT_NEAR(flash.factor(sim::Duration::seconds(50)), 1.0, 1e-9);

  // Round-trips through JSON (the scenario repro format).
  TrafficShape reloaded = TrafficShape::from_json(flash.to_json());
  EXPECT_EQ(reloaded.kind, TrafficShape::Kind::kFlashCrowd);
  EXPECT_EQ(reloaded.at.ns(), flash.at.ns());
  EXPECT_EQ(reloaded.duration.ns(), flash.duration.ns());
  EXPECT_NEAR(reloaded.multiplier, 10.0, 1e-9);
}

TEST(FlashCrowd, HeavyTailedCostRidesInRequests) {
  // cost_alpha > 1 gives each request a Pareto work multiplier; the server
  // multiplies its per-request cycles by it, so the same offered rate costs
  // visibly more CPU time than constant-cost traffic.
  auto median_latency = [](double alpha) {
    FlashWorld w(2);
    HttpdParams hp;
    hp.cycles_per_request = 4e6;
    auto ip = w.launch(0, "web", std::make_unique<HttpdApp>(hp));
    HttpLoadGen::Params params;
    params.requests_per_sec = 30;
    params.request_timeout = sim::Duration::seconds(2);
    params.shape.cost_alpha = alpha;
    params.shape.cost_mean = 3.0;
    HttpLoadGen gen(w.network, w.client_ip, {ip}, params, util::Rng(31));
    gen.start();
    w.sim.run_until(w.sim.now() + sim::Duration::seconds(20));
    gen.stop();
    EXPECT_GT(gen.completed(), 400u);
    return gen.latencies().median();
  };
  double constant_cost = median_latency(0.0);   // disabled: cost 1
  double heavy_tailed = median_latency(2.0);    // Pareto, mean 3
  EXPECT_GT(heavy_tailed, constant_cost * 1.5);
}

TEST(KvStoreOverload, BoundedQueueShedsInsteadOfCollapsing) {
  FlashWorld w(2);
  KvStoreParams kp;
  kp.queue_capacity = 32;
  kp.service_concurrency = 2;
  auto ip = w.launch(0, "db", std::make_unique<KvStoreApp>(kp));
  auto* app = dynamic_cast<KvStoreApp*>(w.nodes[0]->find_container("db")->app());
  ASSERT_NE(app, nullptr);

  // 300 puts issued back-to-back against a 32-deep queue: the excess sheds
  // with an admission 503 instead of queueing without bound.
  KvClient client(w.network, w.client_ip);
  int ok = 0, shed = 0;
  for (int i = 0; i < 300; ++i) {
    client.put(ip, "k" + std::to_string(i), 1024,
               [&](util::Result<util::Json> r) {
                 if (!r.ok()) return;
                 if (r.value().get_bool("ok")) {
                   ++ok;
                 } else if (r.value().get_string("shed", "") == "admission") {
                   ++shed;
                 }
               });
  }
  w.sim.run();

  EXPECT_GT(ok, 0);
  EXPECT_GT(shed, 0);
  EXPECT_EQ(app->shed_admission(), static_cast<std::uint64_t>(shed));
  // Conservation at quiesce: queue and service slots drained.
  EXPECT_EQ(app->queue_depth(), 0u);
  EXPECT_EQ(app->in_service(), 0);
  EXPECT_EQ(app->ops_received(),
            app->ops_served() + app->ops_rejected() + app->shed_admission() +
                app->shed_deadline() + app->refused_at_start());
}

TEST(KvStoreOverload, BrownoutServesMetadataOnly) {
  FlashWorld w(2);
  KvStoreParams kp;
  kp.queue_capacity = 16;
  kp.service_concurrency = 1;
  kp.cycles_per_op = 5e6;  // slow enough that a burst trips the threshold
  auto ip = w.launch(0, "db", std::make_unique<KvStoreApp>(kp));
  auto* app = dynamic_cast<KvStoreApp*>(w.nodes[0]->find_container("db")->app());
  ASSERT_NE(app, nullptr);

  KvClient client(w.network, w.client_ip);
  bool stored = false;
  client.put(ip, "hot", 1 << 20,
             [&](util::Result<util::Json> r) { stored = r.ok(); });
  w.sim.run();
  ASSERT_TRUE(stored);

  int full_reads = 0, brownout_reads = 0;
  for (int i = 0; i < 40; ++i) {
    client.get(ip, "hot", [&](util::Result<util::Json> r) {
      if (!r.ok() || !r.value().get_bool("ok")) return;
      if (r.value().get_bool("brownout", false)) {
        ++brownout_reads;
      } else {
        ++full_reads;
      }
    });
  }
  w.sim.run();

  // The burst pushed the queue past the brownout threshold: some reads came
  // back metadata-only, and they were cheaper to serve.
  EXPECT_GT(brownout_reads, 0);
  EXPECT_EQ(app->served_brownout(),
            static_cast<std::uint64_t>(brownout_reads));
  // Once the burst drains, brownout exits.
  EXPECT_FALSE(app->brownout_active());
}

// --- Shared admission-queue characterization (httpd and kvstore) ------------
//
// Both servers run the same admission policy (DESIGN.md §11). These tests
// pin what it does, kind by kind: deadline sheds at the queue head, the
// stop()-time drain, the registry aggregates across instances and the
// brownout hysteresis.

struct ServerKnobs {
  int capacity = 64;
  int concurrency = 1;
  sim::Duration deadline = sim::Duration::seconds(10);
  double cycles = 2e7;  // ~29 ms of a 700 MHz Pi per request
};

std::unique_ptr<os::ContainerApp> make_server(const std::string& kind,
                                              const ServerKnobs& k) {
  if (kind == "httpd") {
    HttpdParams p;
    p.queue_capacity = k.capacity;
    p.service_concurrency = k.concurrency;
    p.queue_deadline = k.deadline;
    p.cycles_per_request = k.cycles;
    return std::make_unique<HttpdApp>(p);
  }
  KvStoreParams p;
  p.queue_capacity = k.capacity;
  p.service_concurrency = k.concurrency;
  p.queue_deadline = k.deadline;
  p.cycles_per_op = k.cycles;
  return std::make_unique<KvStoreApp>(p);
}

// One server's accessors, read the same way for both kinds.
struct Tally {
  std::uint64_t received = 0;
  std::uint64_t served = 0;  // every completed request, brownout included
  std::uint64_t served_brownout = 0;
  std::uint64_t shed_admission = 0;
  std::uint64_t shed_deadline = 0;
  std::uint64_t refused_at_start = 0;
  std::uint64_t queue_depth = 0;
  int in_service = 0;
  bool brownout = false;
};

Tally tally(const os::ContainerApp* app) {
  if (const auto* h = dynamic_cast<const HttpdApp*>(app)) {
    return {h->requests_received(), h->requests_served(), h->served_brownout(),
            h->shed_admission(),    h->shed_deadline(),   h->refused_at_start(),
            h->queue_depth(),       h->in_service(),      h->brownout_active()};
  }
  const auto* k = dynamic_cast<const KvStoreApp*>(app);
  return {k->ops_received(),   k->ops_served(),      k->served_brownout(),
          k->shed_admission(), k->shed_deadline(),   k->refused_at_start(),
          k->queue_depth(),    k->in_service(),      k->brownout_active()};
}

// Fires raw request datagrams at a server and keeps every reply.
struct BurstClient {
  net::Network& network;
  net::Ipv4Addr self;
  std::uint16_t port = 41000;
  int next_id = 1;
  std::vector<util::Json> replies;

  BurstClient(net::Network& n, net::Ipv4Addr ip) : network(n), self(ip) {
    network.listen(self, port, [this](const net::Message& m) {
      replies.push_back(m.body);
    });
  }
  ~BurstClient() { network.unlisten(self, port); }
  BurstClient(const BurstClient&) = delete;
  BurstClient& operator=(const BurstClient&) = delete;

  void burst(const std::string& kind, net::Ipv4Addr server, int count) {
    for (int i = 0; i < count; ++i) {
      util::Json body = util::Json::object();
      body.set("id", next_id++);
      net::Message msg;
      msg.src = self;
      msg.src_port = port;
      msg.dst = server;
      if (kind == "httpd") {
        body.set("path", "/");
        msg.dst_port = 80;
      } else {
        body.set("op", "del");
        body.set("key", "k");
        msg.dst_port = 6379;
      }
      msg.body = std::move(body);
      network.send(std::move(msg));
    }
  }

  std::uint64_t shed_replies(const std::string& cause) const {
    std::uint64_t n = 0;
    for (const util::Json& r : replies) n += r.get_string("shed") == cause;
    return n;
  }
};

class ServingQueueTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::string kind() const { return GetParam(); }
  std::string series(const std::string& leaf) const {
    return "apps." + kind() + "." + leaf;
  }
  void run_for(FlashWorld& w, sim::Duration d) {
    w.sim.run_until(w.sim.now() + d);
  }
};

TEST_P(ServingQueueTest, DeadlineShedsAtTheQueueHead) {
  FlashWorld w(2);
  ServerKnobs k;
  k.deadline = sim::Duration::millis(100);  // ~3 services' worth of wait
  auto ip = w.launch(0, "srv", make_server(kind(), k));
  const os::ContainerApp* app = w.nodes[0]->find_container("srv")->app();
  BurstClient client(w.network, w.client_ip);
  client.burst(kind(), ip, 20);
  w.sim.run();

  const Tally t = tally(app);
  EXPECT_GT(t.shed_deadline, 0u);
  EXPECT_GT(t.served, 0u);
  EXPECT_EQ(t.shed_admission, 0u);
  EXPECT_EQ(client.shed_replies("deadline"), t.shed_deadline);
  EXPECT_EQ(client.replies.size(), 20u);
  EXPECT_EQ(t.received, t.served + t.shed_deadline);
}

TEST_P(ServingQueueTest, StopMovesTheBacklogIntoRefusedAtStart) {
  FlashWorld w(2);
  auto ip = w.launch(0, "srv", make_server(kind(), ServerKnobs{}));
  os::Container* c = w.nodes[0]->find_container("srv");
  BurstClient client(w.network, w.client_ip);
  client.burst(kind(), ip, 10);
  run_for(w, sim::Duration::millis(10));  // delivered, first one in service

  const Tally before = tally(c->app());
  ASSERT_EQ(before.received, 10u);
  ASSERT_GT(before.queue_depth, 0u);
  EXPECT_EQ(w.sim.metrics().gauge_value(series("queue_depth")),
            static_cast<double>(before.queue_depth));
  ASSERT_TRUE(c->stop().ok());
  EXPECT_GE(tally(c->app()).refused_at_start, before.queue_depth);
  w.sim.run();

  const Tally after = tally(c->app());
  EXPECT_EQ(after.queue_depth, 0u);
  EXPECT_EQ(after.in_service, 0);
  EXPECT_EQ(after.refused_at_start,
            before.queue_depth + static_cast<std::uint64_t>(before.in_service));
  EXPECT_EQ(after.received, after.served + after.refused_at_start);
  EXPECT_EQ(w.sim.metrics().gauge_value(series("queue_depth")), 0.0);
  EXPECT_EQ(w.sim.metrics().counter_value(series("refused_at_start")),
            after.refused_at_start);
}

TEST_P(ServingQueueTest, RegistrySeriesAggregateAcrossInstances) {
  FlashWorld w(3);
  ServerKnobs k;
  k.capacity = 8;
  k.deadline = sim::Duration::millis(20);  // brownout serves in ~7 ms
  std::vector<net::Ipv4Addr> ips;
  std::vector<os::Container*> servers;
  for (int i = 0; i < 2; ++i) {
    const std::string name = "srv" + std::to_string(i);
    ips.push_back(w.launch(i, name, make_server(kind(), k)));
    servers.push_back(w.nodes[i]->find_container(name));
  }
  BurstClient client(w.network, w.client_ip);
  // Instance 0 sheds at admission and at the deadline; instance 1 is
  // stopped with a backlog.
  client.burst(kind(), ips[0], 20);
  client.burst(kind(), ips[1], 6);
  run_for(w, sim::Duration::millis(10));
  ASSERT_TRUE(servers[1]->stop().ok());
  w.sim.run();

  Tally sum;
  for (const os::Container* c : servers) {
    const Tally t = tally(c->app());
    EXPECT_EQ(t.received, t.served + t.shed_admission + t.shed_deadline +
                              t.refused_at_start);
    sum.received += t.received;
    sum.served += t.served;
    sum.served_brownout += t.served_brownout;
    sum.shed_admission += t.shed_admission;
    sum.shed_deadline += t.shed_deadline;
    sum.refused_at_start += t.refused_at_start;
  }
  EXPECT_GT(sum.shed_admission, 0u);
  EXPECT_GT(sum.shed_deadline, 0u);
  EXPECT_GT(sum.refused_at_start, 0u);
  EXPECT_EQ(client.shed_replies("admission"), sum.shed_admission);
  EXPECT_EQ(client.shed_replies("deadline"), sum.shed_deadline);

  const util::MetricsRegistry& reg = w.sim.metrics();
  const bool httpd = kind() == "httpd";
  EXPECT_EQ(reg.counter_value(series(httpd ? "requests_received"
                                           : "ops_received")),
            sum.received);
  if (httpd) {
    EXPECT_EQ(reg.counter_value(series("served_ok")),
              sum.served - sum.served_brownout);
  } else {
    EXPECT_EQ(reg.counter_value(series("ops_served")), sum.served);
  }
  EXPECT_EQ(reg.counter_value(series("served_brownout")), sum.served_brownout);
  EXPECT_EQ(reg.counter_value(series("shed_admission")), sum.shed_admission);
  EXPECT_EQ(reg.counter_value(series("shed_deadline")), sum.shed_deadline);
  EXPECT_EQ(reg.counter_value(series("refused_at_start")),
            sum.refused_at_start);
  EXPECT_EQ(reg.gauge_value(series("queue_depth")), 0.0);
}

TEST_P(ServingQueueTest, BrownoutEntersAndLeavesWithHysteresis) {
  FlashWorld w(2);
  ServerKnobs k;
  k.capacity = 16;
  k.cycles = 5e6;
  auto ip = w.launch(0, "srv", make_server(kind(), k));
  const os::ContainerApp* app = w.nodes[0]->find_container("srv")->app();
  BurstClient client(w.network, w.client_ip);
  for (int round = 0; round < 2; ++round) {
    client.burst(kind(), ip, 16);  // 15 queued behind one in service: 94 %
    run_for(w, sim::Duration::millis(5));
    EXPECT_TRUE(tally(app).brownout) << "round " << round;
    w.sim.run();
    EXPECT_FALSE(tally(app).brownout) << "round " << round;
  }
  const Tally t = tally(app);
  EXPECT_GT(t.served_brownout, 0u);
  EXPECT_LT(t.served_brownout, t.served);
  EXPECT_EQ(t.received, t.served);

  const util::MetricsRegistry& reg = w.sim.metrics();
  if (kind() == "httpd") {
    EXPECT_EQ(reg.counter_value("apps.httpd.brownout_entered"), 2u);
  } else {
    EXPECT_FALSE(reg.has("apps.kvstore.brownout_entered"));
  }
}

// HttpdParams::to_json() goes on the wire in spawn bodies, so its bytes are
// pinned; both kinds read the same flat admission keys over their own
// defaults.
TEST(ServingQueueParams, FlatKeysAndPerAppDefaults) {
  EXPECT_EQ(HttpdParams().to_json().dump(),
            R"({"admission_control":1,"brownout_bytes_factor":0.125,)"
            R"("brownout_cycles_factor":0.25,"brownout_enter_fill":0.75,)"
            R"("brownout_exit_fill":0.25,"cycles_per_request":2000000,)"
            R"("port":80,"queue_capacity":64,"queue_deadline_ns":750000000,)"
            R"("response_bytes":8192,"service_concurrency":4,)"
            R"("working_set_bytes":10485760})");
  EXPECT_EQ(HttpdParams::from_json(util::Json::object()).queue_capacity, 64);
  const KvStoreParams kv_defaults =
      KvStoreParams::from_json(util::Json::object());
  EXPECT_EQ(kv_defaults.queue_capacity, 128);
  EXPECT_EQ(kv_defaults.service_concurrency, 4);
  EXPECT_EQ(kv_defaults.queue_deadline.ns(), 750'000'000);
  EXPECT_TRUE(kv_defaults.admission_control);

  util::Json keys = util::Json::object();
  keys.set("admission_control", 0);
  keys.set("queue_capacity", 7);
  keys.set("service_concurrency", 2);
  keys.set("queue_deadline_ns", 5e6);
  keys.set("brownout_enter_fill", 0.5);
  keys.set("brownout_exit_fill", 0.125);
  keys.set("brownout_cycles_factor", 0.5);
  const HttpdParams web = HttpdParams::from_json(keys);
  auto expect_keys_read = [](const auto& p) {
    EXPECT_FALSE(p.admission_control);
    EXPECT_EQ(p.queue_capacity, 7);
    EXPECT_EQ(p.service_concurrency, 2);
    EXPECT_EQ(p.queue_deadline.ns(), 5'000'000);
    EXPECT_EQ(p.brownout_enter_fill, 0.5);
    EXPECT_EQ(p.brownout_exit_fill, 0.125);
    EXPECT_EQ(p.brownout_cycles_factor, 0.5);
  };
  expect_keys_read(KvStoreParams::from_json(keys));
  expect_keys_read(web);
  EXPECT_EQ(HttpdParams::from_json(web.to_json()).to_json(), web.to_json());
}

INSTANTIATE_TEST_SUITE_P(BothServers, ServingQueueTest,
                         ::testing::Values("httpd", "kvstore"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace picloud::apps
