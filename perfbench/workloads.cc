#include "workloads.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "apps/httpd.h"
#include "apps/lb.h"
#include "apps/loadgen.h"
#include "cloud/cloud.h"
#include "layers.h"
#include "teardown_hooks.h"
#include "testing/runner.h"
#include "testing/scenario.h"
#include "tests/golden_digests.h"

namespace perfbench {

using namespace picloud;

namespace {

// --- Workload parameters ------------------------------------------------------
// fleet_k8: a k=8 fat-tree (128 Pis) with idle web servers; the timed phase
// is the management plane in steady state. 60 s is a whole number of
// heartbeat (2 s) and reconciler (15 s) periods, so every seed's window
// holds the same number of beats and sweeps.
constexpr int kFleetK = 8;
constexpr int kFleetApps = 20;
constexpr double kFleetSliceS = 10;
constexpr int kFleetSlices = 6;

// flash_crowd: DESIGN.md §11's overload tier, lengthened to kFlashCycles
// 50-second cycles, each with a 20-second 10x crowd from its 10th second.
constexpr double kFlashRps = 40;
constexpr double kFlashCycleS = 50;
constexpr double kFlashCrowdAtS = 10;
constexpr double kFlashCrowdS = 20;
constexpr double kFlashSliceS = 5;
constexpr int kFlashCycles = 15;

// fuzz_sweep: the stock tier-1 sweep, ScenarioGenerator seeds 1..25, whose
// digests tests/golden_digests.h pins for the default seed 1. Any other
// --seed n keeps the 25 generated experiments (cluster shapes, workloads,
// chaos schedules) and re-derives each one's simulation seed from n, so the
// sweep's composition, and with it its cost, does not depend on n. (Across
// blocks of 25 generated seeds, run_s spread by ~17% of its median.)
constexpr std::uint64_t kFuzzScenarios = 25;
constexpr std::uint64_t kFuzzDefaultSeed = 1;

// End-state digests of the default seed (1), captured with this benchmark
// at its introduction. Only a documented semantic change of the simulator
// may move them.
constexpr std::uint64_t kFleetK8Golden = 0xd078b16d4ece11d6ULL;
constexpr std::uint64_t kFlashCrowdGolden = 0xb1b896fc1505308dULL;

double seconds_since(std::int64_t t0) {
  return static_cast<double>(cpu_ns() - t0) * 1e-9;
}

class Ops {
 public:
  explicit Ops(RepResult& r) : r_(r) {}
  void check(bool ok, const std::string& what) {
    ++r_.attempted;
    if (!ok) {
      ++r_.failed;
      r_.errors.push_back(what);
    }
  }

 private:
  RepResult& r_;
};

double get(const Counts& c, const std::string& name) {
  auto it = c.find(name);
  return it == c.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double span_seconds(const Tracer& tr, const std::string& name) {
  double s = 0;
  for (const Span& span : tr.spans()) {
    if (span.run == tr.run() && span.name == name) {
      s += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    }
  }
  return s;
}

struct LayerInputs {
  Counts work;     // layer counters over the timed phase
  Counts end;      // end-state values (series, high-water, spawns)
  Counts loadgen;  // load generator outcomes, summed
  ProbeTimes probes;
  double telemetry_ns = 0;  // heartbeats in the timed phase x per-beat cost
  double sim_p50_ms = 0;
  double sim_p99_ms = 0;
  double latency_samples = 0;
  double invariant_sweeps = 0;
  double scenarios_failed = 0;
  double scenario_s = 0;
};

void fill_layer_metrics(RepResult& r, const LayerInputs& in,
                        const Tracer& tr) {
  auto& m = r.layer;
  const Counts& w = in.work;
  m["util.metrics.series"] = get(in.end, "util.metrics.series");
  m["util.metrics.scope_snapshot_ns"] = in.probes.scope_snapshot_ns;
  m["util.json.dump_ns"] = in.probes.json_dump_ns;
  m["util.json.parse_ns"] = in.probes.json_parse_ns;
  m["util.telemetry_est_share"] = ratio(in.telemetry_ns * 1e-9, r.run_s);

  m["proto.http.heartbeat_roundtrip_ns"] = in.probes.heartbeat_roundtrip_ns;
  m["proto.http.app_roundtrip_ns"] = in.probes.app_roundtrip_ns;
  m["proto.rest.calls"] = get(w, "proto.rest.calls");
  m["proto.rest.server.requests"] = get(w, "proto.rest.server.requests");
  m["proto.rest.timeouts"] = get(w, "proto.rest.timeouts");
  m["proto.rest.retry_ratio"] =
      ratio(get(w, "proto.rest.attempts"), get(w, "proto.rest.calls"));

  m["net.messages_sent"] = get(w, "net.messages_sent");
  m["net.messages_dropped"] = get(w, "net.messages_dropped");
  m["net.fabric.flows_started"] = get(w, "net.fabric.flows_started");
  m["net.fabric.solver_steps"] = get(w, "net.fabric.solver_steps");
  m["net.fabric.steps_per_flow"] = ratio(get(w, "net.fabric.solver_steps"),
                                         get(w, "net.fabric.flows_started"));
  m["net.sdn.table_hit_ratio"] =
      ratio(get(w, "net.sdn.table_hits"),
            get(w, "net.sdn.table_hits") + get(w, "net.sdn.packet_ins"));

  m["os.sched.reallocations"] = get(w, "os.sched.reallocations");
  m["os.sched.tasks_started"] = get(w, "os.sched.tasks_started");
  m["os.sched.reallocations_per_task"] = ratio(
      get(w, "os.sched.reallocations"), get(w, "os.sched.tasks_started"));

  m["cloud.heartbeats"] = get(w, "cloud.heartbeats");
  m["cloud.monitor.samples_ingested"] = get(w, "cloud.monitor.samples_ingested");
  m["cloud.reconciler.node_queries"] = get(w, "cloud.reconciler.node_queries");
  m["cloud.master.spawns_ok"] = get(in.end, "cloud.master.spawns_ok");
  m["cloud.master.spawns_failed"] = get(in.end, "cloud.master.spawns_failed");
  m["cloud.boot_s"] = span_seconds(tr, "setup.boot");
  m["cloud.spawn_s"] = span_seconds(tr, "setup.spawn");

  for (const char* name :
       {"apps.loadgen.arrivals", "apps.loadgen.completed",
        "apps.loadgen.timed_out", "apps.loadgen.failed",
        "apps.loadgen.retries", "apps.loadgen.breaker_rejected"}) {
    m[name] = get(in.loadgen, name);
  }
  m["apps.loadgen.sim_goodput_frac"] =
      ratio(get(in.loadgen, "apps.loadgen.completed"),
            get(in.loadgen, "apps.loadgen.arrivals"));
  m["apps.loadgen.sim_p50_ms"] = in.sim_p50_ms;
  m["apps.loadgen.sim_p99_ms"] = in.sim_p99_ms;
  m["apps.loadgen.latency_samples"] = in.latency_samples;
  m["apps.httpd.shed_admission"] = get(w, "apps.httpd.shed_admission");
  m["apps.httpd.served_brownout"] = get(w, "apps.httpd.served_brownout");

  m["testing.scenario_s"] = in.scenario_s;
  m["testing.invariant_sweeps"] = in.invariant_sweeps;
  m["testing.scenarios_failed"] = in.scenarios_failed;

  m["sim.events"] = get(w, "sim.events");
  m["sim.host_ns_per_event"] = ratio(r.run_s * 1e9, get(w, "sim.events"));
  m["sim.queue_live_highwater"] = get(in.end, "sim.queue_live_highwater");
}

// Runs `n` slices of `slice` simulated time, one span (with the layer
// counter deltas) per slice when traced, or one run_for() when unsliced.
void run_slices(cloud::PiCloud& cloud, Tracer& tr, double slice_s, int n,
                bool sliced) {
  if (!sliced) {
    cloud.run_for(sim::Duration::seconds(slice_s * n));
    return;
  }
  Counts prev = tr.enabled() ? cloud_counts(cloud) : Counts{};
  for (int i = 0; i < n; ++i) {
    const int id = tr.begin("slice");
    cloud.run_for(sim::Duration::seconds(slice_s));
    if (tr.enabled()) {
      Counts now = cloud_counts(cloud);
      tr.end(id, delta(prev, now));
      prev = std::move(now);
    }
  }
}

// Spawns `specs` through the control plane, one op per spawn, and returns
// the records of the spawns that succeeded.
std::vector<cloud::InstanceRecord> spawn_all(
    cloud::PiCloud& cloud, Tracer& tr, Ops& ops,
    std::vector<cloud::PiMaster::SpawnSpec> specs) {
  std::vector<cloud::InstanceRecord> out;
  ScopedSpan span(tr, "setup.spawn");
  for (cloud::PiMaster::SpawnSpec& spec : specs) {
    ScopedSpan one(tr, "spawn");
    const std::string name = spec.name;
    auto record = cloud.spawn_and_wait(std::move(spec));
    ops.check(record.ok(), "spawn " + name + " failed");
    if (record.ok()) out.push_back(record.value());
  }
  return out;
}

// Untimed end-state work shared by the two single-cloud workloads: counts,
// message-path probes and the invariant catalogue.
void check_cloud(cloud::PiCloud& cloud, Tracer& tr, Ops& ops,
                 LayerInputs& in, const apps::HttpLoadGen* gen) {
  ScopedSpan span(tr, "check");
  if (tr.enabled()) {
    {
      ScopedSpan counts(tr, "probe.counters");
      in.end = cloud_counts(cloud);
    }
    in.probes = probe_message_paths(cloud, tr);
    in.telemetry_ns =
        get(in.work, "cloud.heartbeats") * in.probes.per_beat_ns();
    if (gen != nullptr) {
      in.loadgen = loadgen_counts(*gen);
      in.sim_p50_ms = gen->latencies().median();
      in.sim_p99_ms = gen->latencies().p99();
      in.latency_samples = static_cast<double>(gen->latencies().count());
    }
  }
  ScopedSpan probe(tr, "probe.testing");
  std::vector<std::string> violations = check_invariants(cloud);
  ops.check(violations.empty(),
            "invariant violated: " +
                (violations.empty() ? std::string() : violations.front()));
  in.invariant_sweeps = 1;
  if (gen != nullptr) {
    const std::string why = loadgen_conservation(*gen);
    ops.check(why.empty(), "loadgen conservation: " + why);
  }
}

RepResult run_fleet_k8(const RepOptions& o, Tracer& tr) {
  RepResult r;
  Ops ops(r);
  ScopedSpan root(tr, "workload");
  const std::int64_t t0 = cpu_ns();
  const int setup = tr.begin("setup");
  int phase = tr.begin("setup.build");
  sim::Simulation sim(o.seed);
  cloud::PiCloudConfig config;
  config.topology = cloud::PiCloudConfig::Topo::kFatTree;
  config.fat_tree_k = kFleetK;
  cloud::PiCloud cloud(sim, config);
  tr.end(phase);
  phase = tr.begin("setup.boot");
  cloud.power_on();
  ops.check(cloud.await_ready(), "fleet did not register");
  tr.end(phase);
  std::vector<cloud::PiMaster::SpawnSpec> specs;
  for (int i = 0; i < kFleetApps; ++i) {
    specs.push_back({.name = "web-" + std::to_string(i), .app_kind = "httpd"});
  }
  spawn_all(cloud, tr, ops, std::move(specs));
  tr.end(setup);
  r.setup_s = seconds_since(t0);

  LayerInputs in;
  const Counts before = tr.enabled() ? cloud_counts(cloud) : Counts{};
  const sim::SimTime sim0 = sim.now();
  const int run = tr.begin("run");
  const std::int64_t t1 = cpu_ns();
  run_slices(cloud, tr, kFleetSliceS, kFleetSlices, o.sliced);
  r.run_s = seconds_since(t1);
  if (tr.enabled()) in.work = delta(before, cloud_counts(cloud));
  tr.end(run, in.work);
  r.sim_s = (sim.now() - sim0).to_seconds();
  r.digest = end_state_digest(cloud, nullptr);

  check_cloud(cloud, tr, ops, in, nullptr);
  if (tr.enabled()) fill_layer_metrics(r, in, tr);
  return r;
}

apps::LbApp* find_lb(cloud::PiCloud& cloud, const cloud::InstanceRecord& lb) {
  cloud::NodeDaemon* daemon = cloud.daemon_by_hostname(lb.hostname);
  if (daemon == nullptr) return nullptr;
  os::Container* c = daemon->node().find_container(lb.name);
  return c == nullptr ? nullptr : dynamic_cast<apps::LbApp*>(c->app());
}

RepResult run_flash_crowd(const RepOptions& o, Tracer& tr) {
  RepResult r;
  Ops ops(r);
  ScopedSpan root(tr, "workload");
  const std::int64_t t0 = cpu_ns();
  const int setup = tr.begin("setup");
  int phase = tr.begin("setup.build");
  sim::Simulation sim(o.seed);
  cloud::PiCloudConfig config;
  config.racks = 1;
  config.hosts_per_rack = 5;
  config.placement_policy = "round-robin";
  cloud::PiCloud cloud(sim, config);
  tr.end(phase);
  phase = tr.begin("setup.boot");
  cloud.power_on();
  ops.check(cloud.await_ready(), "fleet did not register");
  cloud.run_for(sim::Duration::seconds(5));
  tr.end(phase);

  // ~29 ms of a 700 MHz Pi per request: three replicas saturate near
  // 100 req/s, so the 400 req/s crowd is ~4x capacity.
  apps::HttpdParams backend;
  backend.cycles_per_request = 2e7;
  std::vector<cloud::PiMaster::SpawnSpec> specs;
  for (int i = 0; i < 3; ++i) {
    specs.push_back({.name = "web-" + std::to_string(i),
                     .app_kind = "httpd",
                     .app_params = backend.to_json()});
  }
  specs.push_back({.name = "lb", .app_kind = "lb"});
  const std::vector<cloud::InstanceRecord> spawned =
      spawn_all(cloud, tr, ops, std::move(specs));
  apps::LbApp* lb =
      spawned.size() == 4 ? find_lb(cloud, spawned.back()) : nullptr;
  if (lb == nullptr) {
    tr.end(setup);
    ops.check(false, "load balancer not running");
    return r;
  }
  lb->set_backends({spawned[0].ip, spawned[1].ip, spawned[2].ip});

  apps::HttpLoadGen::Params load;
  load.requests_per_sec = kFlashRps;
  load.request_timeout = sim::Duration::seconds(1);
  load.shape.kind = apps::TrafficShape::Kind::kFlashCrowd;
  load.shape.duration = sim::Duration::seconds(kFlashCrowdS);
  load.shape.multiplier = 10.0;
  apps::HttpLoadGen clients(cloud.network(), cloud.admin_ip(),
                            {spawned.back().ip}, load, util::Rng(o.seed));
  tr.end(setup);
  r.setup_s = seconds_since(t0);

  LayerInputs in;
  const Counts before = tr.enabled() ? cloud_counts(cloud) : Counts{};
  const sim::SimTime sim0 = sim.now();
  const int run = tr.begin("run");
  const std::int64_t t1 = cpu_ns();
  clients.start();
  const int slices_per_cycle = static_cast<int>(kFlashCycleS / kFlashSliceS);
  for (int c = 0; c < kFlashCycles; ++c) {
    apps::TrafficShape shape = load.shape;
    shape.at = sim::Duration::seconds(c * kFlashCycleS + kFlashCrowdAtS);
    clients.set_shape(shape);
    run_slices(cloud, tr, kFlashSliceS, slices_per_cycle, o.sliced);
  }
  clients.stop();
  run_slices(cloud, tr, kFlashSliceS, 1, o.sliced);  // drain
  r.run_s = seconds_since(t1);
  if (tr.enabled()) in.work = delta(before, cloud_counts(cloud));
  tr.end(run, in.work);
  r.sim_s = (sim.now() - sim0).to_seconds();
  r.digest = end_state_digest(cloud, &clients);

  check_cloud(cloud, tr, ops, in, &clients);
  if (tr.enabled()) fill_layer_metrics(r, in, tr);
  return r;
}

RepResult run_fuzz_sweep(const RepOptions& o, Tracer& tr) {
  RepResult r;
  Ops ops(r);
  ScopedSpan root(tr, "workload");
  const std::int64_t t0 = cpu_ns();
  std::vector<testing::Scenario> scenarios;
  {
    ScopedSpan setup(tr, "setup");
    ScopedSpan build(tr, "setup.build");
    const testing::ScenarioGenerator generator;
    for (std::uint64_t k = 1; k <= kFuzzScenarios; ++k) {
      scenarios.push_back(generator.generate(k));
      if (o.seed != kFuzzDefaultSeed) scenarios.back().seed = (o.seed << 32) | k;
    }
  }
  r.setup_s = seconds_since(t0);

  // Each scenario's cloud and load generators are observed as they are torn
  // down inside run_scenario(): simulated time always, and when traced the
  // layer counts and message-path probes of that scenario's end state.
  LayerInputs in;
  std::vector<ProbeTimes> probes;
  std::vector<double> scenario_s;
  Counts scenario_counts;
  double probe_s = 0;
  std::vector<std::string> conservation;
  int observed = 0;  // clouds seen at teardown, one per scenario
  TeardownObservers observers(
      [&](cloud::PiCloud& cloud) {
        ++observed;
        r.sim_s += cloud.simulation().now().to_seconds();
        if (!tr.enabled()) return;
        const std::int64_t p0 = cpu_ns();
        {
          ScopedSpan counts(tr, "probe.counters");
          scenario_counts = cloud_counts(cloud);
        }
        for (const auto& [name, value] : scenario_counts) {
          if (name == "util.metrics.series" ||
              name == "sim.queue_live_highwater") {
            in.end[name] = std::max(in.end[name], value);
          } else {
            in.work[name] += value;
          }
        }
        probes.push_back(probe_message_paths(cloud, tr));
        in.telemetry_ns += get(scenario_counts, "cloud.heartbeats") *
                           probes.back().per_beat_ns();
        probe_s += seconds_since(p0);
      },
      [&](const apps::HttpLoadGen& gen) {
        conservation.push_back(loadgen_conservation(gen));
        if (!tr.enabled()) return;
        for (const auto& [name, value] : loadgen_counts(gen)) {
          in.loadgen[name] += value;
        }
      });

  std::vector<testing::RunReport> reports;
  const int run = tr.begin("run");
  const std::int64_t t1 = cpu_ns();
  for (const testing::Scenario& scenario : scenarios) {
    const int span = tr.begin("scenario");
    const std::int64_t s0 = cpu_ns();
    probe_s = 0;
    scenario_counts.clear();
    reports.push_back(testing::run_scenario(scenario));
    scenario_s.push_back(seconds_since(s0) - probe_s);
    tr.end(span, scenario_counts);
  }
  r.run_s = seconds_since(t1);
  tr.end(run, in.work);

  ScopedSpan check(tr, "check");
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  for (size_t i = 0; i < reports.size(); ++i) {
    const testing::RunReport& report = reports[i];
    ops.check(!report.failed(), "scenario seed " +
                                    std::to_string(report.seed) + " failed: " +
                                    report.signature());
    if (o.seed == kFuzzDefaultSeed) {
      ops.check(report.digest == testing_support::kFuzzSweepGoldens[i],
                "scenario seed " + std::to_string(report.seed) +
                    " digest differs from kFuzzSweepGoldens");
    }
    digest = (digest ^ report.digest) * 0x100000001B3ULL;
    in.invariant_sweeps += static_cast<double>(report.sweeps);
    in.scenarios_failed += report.failed() ? 1 : 0;
  }
  ops.check(observed == static_cast<int>(scenarios.size()),
            "teardown hook saw " + std::to_string(observed) + " of " +
                std::to_string(scenarios.size()) + " scenario clouds");
  for (const std::string& why : conservation) {
    ops.check(why.empty(), "loadgen conservation: " + why);
  }
  r.digest = digest;
  if (tr.enabled()) {
    auto field_median = [&](double ProbeTimes::*field) {
      std::vector<double> v;
      for (const ProbeTimes& p : probes) v.push_back(p.*field);
      return median(std::move(v));
    };
    in.probes.scope_snapshot_ns = field_median(&ProbeTimes::scope_snapshot_ns);
    in.probes.json_dump_ns = field_median(&ProbeTimes::json_dump_ns);
    in.probes.json_parse_ns = field_median(&ProbeTimes::json_parse_ns);
    in.probes.heartbeat_roundtrip_ns =
        field_median(&ProbeTimes::heartbeat_roundtrip_ns);
    in.probes.app_roundtrip_ns = field_median(&ProbeTimes::app_roundtrip_ns);
    in.end["cloud.master.spawns_ok"] = get(in.work, "cloud.master.spawns_ok");
    in.end["cloud.master.spawns_failed"] =
        get(in.work, "cloud.master.spawns_failed");
    in.scenario_s = median(scenario_s);
    fill_layer_metrics(r, in, tr);
  }
  return r;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"fleet_k8", 1, kFleetK8Golden, &run_fleet_k8},
      {"flash_crowd", 1, kFlashCrowdGolden, &run_flash_crowd},
      {"fuzz_sweep", kFuzzDefaultSeed, 0, &run_fuzz_sweep},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

bool is_deterministic_metric(const std::string& name) {
  auto ends = [&](const std::string& suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
               0;
  };
  return !(ends("_ns") || ends("_s") || name.rfind("self_s.", 0) == 0 ||
           name == "util.telemetry_est_share" ||
           name == "sim.host_ns_per_event");
}

}  // namespace perfbench
