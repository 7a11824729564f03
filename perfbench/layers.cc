#include "layers.h"

#include <algorithm>
#include <bit>
#include <sstream>
#include <utility>

#include "net/fabric.h"
#include "net/network.h"
#include "os/node_os.h"
#include "proto/http.h"
#include "testing/invariants.h"
#include "util/json.h"
#include "util/metrics.h"

namespace perfbench {

using namespace picloud;

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Median host ns of `reps` calls of `fn`.
template <typename Fn>
double time_ns(int reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = cpu_ns();
    fn();
    samples.push_back(static_cast<double>(cpu_ns() - t0));
  }
  return median(std::move(samples));
}

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const std::string& s) {
    for (unsigned char c : s) {
      hash_ ^= c;
      hash_ *= 0x100000001B3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Counts cloud_counts(cloud::PiCloud& cloud) {
  Counts c;
  const sim::Simulation& sim = cloud.simulation();
  const util::MetricsRegistry& reg = sim.metrics();
  c["sim.events"] = static_cast<double>(sim.events_executed());
  c["sim.queue_live_highwater"] =
      static_cast<double>(sim.queue_stats().live_highwater);
  c["util.metrics.series"] = static_cast<double>(reg.size());

  c["net.messages_sent"] = static_cast<double>(cloud.network().messages_sent());
  c["net.messages_dropped"] =
      static_cast<double>(cloud.network().messages_dropped());
  c["net.fabric.flows_started"] =
      static_cast<double>(cloud.fabric().flows_started());
  const net::FabricSolverStats& solver = cloud.fabric().solver_stats();
  c["net.fabric.solver_steps"] = static_cast<double>(
      solver.heap_ops + solver.flow_visits + solver.link_scans);
  net::SdnStats sdn;
  if (cloud.sdn() != nullptr) sdn = cloud.sdn()->stats();
  c["net.sdn.table_hits"] = static_cast<double>(sdn.table_hits);
  c["net.sdn.packet_ins"] = static_cast<double>(sdn.packet_ins);

  c["os.sched.reallocations"] =
      static_cast<double>(reg.counter_value("os.sched.reallocations"));
  c["os.sched.tasks_started"] =
      static_cast<double>(reg.counter_value("os.sched.tasks_started"));

  // Every REST client exports <prefix>.rest.{calls,attempts,timeouts}
  // (node.<host>.rest, the master's proxies, ...): sum them all.
  double calls = 0, attempts = 0, timeouts = 0;
  const util::Json snapshot = reg.snapshot();
  for (const auto& [name, value] : snapshot.get("counters").as_object()) {
    if (ends_with(name, "rest.calls")) calls += value.as_number();
    if (ends_with(name, "rest.attempts")) attempts += value.as_number();
    if (ends_with(name, "rest.timeouts")) timeouts += value.as_number();
  }
  c["proto.rest.calls"] = calls;
  c["proto.rest.attempts"] = attempts;
  c["proto.rest.timeouts"] = timeouts;
  c["proto.rest.server.requests"] =
      static_cast<double>(reg.counter_value("proto.rest.server.requests"));

  double heartbeats = 0;
  for (size_t i = 0; i < cloud.node_count(); ++i) {
    heartbeats += static_cast<double>(
        std::as_const(cloud).daemon(i).heartbeats_sent());
  }
  c["cloud.heartbeats"] = heartbeats;
  c["cloud.monitor.samples_ingested"] =
      static_cast<double>(cloud.master().monitor().samples_ingested());
  c["cloud.reconciler.node_queries"] =
      static_cast<double>(cloud.master().reconciler().stats().node_queries);
  c["cloud.master.spawns_ok"] =
      static_cast<double>(cloud.master().spawns_succeeded());
  c["cloud.master.spawns_failed"] =
      static_cast<double>(cloud.master().spawns_failed());

  c["apps.httpd.shed_admission"] =
      static_cast<double>(reg.counter_value("apps.httpd.shed_admission"));
  c["apps.httpd.served_brownout"] =
      static_cast<double>(reg.counter_value("apps.httpd.served_brownout"));
  return c;
}

Counts loadgen_counts(const apps::HttpLoadGen& gen) {
  return {
      {"apps.loadgen.arrivals", static_cast<double>(gen.arrivals())},
      {"apps.loadgen.completed", static_cast<double>(gen.completed())},
      {"apps.loadgen.timed_out", static_cast<double>(gen.timed_out())},
      {"apps.loadgen.failed", static_cast<double>(gen.failed())},
      {"apps.loadgen.retries", static_cast<double>(gen.retries())},
      {"apps.loadgen.breaker_rejected",
       static_cast<double>(gen.breaker_rejected())},
  };
}

std::string loadgen_conservation(const apps::HttpLoadGen& gen) {
  std::ostringstream why;
  if (gen.latencies().count() != gen.completed()) {
    why << "histogram count " << gen.latencies().count() << " != completed "
        << gen.completed() << "; ";
  }
  const std::uint64_t accounted = gen.completed() + gen.failed() +
                                  gen.timed_out() + gen.breaker_rejected() +
                                  gen.in_flight();
  if (gen.arrivals() != accounted) {
    why << "arrivals " << gen.arrivals() << " != accounted " << accounted
        << "; ";
  }
  const double budget =
      gen.params().retry_budget_ratio * static_cast<double>(gen.sent()) +
      gen.params().retry_budget_burst;
  const std::uint64_t extra = gen.attempts_sent() - gen.sent();
  if (static_cast<double>(extra) > budget + 1e-6 || gen.retries() != extra) {
    why << "retries " << extra << " (counter " << gen.retries()
        << ") exceed budget " << budget << "; ";
  }
  return why.str();
}

ProbeTimes probe_message_paths(cloud::PiCloud& cloud, Tracer& tracer) {
  constexpr int kReps = 41;
  ProbeTimes t;
  const util::MetricsRegistry& reg = cloud.simulation().metrics();
  const cloud::NodeDaemon& daemon = std::as_const(cloud).daemon(0);
  util::Json body;
  std::string text;
  {
    ScopedSpan span(tracer, "probe.util");
    t.scope_snapshot_ns = time_ns(kReps, [&]() {
      body = reg.snapshot(daemon.metrics_scope());
    });
    t.json_dump_ns = time_ns(kReps, [&]() { text = body.dump(); });
    t.json_parse_ns = time_ns(kReps, [&]() {
      auto parsed = util::Json::parse(text);
      (void)parsed;
    });
  }
  ScopedSpan span(tracer, "probe.proto");
  auto roundtrip = [](const proto::HttpRequest& req) {
    auto parsed = proto::HttpRequest::parse(req.serialize());
    (void)parsed;
  };
  proto::HttpRequest beat{.method = proto::Method::kPost,
                          .path = "/nodes/" + daemon.hostname() + "/stats",
                          .body = body,
                          .id = 1};
  t.heartbeat_roundtrip_ns = time_ns(kReps, [&]() { roundtrip(beat); });
  util::Json app = util::Json::object();
  app.set("op", "get");
  app.set("path", "/index.html");
  app.set("id", 12345ULL);
  proto::HttpRequest request{.method = proto::Method::kPost,
                             .path = "/",
                             .body = app,
                             .id = 2};
  t.app_roundtrip_ns = time_ns(kReps, [&]() { roundtrip(request); });
  return t;
}

std::vector<std::string> check_invariants(cloud::PiCloud& cloud) {
  testing::InvariantChecker checker(cloud.simulation(), cloud);
  checker.install_builtin_probes();
  checker.sweep();
  checker.run_quiesce();
  std::vector<std::string> out;
  for (const testing::Violation& v : checker.violations()) {
    out.push_back(v.probe + ": " + v.message);
  }
  return out;
}

std::uint64_t end_state_digest(cloud::PiCloud& cloud,
                               const apps::HttpLoadGen* gen) {
  Fnv d;
  const sim::Simulation& sim = cloud.simulation();
  d.add(sim.events_executed());
  d.add(static_cast<std::uint64_t>(sim.now().ns()));
  d.add(cloud.network().messages_sent());
  d.add(cloud.network().messages_delivered());
  d.add(cloud.network().messages_dropped());
  for (const auto& [name, rec] :
       std::as_const(cloud).master().instance_records()) {
    d.add(name);
    d.add(rec.state);
    d.add(rec.hostname);
    d.add(rec.mem_reserved);
    d.add(static_cast<std::uint64_t>(rec.ip.value()));
  }
  for (size_t i = 0; i < cloud.node_count(); ++i) {
    const os::NodeOs& node = std::as_const(cloud).node(i);
    d.add(node.hostname());
    d.add(static_cast<std::uint64_t>(node.running() ? 1 : 0));
    d.add(node.running() ? node.memory().used() : 0);
  }
  if (gen != nullptr) {
    for (const auto& [name, value] : loadgen_counts(*gen)) d.add(value);
    d.add(gen->latencies().count());
    d.add(gen->latencies().sum());
  }
  return d.value();
}

}  // namespace perfbench
