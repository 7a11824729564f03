// Per-layer observation from outside the simulator: layer counters read
// through each module's public accessors, timed probes of the telemetry and
// message paths on an end-state cloud, and the end-state digest and checks
// every workload runs after its timed phase.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/loadgen.h"
#include "cloud/cloud.h"
#include "tracer.h"

namespace perfbench {

// Work counts of every layer of `cloud` (cumulative since construction).
Counts cloud_counts(picloud::cloud::PiCloud& cloud);
// Outcome counts of one load generator.
Counts loadgen_counts(const picloud::apps::HttpLoadGen& gen);

// arrivals == completed + failed + timed_out + breaker_rejected + in_flight,
// one latency sample per completion, retries within the budget. Returns ""
// when the identity holds, else what broke.
std::string loadgen_conservation(const picloud::apps::HttpLoadGen& gen);

// Median host cost of the heartbeat and request paths on `cloud`'s current
// registry, timed through the public APIs: MetricsRegistry::snapshot(scope),
// Json dump/parse of that body, and HttpRequest serialize+parse of a
// heartbeat and of an app request. Each probe span goes to `tracer`.
struct ProbeTimes {
  double scope_snapshot_ns = 0;
  double json_dump_ns = 0;
  double json_parse_ns = 0;
  double heartbeat_roundtrip_ns = 0;
  double app_roundtrip_ns = 0;
  // Estimated host cost of one heartbeat: build the scoped body, then carry
  // it as a request (serialize + parse, which includes the JSON round trip).
  double per_beat_ns() const {
    return scope_snapshot_ns + heartbeat_roundtrip_ns;
  }
};
ProbeTimes probe_message_paths(picloud::cloud::PiCloud& cloud,
                               Tracer& tracer);

// Runs the InvariantChecker's built-in catalogue (sweep + quiesce probes) on
// the current state; returns the violations as text, empty when clean.
// Registers the checker's own series, so take counts and digests first.
std::vector<std::string> check_invariants(picloud::cloud::PiCloud& cloud);

// FNV-1a digest of the simulated end state: event count, sim time, message
// totals, every instance record and every node. Work counters and the
// metrics snapshot are left out so that telemetry-only or host-only changes
// keep it; `gen` (optional) adds the load generator's outcomes.
std::uint64_t end_state_digest(picloud::cloud::PiCloud& cloud,
                               const picloud::apps::HttpLoadGen* gen);

// Median of `values` (0 when empty).
double median(std::vector<double> values);

}  // namespace perfbench
