// The benchmark's three workloads (README.md gives the reasons). Each is a
// batch run in host time; one repetition sets up, runs a timed phase, then
// checks its own outputs outside the timed phase.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tracer.h"

namespace perfbench {

struct RepResult {
  double setup_s = 0;  // host seconds before the timed phase
  double run_s = 0;    // host seconds of the timed phase
  double sim_s = 0;    // simulated seconds the timed phase advanced
  // Operations: a scenario, a spawn or an end-state check.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // one line per failed operation
  std::uint64_t digest = 0;         // end-state witness, same seed -> same
  // Per-layer metrics by name; filled on traced repetitions only.
  std::map<std::string, double> layer;
};

struct RepOptions {
  std::uint64_t seed = 1;
  // Split the timed phase into fixed simulated-time slices (one span each
  // when traced). false runs each phase in one run_for(); the end state
  // must not depend on it.
  bool sliced = true;
};

struct Workload {
  std::string name;
  std::uint64_t default_seed;
  // End-state digest recorded for the default seed (0: the workload checks
  // its own per-part goldens instead).
  std::uint64_t golden_digest;
  RepResult (*run)(const RepOptions& options, Tracer& tracer);
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

// True for the per-layer metrics that do not measure host time: counts,
// ratios of counts and simulated outcomes. They are deterministic for a
// seed, so one that moves between two repetitions of a seed is a
// determinism bug.
bool is_deterministic_metric(const std::string& name);

}  // namespace perfbench
