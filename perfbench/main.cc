// picloud_perfbench — host cost of simulated experiments, end to end and
// per layer (README.md).
//
//   picloud_perfbench --workload fleet_k8|flash_crowd|fuzz_sweep|all
//                     [--seed N] [--seconds S] [--trace 0|1]
//                     [--trace-out FILE] [--check-determinism]
//
// One run repeats the workload until --seconds of wall-clock time are used
// (a warm-up and at least three timed repetitions) and reports medians of
// the repetitions' CPU times, scaled to the reference host speed measured
// by a calibration kernel between repetitions (calibrate.h). With
// --trace 0 the last stdout line is a JSON object with the end-to-end
// metrics; with --trace 1 every other repetition is traced and the line
// carries the per-layer metrics, the span self times and the tracing
// overhead. Every repetition checks its own outputs outside the timed
// phase; any failed check makes "correct" false and the exit code 1.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "calibrate.h"
#include "layers.h"
#include "tracer.h"
#include "util/logging.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_given = false;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  bool check_determinism = false;
};

// Every span name the workloads open; each is reported as self_s.<name>
// (0 where a workload has no such span) so all workloads print one set.
const char* const kSpanNames[] = {
    "workload",      "setup",       "setup.build", "setup.boot",
    "setup.spawn",   "spawn",       "run",         "slice",
    "scenario",      "check",       "probe.counters", "probe.util",
    "probe.proto",   "probe.testing",
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (flag == "--check-determinism") {
      a->check_determinism = true;
    } else if (flag == "--workload" && value(&v)) {
      a->workload = v;
    } else if (flag == "--seed" && value(&v)) {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
      a->seed_given = true;
    } else if (flag == "--seconds" && value(&v)) {
      a->seconds = std::atof(v.c_str());
    } else if (flag == "--trace" && value(&v)) {
      a->trace = v == "1";
    } else if (flag == "--trace-out" && value(&v)) {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

// Peak resident set of this program image. VmHWM restarts at exec();
// getrusage()'s ru_maxrss would also count the launcher's pre-exec image.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    double kib = 0;
    if (key == "VmHWM:" && status >> kib) return kib / 1024.0;
    status.ignore(1 << 20, '\n');
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

std::string unit_of(const std::string& name) {
  auto ends = [&](const char* suffix) {
    const std::string s(suffix);
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends("_ns") || name == "sim.host_ns_per_event") return "ns";
  if (ends("_ms")) return "ms";
  if (ends("_s_per_wall_s")) return "s/s";
  if (ends("_s") || name.rfind("self_s.", 0) == 0) return "s";
  if (ends("_mb")) return "MB";
  if (ends("_frac") || ends("_share")) return "frac";
  if (ends("_ratio") || ends("_per_flow") || ends("_per_task")) return "ratio";
  return "count";
}

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
};

void add_ops(Result& out, const RepResult& rep) {
  out.attempted += rep.attempted;
  out.failed += rep.failed;
  for (const std::string& e : rep.errors) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", e.c_str());
  }
}

// One workload, repeated for `seconds`.
Result run_workload(const Workload& w, std::uint64_t seed, double seconds,
                    bool trace, Tracer& traced) {
  Tracer untraced(false);
  Result out;
  std::vector<double> setup_s, run_s, traced_run_s;
  std::vector<double> calibrations;  // one after each repetition
  std::vector<std::map<std::string, double>> layers;
  double sim_s = 0;
  std::uint64_t first_digest = 0;
  // Repetition 0 warms caches and the allocator: it is checked like the
  // others but left out of the timings.
  const int min_reps = trace ? 3 : 4;
  const std::int64_t t0 = wall_ns();
  static int next_run = 0;  // span run ids stay unique across workloads
  for (int rep = 0;; ++rep) {
    const bool traced_rep = trace && rep % 2 == 1;
    Tracer& tr = traced_rep ? traced : untraced;
    const int run = next_run++;
    tr.set_run(run);
    const std::int64_t r0 = wall_ns();
    RepResult r = w.run(RepOptions{.seed = seed}, tr);
    calibrations.push_back(calibration_s());
    const double rep_s = static_cast<double>(wall_ns() - r0) * 1e-9;

    if (rep == 0) first_digest = r.digest;
    const bool golden_applies = seed == w.default_seed && w.golden_digest != 0;
    ++r.attempted;  // the end-state digest is one more check
    if (r.digest != first_digest ||
        (golden_applies && r.digest != w.golden_digest)) {
      ++r.failed;
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "end-state digest 0x%016llx (expected 0x%016llx)",
                    static_cast<unsigned long long>(r.digest),
                    static_cast<unsigned long long>(
                        golden_applies ? w.golden_digest : first_digest));
      r.errors.emplace_back(buf);
    }
    add_ops(out, r);
    std::fprintf(stderr,
                 "perfbench: %s rep %d%s: setup %.6f s, run %.6f s, "
                 "calibration %.6f s\n",
                 w.name.c_str(), rep, traced_rep ? " (traced)" : "",
                 r.setup_s, r.run_s, calibrations.back());
    if (rep > 0) {
      setup_s.push_back(r.setup_s);
      (traced_rep ? traced_run_s : run_s).push_back(r.run_s);
    }
    sim_s = r.sim_s;
    if (traced_rep) {
      const std::map<std::string, double> self = tr.self_seconds(run);
      for (const char* name : kSpanNames) {
        auto it = self.find(name);
        r.layer[std::string("self_s.") + name] =
            it == self.end() ? 0.0 : it->second;
      }
      if (!layers.empty()) {  // one check: the counts repeat exactly
        ++out.attempted;
        bool repeat = true;
        for (const auto& [name, value] : r.layer) {
          if (is_deterministic_metric(name) && layers.front().at(name) != value) {
            repeat = false;
            std::fprintf(stderr,
                         "perfbench: FAILED determinism: %s %.17g != %.17g\n",
                         name.c_str(), value, layers.front().at(name));
          }
        }
        out.failed += repeat ? 0 : 1;
      }
      layers.push_back(std::move(r.layer));
    }
    if (out.failed > 0) break;
    const double elapsed = static_cast<double>(wall_ns() - t0) * 1e-9;
    if (rep + 1 >= min_reps && elapsed + rep_s > seconds) break;
  }
  out.correct = out.failed == 0;
  // Host times are reported at the reference speed (calibrate.h).
  const double calibration = median(calibrations);
  const double scale = reference_scale(calibration);
  const double run_median = median(run_s) * scale;
  if (!trace) {
    out.metrics["setup_s"] = median(setup_s) * scale;
    out.metrics["run_s"] = run_median;
    out.metrics["sim_s_per_wall_s"] = run_median > 0 ? sim_s / run_median : 0;
    out.metrics["peak_rss_mb"] = peak_rss_mb();
    return out;
  }
  if (layers.empty()) return out;
  for (const auto& [name, value] : layers.front()) {
    std::vector<double> values;
    for (const auto& l : layers) values.push_back(l.at(name));
    out.metrics[name] = median(std::move(values));
  }
  out.metrics["trace.overhead_s"] = median(traced_run_s) * scale - run_median;
  out.metrics["bench.calibration_s"] = calibration;
  return out;
}

void print_result(const Result& r, const std::string& prefix) {
  for (const auto& [name, value] : r.metrics) {
    std::fprintf(stderr, "  %-44s %16.6f %s\n", (prefix + name).c_str(),
                 value, unit_of(name).c_str());
  }
}

std::string result_json(const Result& r) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                r.correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
  out += buf;
  bool first = true;
  for (const auto& [name, value] : r.metrics) {
    // "all" prefixes each name with "<workload>/".
    const std::string base = name.substr(name.rfind('/') + 1);
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": "
                  "\"%s\"}", first ? "" : ", ", name.c_str(), value,
                  unit_of(base).c_str());
    out += buf;
    first = false;
  }
  return out + "}}";
}

// Runs the workload three times on one seed: twice traced and sliced, once
// untraced and unsliced. Every count metric must repeat exactly and all
// three end-state digests must agree.
int check_determinism(const Workload& w, std::uint64_t seed) {
  Tracer tracer(true);
  Tracer untraced(false);
  tracer.set_run(0);
  RepResult a = w.run(RepOptions{.seed = seed}, tracer);
  tracer.set_run(1);
  RepResult b = w.run(RepOptions{.seed = seed}, tracer);
  RepResult c = w.run(RepOptions{.seed = seed, .sliced = false}, untraced);
  int bad = 0;
  for (const RepResult* r : {&a, &b, &c}) {
    for (const std::string& e : r->errors) {
      std::fprintf(stderr, "%s: FAILED %s\n", w.name.c_str(), e.c_str());
      ++bad;
    }
  }
  int counts = 0;
  for (const auto& [name, value] : a.layer) {
    if (!is_deterministic_metric(name)) continue;
    ++counts;
    if (b.layer.at(name) != value) {
      std::fprintf(stderr, "%s: determinism bug: %s = %.17g then %.17g\n",
                   w.name.c_str(), name.c_str(), value, b.layer.at(name));
      ++bad;
    }
  }
  if (a.digest != b.digest || a.digest != c.digest) {
    std::fprintf(stderr,
                 "%s: end-state digests differ: traced 0x%016llx / "
                 "0x%016llx, unsliced 0x%016llx\n",
                 w.name.c_str(), static_cast<unsigned long long>(a.digest),
                 static_cast<unsigned long long>(b.digest),
                 static_cast<unsigned long long>(c.digest));
    ++bad;
  }
  std::printf("%s seed %llu: %d count metrics, digest 0x%016llx: %s\n",
              w.name.c_str(), static_cast<unsigned long long>(seed), counts,
              static_cast<unsigned long long>(a.digest),
              bad == 0 ? "deterministic" : "NOT deterministic");
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: picloud_perfbench --workload NAME|all [--seed N] "
                 "[--seconds S] [--trace 0|1] [--trace-out FILE] "
                 "[--check-determinism]\n");
    return 2;
  }
  std::vector<const Workload*> selected;
  if (args.workload == "all") {
    for (const Workload& w : workloads()) selected.push_back(&w);
  } else if (const Workload* w = find_workload(args.workload)) {
    selected.push_back(w);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  // Simulator log lines cost host time and vary the output; silence them
  // while workloads run.
  const picloud::util::LogLevel saved = picloud::util::Logging::level();
  picloud::util::Logging::set_level(picloud::util::LogLevel::kOff);
  int rc = 0;
  if (args.check_determinism) {
    for (const Workload* w : selected) {
      rc |= check_determinism(*w, args.seed_given ? args.seed
                                                  : w->default_seed);
    }
    picloud::util::Logging::set_level(saved);
    return rc;
  }

  Tracer tracer(true);
  Result all;
  for (const Workload* w : selected) {
    const std::uint64_t seed = args.seed_given ? args.seed : w->default_seed;
    Result r = run_workload(*w, seed, args.seconds, args.trace, tracer);
    std::fprintf(stderr, "%s seed %llu: %s, %llu ops, %llu failed\n",
                 w->name.c_str(), static_cast<unsigned long long>(seed),
                 r.correct ? "correct" : "INCORRECT",
                 static_cast<unsigned long long>(r.attempted),
                 static_cast<unsigned long long>(r.failed));
    print_result(r, selected.size() > 1 ? w->name + "/" : "");
    all.correct = all.correct && r.correct;
    all.attempted += r.attempted;
    all.failed += r.failed;
    for (const auto& [name, value] : r.metrics) {
      all.metrics[selected.size() > 1 ? w->name + "/" + name : name] = value;
    }
  }
  picloud::util::Logging::set_level(saved);

  if (args.trace && !args.trace_out.empty()) {
    std::ofstream out(args.trace_out, std::ios::binary);
    out << tracer.to_json();
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
      rc = 1;
    }
  }
  std::printf("%s\n", result_json(all).c_str());
  return all.correct ? rc : 1;
}
