// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code around its calls into
// each layer's public API (nothing inside src/ is instrumented). Each span
// keeps its name, host start/end, parent, the repetition ("run") it belongs
// to, and the deltas of the layer counters over its interval, so ratios are
// taken where the work happens. The whole set is written out once, at exit.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Host CPU time of the calling thread in nanoseconds: what every timing of
// the benchmark measures (the workloads run on this one thread). Unlike
// wall-clock time it leaves out the time the thread waits for a CPU; the
// speed of the CPU itself still drifts on a shared host (calibrate.h).
inline std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// Host monotonic wall-clock time in nanoseconds; bounds how long a run
// takes, never reported.
inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Layer counter name -> value (counts, or end-state values such as series).
using Counts = std::map<std::string, double>;

// b - a for every key of b (keys missing from a count as 0).
Counts delta(const Counts& a, const Counts& b);

struct Span {
  std::string name;
  int parent = -1;
  int run = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  Counts deltas;
};

class Tracer {
 public:
  explicit Tracer(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_run(int run) { run_ = run; }
  int run() const { return run_; }

  // Opens a child of the innermost open span; returns -1 when disabled.
  int begin(std::string name);
  // Closes span `id` (which must be the innermost open one).
  void end(int id, Counts deltas = {});

  const std::vector<Span>& spans() const { return spans_; }
  // Sum over spans of each name of duration minus the child spans' time.
  std::map<std::string, double> self_seconds(int run) const;
  std::string to_json() const;

 private:
  bool enabled_;
  int run_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Opens a span for the lifetime of the scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.begin(std::move(name))) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
