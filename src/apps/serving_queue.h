// The serving tier's admission queue (DESIGN.md §11), shared by httpd and
// kvstore.
//
// Requests are admitted into a bounded queue and served at a fixed
// concurrency; the queue sheds at capacity, sheds again when an entry's
// deadline expires before service starts, and under sustained pressure the
// server enters *brownout* — degraded responses that cost a fraction of the
// cycles — instead of letting the backlog collapse every request's latency.
// Every drop is metered by cause, per instance and in the registry.
//
// The queue decides; the app acts. The app is the queue's `Steps`: it
// provides
//   void shed(const Entry& entry, const char* cause);  // admission, deadline
//   void serve(Entry entry, bool degraded);            // starts the CPU task
// and, when that task ends, calls finish() and then pump(). The steps are
// resolved at compile time: no std::function and no allocation beyond the
// queue's own, on the per-request path.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <utility>

#include "sim/simulation.h"
#include "util/json.h"
#include "util/metrics.h"

namespace picloud::apps {

// Admission knobs shared by the server kinds. Each app's params derive from
// this, so the knobs keep their flat JSON keys and field names.
struct AdmissionParams {
  // Master switch: off reproduces the pre-overload-tier behaviour (every
  // request goes straight to run_cpu) — the no-shedding baseline the
  // flash-crowd acceptance test compares against.
  bool admission_control = true;
  // Bound on requests waiting for a service slot. Full queue -> shed.
  int queue_capacity = 64;
  // Requests in run_cpu simultaneously; the rest wait in the queue.
  int service_concurrency = 4;
  // Time a request may wait in the queue; checked when it reaches the head,
  // expired entries are shed instead of burning cycles.
  sim::Duration queue_deadline = sim::Duration::millis(750);
  // Hysteresis on queue fill: enter degraded serving at `enter`, leave at
  // `exit`. Brownout service costs cycles*factor.
  double brownout_enter_fill = 0.75;
  double brownout_exit_fill = 0.25;
  double brownout_cycles_factor = 0.25;

  // Overwrites each knob whose key `j` carries; absent keys keep the
  // current value, which is the app's default on a fresh params struct.
  void read_admission_keys(const util::Json& j) {
    admission_control =
        j.get_number("admission_control", admission_control ? 1 : 0) != 0;
    queue_capacity =
        static_cast<int>(j.get_number("queue_capacity", queue_capacity));
    service_concurrency = static_cast<int>(
        j.get_number("service_concurrency", service_concurrency));
    queue_deadline = sim::Duration::nanos(static_cast<std::int64_t>(
        j.get_number("queue_deadline_ns",
                     static_cast<double>(queue_deadline.ns()))));
    brownout_enter_fill =
        j.get_number("brownout_enter_fill", brownout_enter_fill);
    brownout_exit_fill =
        j.get_number("brownout_exit_fill", brownout_exit_fill);
    brownout_cycles_factor =
        j.get_number("brownout_cycles_factor", brownout_cycles_factor);
  }

  void write_admission_keys(util::Json& j) const {
    j.set("admission_control", admission_control ? 1 : 0);
    j.set("queue_capacity", queue_capacity);
    j.set("service_concurrency", service_concurrency);
    j.set("queue_deadline_ns", static_cast<double>(queue_deadline.ns()));
    j.set("brownout_enter_fill", brownout_enter_fill);
    j.set("brownout_exit_fill", brownout_exit_fill);
    j.set("brownout_cycles_factor", brownout_cycles_factor);
  }
};

template <typename Entry>
class ServingQueue {
 public:
  // `params` is the owning app's and must outlive the queue.
  explicit ServingQueue(const AdmissionParams& params) : params_(params) {}
  ServingQueue(const ServingQueue&) = delete;
  ServingQueue& operator=(const ServingQueue&) = delete;

  // Binds the registry series, aggregated across instances, under `prefix`:
  // `<prefix>.<received_leaf>`, `.shed_admission`, `.shed_deadline`,
  // `.refused_at_start` and the `.queue_depth` gauge. `brownout_entered`,
  // if given, counts every entry into brownout. Call before the first
  // admit().
  void bind(sim::Simulation& sim, const std::string& prefix,
            const std::string& received_leaf,
            util::Counter* brownout_entered = nullptr) {
    sim_ = &sim;
    util::MetricsRegistry& reg = sim.metrics();
    m_received_ = &reg.counter(prefix + "." + received_leaf);
    m_shed_admission_ = &reg.counter(prefix + ".shed_admission");
    m_shed_deadline_ = &reg.counter(prefix + ".shed_deadline");
    m_refused_at_start_ = &reg.counter(prefix + ".refused_at_start");
    m_brownout_entered_ = brownout_entered;
    m_queue_depth_ = &reg.gauge(prefix + ".queue_depth");
  }

  // One request arrives. With admission control off it is served at once,
  // at any concurrency; otherwise a full queue sheds it, and an admitted one
  // waits its turn.
  template <typename Steps>
  void admit(Entry entry, Steps& steps) {
    ++received_;
    m_received_->inc();
    if (!params_.admission_control) {
      ++in_service_;
      steps.serve(std::move(entry), degraded());
      return;
    }
    if (static_cast<int>(queue_.size()) >= params_.queue_capacity) {
      ++shed_admission_;
      m_shed_admission_->inc();
      steps.shed(entry, "admission");
      return;
    }
    queue_.push_back({std::move(entry), sim_->now() + params_.queue_deadline});
    m_queue_depth_->add(1);
    update_brownout();
    pump(steps);
  }

  // Starts queued requests while service slots are free, shedding those
  // whose deadline passed while they waited.
  template <typename Steps>
  void pump(Steps& steps) {
    if (!params_.admission_control) return;
    while (in_service_ < params_.service_concurrency && !queue_.empty()) {
      Waiting head = std::move(queue_.front());
      queue_.pop_front();
      m_queue_depth_->add(-1);
      if (sim_->now() > head.deadline) {
        ++shed_deadline_;
        m_shed_deadline_->inc();
        steps.shed(head.entry, "deadline");
        continue;
      }
      ++in_service_;
      steps.serve(std::move(head.entry), degraded());
    }
    update_brownout();
  }

  // A served request's CPU task ended. One that did not complete (task
  // cancelled, server stopped meanwhile) is counted refused_at_start;
  // returns whether it completed.
  bool finish(bool completed) {
    --in_service_;
    if (completed) return true;
    ++refused_at_start_;
    m_refused_at_start_->inc();
    return false;
  }

  // The listener is gone (stop: migration freeze, node drain): every queued
  // request dies with it, counted refused_at_start so conservation holds.
  void drain() {
    const auto n = static_cast<std::uint64_t>(queue_.size());
    queue_.clear();
    refused_at_start_ += n;
    m_refused_at_start_->inc(n);
    m_queue_depth_->add(-static_cast<double>(n));
  }

  std::uint64_t received() const { return received_; }
  std::uint64_t shed_admission() const { return shed_admission_; }
  std::uint64_t shed_deadline() const { return shed_deadline_; }
  std::uint64_t refused_at_start() const { return refused_at_start_; }
  std::size_t depth() const { return queue_.size(); }
  int in_service() const { return in_service_; }
  bool brownout() const { return brownout_; }

 private:
  struct Waiting {
    Entry entry;
    sim::SimTime deadline;
  };

  bool degraded() const { return params_.admission_control && brownout_; }

  void update_brownout() {
    const double fill = params_.queue_capacity > 0
                            ? static_cast<double>(queue_.size()) /
                                  static_cast<double>(params_.queue_capacity)
                            : 0.0;
    if (!brownout_ && fill >= params_.brownout_enter_fill) {
      brownout_ = true;
      if (m_brownout_entered_ != nullptr) m_brownout_entered_->inc();
    } else if (brownout_ && fill <= params_.brownout_exit_fill) {
      brownout_ = false;
    }
  }

  const AdmissionParams& params_;
  sim::Simulation* sim_ = nullptr;
  std::deque<Waiting> queue_;  // bounded by params_.queue_capacity
  int in_service_ = 0;
  bool brownout_ = false;

  std::uint64_t received_ = 0;
  std::uint64_t shed_admission_ = 0;
  std::uint64_t shed_deadline_ = 0;
  std::uint64_t refused_at_start_ = 0;

  util::Counter* m_received_ = nullptr;
  util::Counter* m_shed_admission_ = nullptr;
  util::Counter* m_shed_deadline_ = nullptr;
  util::Counter* m_refused_at_start_ = nullptr;
  util::Counter* m_brownout_entered_ = nullptr;
  util::Gauge* m_queue_depth_ = nullptr;
};

}  // namespace picloud::apps
