// Lightweight httpd — the paper's canonical Pi workload.
//
// §IV: "We are therefore currently limited to a subset of software
// (lightweight httpd servers, hadoop etc.) at the application layer that can
// be used to emulate current DC workloads." Each GET costs CPU cycles under
// the container's cgroup and returns a response body over the fabric, so
// request latency reflects both CPU contention on the Pi and network
// congestion on the path.
//
// Overload resilience (DESIGN.md §11): requests pass the serving tier's
// admission queue (apps/serving_queue.h). A shed request gets a 503 tagged
// with its cause; a brownout response costs a fraction of the cycles and
// bytes and is tagged "brownout":true.
#pragma once

#include <cstdint>
#include <string>

#include "apps/serving_queue.h"
#include "os/container.h"
#include "util/json.h"
#include "util/metrics.h"

namespace picloud::apps {

// The admission knobs (queue_capacity 64, service_concurrency 4, ...) come
// from AdmissionParams.
struct HttpdParams : AdmissionParams {
  std::uint16_t port = 80;
  double cycles_per_request = 2e6;     // ~3 ms alone on a 700 MHz Pi
  std::uint64_t response_bytes = 8192; // page size
  std::uint64_t working_set_bytes = 10ull << 20;  // resident beyond idle
  // Brownout responses carry bytes*factor.
  double brownout_bytes_factor = 0.125;

  static HttpdParams from_json(const util::Json& j);
  util::Json to_json() const;
};

class HttpdApp : public os::ContainerApp {
 public:
  explicit HttpdApp(HttpdParams params = {});

  std::string kind() const override { return "httpd"; }
  void start(os::Container& container) override;
  void stop() override;
  util::Json status() const override;
  double dirty_bytes_per_sec() const override {
    // Logs + caches churn a slice of the working set.
    return static_cast<double>(params_.working_set_bytes) * 0.02;
  }

  // --- Accounting (conservation probe: see invariants.cc) --------------------
  // received == served_ok + served_brownout + shed_admission + shed_deadline
  //             + refused_at_start + queue_depth + in_service, at any instant.
  std::uint64_t requests_received() const { return queue_.received(); }
  std::uint64_t requests_served() const {
    return served_ok_ + served_brownout_;
  }
  std::uint64_t served_ok() const { return served_ok_; }
  std::uint64_t served_brownout() const { return served_brownout_; }
  std::uint64_t shed_admission() const { return queue_.shed_admission(); }
  std::uint64_t shed_deadline() const { return queue_.shed_deadline(); }
  // Admitted but never completed: the CPU task was cancelled (container
  // stopped / destroyed / OOM-killed mid-service) or the request was still
  // queued at stop().
  std::uint64_t refused_at_start() const { return queue_.refused_at_start(); }
  std::uint64_t requests_dropped() const {
    return shed_admission() + shed_deadline() + refused_at_start();
  }
  std::size_t queue_depth() const { return queue_.depth(); }
  int in_service() const { return queue_.in_service(); }
  bool brownout_active() const { return queue_.brownout(); }
  const HttpdParams& params() const { return params_; }

 private:
  struct QueueEntry {
    net::Ipv4Addr reply_to;
    std::uint16_t reply_port = 0;
    double id = 0;
    std::string path;
    double cost = 1.0;  // heavy-tailed per-request work multiplier
  };
  friend class ServingQueue<QueueEntry>;  // drives shed() and serve()

  void on_request(const net::Message& msg);
  void shed(const QueueEntry& entry, const char* cause);
  void serve(QueueEntry entry, bool degraded);

  HttpdParams params_;
  ServingQueue<QueueEntry> queue_{params_};
  os::Container* container_ = nullptr;
  bool working_set_resident_ = false;

  std::uint64_t served_ok_ = 0;
  std::uint64_t served_brownout_ = 0;

  // Registry series (aggregated across instances; bound at start()).
  util::Counter* m_served_ok_ = nullptr;
  util::Counter* m_served_brownout_ = nullptr;
};

}  // namespace picloud::apps
