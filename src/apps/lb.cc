#include "apps/lb.h"

#include <algorithm>

#include "os/node_os.h"
#include "util/logging.h"

namespace picloud::apps {

using util::Json;

namespace {

const char* policy_name(LbPolicy p) {
  return p == LbPolicy::kLeastOutstanding ? "least_outstanding" : "round_robin";
}

const char* backend_state_name(LbApp::BackendState s) {
  switch (s) {
    case LbApp::BackendState::kHealthy: return "healthy";
    case LbApp::BackendState::kEjected: return "ejected";
    case LbApp::BackendState::kHalfOpen: return "half_open";
  }
  return "?";
}

}  // namespace

LbParams LbParams::from_json(const Json& j) {
  LbParams p;
  p.port = static_cast<std::uint16_t>(j.get_number("port", 80));
  p.upstream_port =
      static_cast<std::uint16_t>(j.get_number("upstream_port", 8081));
  p.backend_port =
      static_cast<std::uint16_t>(j.get_number("backend_port", 80));
  p.policy = j.get_string("policy", "round_robin") == "least_outstanding"
                 ? LbPolicy::kLeastOutstanding
                 : LbPolicy::kRoundRobin;
  p.health_period = sim::Duration::nanos(static_cast<std::int64_t>(
      j.get_number("health_period_ns", 500.0 * 1e6)));
  p.health_timeout = sim::Duration::nanos(static_cast<std::int64_t>(
      j.get_number("health_timeout_ns", 250.0 * 1e6)));
  p.unhealthy_threshold =
      static_cast<int>(j.get_number("unhealthy_threshold", 3));
  p.ejection_period = sim::Duration::nanos(static_cast<std::int64_t>(
      j.get_number("ejection_period_ns", 5.0 * 1e9)));
  p.proxy_timeout = sim::Duration::nanos(static_cast<std::int64_t>(
      j.get_number("proxy_timeout_ns", 2.0 * 1e9)));
  p.max_attempts = static_cast<int>(j.get_number("max_attempts", 2));
  p.retry_budget_ratio = j.get_number("retry_budget_ratio", 0.1);
  p.retry_budget_burst = j.get_number("retry_budget_burst", 10.0);
  return p;
}

Json LbParams::to_json() const {
  Json j = Json::object();
  j.set("port", port);
  j.set("upstream_port", upstream_port);
  j.set("backend_port", backend_port);
  j.set("policy", std::string(policy_name(policy)));
  j.set("health_period_ns", static_cast<double>(health_period.ns()));
  j.set("health_timeout_ns", static_cast<double>(health_timeout.ns()));
  j.set("unhealthy_threshold", unhealthy_threshold);
  j.set("ejection_period_ns", static_cast<double>(ejection_period.ns()));
  j.set("proxy_timeout_ns", static_cast<double>(proxy_timeout.ns()));
  j.set("max_attempts", max_attempts);
  j.set("retry_budget_ratio", retry_budget_ratio);
  j.set("retry_budget_burst", retry_budget_burst);
  return j;
}

LbApp::LbApp(LbParams params) : params_(params) {
  retry_tokens_ = params_.retry_budget_burst;
}

void LbApp::bind_metrics(os::Container& container) {
  if (m_received_ != nullptr) return;
  util::MetricsRegistry& reg = container.node().simulation().metrics();
  m_received_ = &reg.counter("apps.lb.requests_received");
  m_retries_ = &reg.counter("apps.lb.retries");
  m_retries_denied_ = &reg.counter("apps.lb.retries_denied");
  m_upstream_timeouts_ = &reg.counter("apps.lb.upstream_timeouts");
  m_ejected_ = &reg.counter("apps.lb.backends_ejected");
  m_readmitted_ = &reg.counter("apps.lb.backends_readmitted");
  m_no_backend_ = &reg.counter("apps.lb.no_backend");
  m_healthy_ = &reg.gauge("apps.lb.healthy_backends");
  m_upstream_latency_ = &reg.histogram("apps.lb.upstream_latency_ms");
}

void LbApp::start(os::Container& container) {
  container_ = &container;
  sim_ = &container.node().simulation();
  bind_metrics(container);
  container.listen(params_.port,
                   [this](const net::Message& msg) { on_client(msg); });
  container.listen(params_.upstream_port,
                   [this](const net::Message& msg) { on_upstream(msg); });
  health_task_ = sim::PeriodicTask(*sim_, params_.health_period,
                                   [this]() { run_health_checks(); });
}

void LbApp::stop() {
  if (container_ == nullptr) return;
  health_task_.stop();
  container_->unlisten(params_.port);
  container_->unlisten(params_.upstream_port);
  for (auto& [pid, proxy] : proxies_) {
    if (proxy.timeout_event != 0) sim_->cancel(proxy.timeout_event);
    ++dropped_in_flight_;
  }
  proxies_.clear();
  for (auto& [pid, probe] : probes_) {
    if (probe.timeout_event != 0) sim_->cancel(probe.timeout_event);
  }
  probes_.clear();
  for (auto& [ip, backend] : backends_) {
    if (backend.reopen_event != 0) {
      sim_->cancel(backend.reopen_event);
      backend.reopen_event = 0;
    }
    backend.outstanding = 0;
  }
  container_ = nullptr;
}

void LbApp::set_backends(std::vector<net::Ipv4Addr> backends) {
  // Remember which backend the cursor points at so rotation stays
  // deterministic across pool changes (same fix as HttpLoadGen::set_targets).
  net::Ipv4Addr cursor_ip;
  bool have_cursor = false;
  if (!rotation_.empty()) {
    cursor_ip = rotation_[rr_cursor_ % rotation_.size()];
    have_cursor = true;
  }

  std::map<net::Ipv4Addr, Backend> next;
  for (net::Ipv4Addr ip : backends) {
    auto it = backends_.find(ip);
    if (it != backends_.end()) {
      next.emplace(ip, it->second);
      it->second.reopen_event = 0;  // ownership moved to `next`
    } else {
      next.emplace(ip, Backend{});
    }
  }
  // Cancel reopen timers of backends that left the pool.
  for (auto& [ip, backend] : backends_) {
    if (backend.reopen_event != 0 && sim_ != nullptr) {
      sim_->cancel(backend.reopen_event);
    }
  }
  backends_ = std::move(next);
  rotation_ = std::move(backends);

  rr_cursor_ = 0;
  if (have_cursor) {
    auto at = std::find(rotation_.begin(), rotation_.end(), cursor_ip);
    if (at != rotation_.end()) {
      rr_cursor_ = static_cast<std::size_t>(at - rotation_.begin());
    }
  }
  if (m_healthy_ != nullptr) {
    m_healthy_->set(static_cast<double>(healthy_backends().size()));
  }
}

std::vector<net::Ipv4Addr> LbApp::healthy_backends() const {
  std::vector<net::Ipv4Addr> out;
  for (net::Ipv4Addr ip : rotation_) {
    auto it = backends_.find(ip);
    if (it != backends_.end() && it->second.state == BackendState::kHealthy) {
      out.push_back(ip);
    }
  }
  return out;
}

LbApp::BackendState LbApp::backend_state(net::Ipv4Addr ip) const {
  auto it = backends_.find(ip);
  return it != backends_.end() ? it->second.state : BackendState::kEjected;
}

// Runs per proxied request (plus per retry) — keep allocation-free.
// picloud-hot
bool LbApp::choose_backend(net::Ipv4Addr exclude, bool use_exclude,
                           net::Ipv4Addr* out) {
  if (rotation_.empty()) return false;
  auto eligible = [&](net::Ipv4Addr ip) {
    auto it = backends_.find(ip);
    if (it == backends_.end()) return false;
    if (it->second.state != BackendState::kHealthy) return false;
    return !(use_exclude && ip == exclude);
  };

  if (params_.policy == LbPolicy::kLeastOutstanding) {
    bool found = false;
    net::Ipv4Addr best;
    int best_outstanding = 0;
    for (net::Ipv4Addr ip : rotation_) {  // rotation order breaks ties
      if (!eligible(ip)) continue;
      int outstanding = backends_[ip].outstanding;
      if (!found || outstanding < best_outstanding) {
        found = true;
        best = ip;
        best_outstanding = outstanding;
      }
    }
    if (!found && use_exclude) return choose_backend({}, false, out);
    if (!found) return false;
    *out = best;
    return true;
  }

  for (std::size_t i = 0; i < rotation_.size(); ++i) {
    net::Ipv4Addr ip = rotation_[rr_cursor_ % rotation_.size()];
    ++rr_cursor_;
    if (eligible(ip)) {
      *out = ip;
      return true;
    }
  }
  // Everything healthy was excluded; fall back to allowing the excluded one.
  if (use_exclude) return choose_backend({}, false, out);
  return false;
}

void LbApp::on_client(const net::Message& msg) {
  if (container_ == nullptr) return;
  if (!msg.body.is_object()) return;

  ++requests_received_;
  if (m_received_ != nullptr) m_received_->inc();

  std::uint64_t pid = next_pid_++;
  Proxy proxy;
  proxy.client = msg.src;
  proxy.client_port = msg.src_port;
  proxy.client_id = msg.body.get_number("id");
  proxy.body = msg.body;
  proxy.body.set("id", static_cast<unsigned long long>(pid));
  proxy.padding = msg.padding_bytes;

  net::Ipv4Addr target;
  if (!choose_backend({}, false, &target)) {
    ++no_backend_;
    if (m_no_backend_ != nullptr) m_no_backend_->inc();
    ++responses_error_;
    Json body = Json::object();
    body.set("id", proxy.client_id);
    body.set("status", 503);
    body.set("lb_error", std::string("no_backend"));
    container_->send(proxy.client, proxy.client_port, std::move(body),
                     params_.port, 128);
    return;
  }

  ++requests_forwarded_;
  retry_tokens_ = std::min(retry_tokens_ + params_.retry_budget_ratio,
                           params_.retry_budget_burst);
  proxy.backend = target;
  proxies_.emplace(pid, std::move(proxy));
  forward(pid);
}

void LbApp::forward(std::uint64_t pid) {
  auto it = proxies_.find(pid);
  if (it == proxies_.end()) return;
  Proxy& proxy = it->second;
  ++proxy.attempts;
  ++attempts_forwarded_;
  proxy.attempt_at = sim_->now();
  auto backend_it = backends_.find(proxy.backend);
  if (backend_it != backends_.end()) ++backend_it->second.outstanding;
  proxy.timeout_event = sim_->after(params_.proxy_timeout, [this, pid]() {
    auto at = proxies_.find(pid);
    if (at == proxies_.end()) return;
    at->second.timeout_event = 0;
    ++upstream_timeouts_;
    if (m_upstream_timeouts_ != nullptr) m_upstream_timeouts_->inc();
    attempt_failed(pid);
  });
  bool sent = container_->send(proxy.backend, params_.backend_port,
                               proxy.body, params_.upstream_port,
                               proxy.padding);
  if (!sent) {
    // No route (backend's node is gone): fail fast instead of waiting out
    // the proxy timeout.
    if (proxy.timeout_event != 0) {
      sim_->cancel(proxy.timeout_event);
      proxy.timeout_event = 0;
    }
    attempt_failed(pid);
  }
}

void LbApp::attempt_failed(std::uint64_t pid) {
  auto it = proxies_.find(pid);
  if (it == proxies_.end()) return;
  Proxy& proxy = it->second;
  net::Ipv4Addr failed = proxy.backend;
  auto backend_it = backends_.find(failed);
  if (backend_it != backends_.end() && backend_it->second.outstanding > 0) {
    --backend_it->second.outstanding;
  }
  backend_failure(failed);

  if (proxy.attempts < params_.max_attempts && retry_tokens_ >= 1.0) {
    net::Ipv4Addr target;
    if (choose_backend(failed, true, &target)) {
      retry_tokens_ -= 1.0;
      ++retries_attempted_;
      if (m_retries_ != nullptr) m_retries_->inc();
      proxy.backend = target;
      forward(pid);
      return;
    }
  } else if (proxy.attempts < params_.max_attempts) {
    ++retries_denied_;
    if (m_retries_denied_ != nullptr) m_retries_denied_->inc();
  }

  Json body = Json::object();
  body.set("id", proxy.client_id);
  body.set("status", 503);
  body.set("lb_error", std::string("upstream_failed"));
  finish(pid, std::move(body), 128, /*ok=*/false);
}

void LbApp::finish(std::uint64_t pid, Json body, double padding, bool ok) {
  auto it = proxies_.find(pid);
  if (it == proxies_.end()) return;
  Proxy proxy = std::move(it->second);
  proxies_.erase(it);
  if (proxy.timeout_event != 0) sim_->cancel(proxy.timeout_event);
  if (ok) {
    ++responses_ok_;
  } else {
    ++responses_error_;
  }
  container_->send(proxy.client, proxy.client_port, std::move(body),
                   params_.port, padding);
}

void LbApp::on_upstream(const net::Message& msg) {
  if (container_ == nullptr) return;
  if (!msg.body.is_object()) return;
  const Json& reply = msg.body;
  auto id = static_cast<std::uint64_t>(reply.get_number("id"));

  if (reply.has("health")) {
    auto probe_it = probes_.find(id);
    if (probe_it == probes_.end()) return;  // late probe reply
    if (probe_it->second.timeout_event != 0) {
      sim_->cancel(probe_it->second.timeout_event);
    }
    net::Ipv4Addr backend = probe_it->second.backend;
    probes_.erase(probe_it);
    on_health_reply(backend);
    return;
  }

  auto it = proxies_.find(id);
  if (it == proxies_.end()) return;  // reply after timeout/retry settled
  Proxy& proxy = it->second;
  if (msg.src != proxy.backend) return;  // stale attempt's reply
  if (proxy.timeout_event != 0) {
    sim_->cancel(proxy.timeout_event);
    proxy.timeout_event = 0;
  }
  auto backend_it = backends_.find(proxy.backend);
  if (backend_it != backends_.end() && backend_it->second.outstanding > 0) {
    --backend_it->second.outstanding;
  }
  if (m_upstream_latency_ != nullptr) {
    m_upstream_latency_->observe((sim_->now() - proxy.attempt_at).to_millis());
  }

  const double status = reply.get_number("status", 200);
  const bool shed = !reply.get_string("shed", "").empty();
  if (status >= 500 || shed) {
    // Fast-fail from an overloaded backend. Count it against the breaker and
    // let the retry budget decide whether to try a sibling.
    attempt_failed(id);
    return;
  }
  backend_success(proxy.backend);
  Json to_client = reply;
  to_client.set("id", proxy.client_id);
  finish(id, std::move(to_client), msg.padding_bytes, /*ok=*/true);
}

void LbApp::on_health_reply(net::Ipv4Addr backend) {
  // A successful probe clears the failure streak and re-admits a half-open
  // backend; ejected backends stay out until their period elapses.
  backend_success(backend);
}

void LbApp::backend_failure(net::Ipv4Addr ip) {
  auto it = backends_.find(ip);
  if (it == backends_.end()) return;
  Backend& backend = it->second;
  if (backend.state == BackendState::kHalfOpen) {
    // Failed its trial: back to ejected for another period.
    eject(ip);
    return;
  }
  if (backend.state != BackendState::kHealthy) return;
  if (++backend.consecutive_failures >= params_.unhealthy_threshold) {
    eject(ip);
  }
}

void LbApp::backend_success(net::Ipv4Addr ip) {
  auto it = backends_.find(ip);
  if (it == backends_.end()) return;
  Backend& backend = it->second;
  backend.consecutive_failures = 0;
  if (backend.state == BackendState::kHalfOpen) {
    backend.state = BackendState::kHealthy;
    ++backends_readmitted_;
    if (m_readmitted_ != nullptr) m_readmitted_->inc();
    if (m_healthy_ != nullptr) m_healthy_->add(1);
    LOG_INFO("lb", "backend %s re-admitted", ip.to_string().c_str());
  }
}

void LbApp::eject(net::Ipv4Addr ip) {
  auto it = backends_.find(ip);
  if (it == backends_.end()) return;
  Backend& backend = it->second;
  const bool was_healthy = backend.state == BackendState::kHealthy;
  backend.state = BackendState::kEjected;
  backend.consecutive_failures = 0;
  ++backends_ejected_;
  if (m_ejected_ != nullptr) m_ejected_->inc();
  if (was_healthy && m_healthy_ != nullptr) m_healthy_->add(-1);
  if (backend.reopen_event != 0) sim_->cancel(backend.reopen_event);
  backend.reopen_event = sim_->after(params_.ejection_period, [this, ip]() {
    auto at = backends_.find(ip);
    if (at == backends_.end()) return;
    at->second.reopen_event = 0;
    if (at->second.state == BackendState::kEjected) {
      at->second.state = BackendState::kHalfOpen;
      probe(ip);  // immediate trial instead of waiting for the next sweep
    }
  });
  LOG_INFO("lb", "backend %s ejected", ip.to_string().c_str());
}

void LbApp::run_health_checks() {
  if (container_ == nullptr) return;
  for (net::Ipv4Addr ip : rotation_) {
    auto it = backends_.find(ip);
    if (it == backends_.end()) continue;
    if (it->second.state == BackendState::kEjected) continue;  // waiting out
    probe(ip);
  }
}

void LbApp::probe(net::Ipv4Addr ip) {
  if (container_ == nullptr) return;
  std::uint64_t hid = next_pid_++;
  Json body = Json::object();
  body.set("op", std::string("health"));
  body.set("id", static_cast<unsigned long long>(hid));
  PendingProbe pending;
  pending.backend = ip;
  pending.timeout_event = sim_->after(params_.health_timeout, [this, hid]() {
    auto it = probes_.find(hid);
    if (it == probes_.end()) return;
    net::Ipv4Addr backend = it->second.backend;
    probes_.erase(it);
    backend_failure(backend);
  });
  probes_.emplace(hid, pending);
  bool sent = container_->send(ip, params_.backend_port, std::move(body),
                               params_.upstream_port, 64);
  if (!sent) {
    auto it = probes_.find(hid);
    if (it != probes_.end()) {
      sim_->cancel(it->second.timeout_event);
      probes_.erase(it);
    }
    backend_failure(ip);
  }
}

util::Json LbApp::status() const {
  Json j = Json::object();
  j.set("policy", std::string(policy_name(params_.policy)));
  j.set("requests", static_cast<unsigned long long>(requests_received_));
  j.set("responses_ok", static_cast<unsigned long long>(responses_ok_));
  j.set("responses_error",
        static_cast<unsigned long long>(responses_error_));
  j.set("in_flight", static_cast<unsigned long long>(proxies_.size()));
  j.set("retries", static_cast<unsigned long long>(retries_attempted_));
  j.set("retries_denied", static_cast<unsigned long long>(retries_denied_));
  j.set("upstream_timeouts",
        static_cast<unsigned long long>(upstream_timeouts_));
  j.set("ejected", static_cast<unsigned long long>(backends_ejected_));
  j.set("readmitted", static_cast<unsigned long long>(backends_readmitted_));
  Json pool = Json::object();
  for (net::Ipv4Addr ip : rotation_) {
    auto it = backends_.find(ip);
    if (it == backends_.end()) continue;
    pool.set(ip.to_string(),
             std::string(backend_state_name(it->second.state)));
  }
  j.set("backends", std::move(pool));
  return j;
}

}  // namespace picloud::apps
