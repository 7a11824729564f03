#include "tracer.h"

#include <cstdio>

namespace perfbench {

Counts delta(const Counts& a, const Counts& b) {
  Counts d;
  for (const auto& [name, value] : b) {
    auto it = a.find(name);
    d[name] = value - (it == a.end() ? 0.0 : it->second);
  }
  return d;
}

int Tracer::begin(std::string name) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.run = run_;
  span.start_ns = cpu_ns();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int id, Counts deltas) {
  if (id < 0) return;
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_ns = cpu_ns();
  span.deltas = std::move(deltas);
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, double> Tracer::self_seconds(int run) const {
  // Spans are single-threaded and strictly nested, so a span's children
  // never overlap and self time is its duration minus theirs.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].run != run) continue;
    self[spans_[i].name] +=
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                            child_ns[i]) * 1e-9;
  }
  return self;
}

std::string Tracer::to_json() const {
  std::string out = "{\"spans\": [\n";
  char buf[160];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                  "\"run\": %d, \"start_ns\": %lld, \"end_ns\": %lld, "
                  "\"deltas\": {",
                  i, s.name.c_str(), s.parent, s.run,
                  static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns));
    out += buf;
    bool first = true;
    for (const auto& [name, value] : s.deltas) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g", first ? "" : ", ",
                    name.c_str(), value);
      out += buf;
      first = false;
    }
    out += i + 1 < spans_.size() ? "}},\n" : "}}\n";
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
