#include "calibrate.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "layers.h"
#include "tracer.h"

namespace perfbench {
namespace {

constexpr int kPasses = 5;

std::uint64_t next(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

volatile double sink;

// Integer and floating-point arithmetic in registers.
void alu_kernel() {
  std::uint64_t s = 88172645463325252ULL;
  double acc = 1;
  for (int i = 0; i < 3000000; ++i) {
    const std::uint64_t v = next(s);
    acc = acc * 0.999999 + static_cast<double>(v & 1023) / (1 + (v >> 54));
  }
  sink = acc;
}

// Formatting, sorting and looking up dotted metric names, and parsing
// numbers back out of text.
void mix_kernel() {
  std::uint64_t s = 1181783497276652981ULL;
  std::vector<std::string> names;
  char buf[96];
  for (int i = 0; i < 3000; ++i) {
    std::snprintf(buf, sizeof(buf), "node.%d.rest.client.%s.%llu",
                  static_cast<int>(next(s) % 128),
                  (next(s) & 1) ? "latency_ms" : "attempts",
                  static_cast<unsigned long long>(next(s) % 100000));
    names.emplace_back(buf);
  }
  double acc = 0;
  for (int round = 0; round < 6; ++round) {
    std::vector<std::string> copy = names;
    std::sort(copy.begin(), copy.end());
    std::map<std::string, double> table;
    for (const std::string& n : copy) {
      std::snprintf(buf, sizeof(buf), "%.6g", static_cast<double>(n.size()) / 7);
      table[n] += std::strtod(buf, nullptr);
    }
    for (const std::string& n : names) acc += table.find(n)->second;
  }
  sink = acc;
}

double time_s(void (*kernel)()) {
  const std::int64_t t0 = cpu_ns();
  kernel();
  return static_cast<double>(cpu_ns() - t0) * 1e-9;
}

}  // namespace

double calibration_s() {
  std::vector<double> alu, mix;
  for (int i = 0; i < kPasses; ++i) {
    alu.push_back(time_s(alu_kernel));
    mix.push_back(time_s(mix_kernel));
  }
  return std::sqrt(median(std::move(alu)) * median(std::move(mix)));
}

double reference_scale(double calibration) {
  return std::pow(kReferenceCalibrationS / calibration, kCalibrationExponent);
}

}  // namespace perfbench
