#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "perfbench/src/bench.h"

namespace perfbench {

namespace {

// Tables of fixed pseudo-random values; 96 KiB in all, so the loop's data
// stays in the L2 cache between samples as the program's working set does.
struct CalibrationTables {
  std::vector<std::int8_t> a, b;
  std::vector<float> x, y;
  std::vector<char> from;
  CalibrationTables()
      : a(kInt8), b(kInt8), x(kFloat), y(kFloat), from(kCopy) {
    std::uint32_t s = 12345;
    auto next = [&s] {
      s = s * 1664525u + 1013904223u;
      return s >> 8;
    };
    for (std::size_t i = 0; i < kInt8; ++i) {
      a[i] = static_cast<std::int8_t>(next());
      b[i] = static_cast<std::int8_t>(next());
    }
    for (std::size_t i = 0; i < kFloat; ++i) {
      x[i] = static_cast<float>(next() & 0xffff) / 65536.0f;
      y[i] = static_cast<float>(next() & 0xffff) / 65536.0f;
    }
    for (char& c : from) c = static_cast<char>(next());
  }
  static constexpr std::size_t kInt8 = 16384;
  static constexpr std::size_t kFloat = 4096;
  static constexpr std::size_t kCopy = 32768;
};

// Keeps the loop's result observable, so the compiler cannot drop the loop.
thread_local volatile std::int64_t calibration_sink = 0;

}  // namespace

double calibration_ms() {
  // The loop runs on several threads at once in serve_openloop: the tables
  // are shared read-only, the copy target is per thread.
  static const CalibrationTables t;
  thread_local std::vector<char> to(CalibrationTables::kCopy);
  const Clock::time_point start = Clock::now();
  std::int64_t total = 0;
  for (std::size_t pass = 0; pass < 8; ++pass) {
    // int8 multiply-accumulate (the deployed kernels' inner loop), f32
    // multiply-add (the reference and f32 kernels') and a copy (capture).
    std::int32_t acc = 0;
    for (std::size_t i = 0; i < CalibrationTables::kInt8; ++i) {
      acc += static_cast<std::int32_t>(t.a[i]) *
             static_cast<std::int32_t>(t.b[(i + pass) % CalibrationTables::kInt8]);
    }
    std::array<float, 8> lanes{};
    for (std::size_t i = 0; i < CalibrationTables::kFloat; i += 8) {
      for (std::size_t l = 0; l < 8; ++l) {
        lanes[l] += t.x[i + l] * t.y[(i + l + pass) % CalibrationTables::kFloat];
      }
    }
    std::memcpy(to.data(), t.from.data(), to.size());
    total += acc + static_cast<std::int64_t>(lanes[pass] * 1024.0f) +
             to[pass * 61];
  }
  calibration_sink = total;
  return ms_between(start, Clock::now());
}

Clock::duration HostSpeed::sample(double at) {
  const Clock::time_point start = Clock::now();
  ms.push_back(calibration_ms());
  at_s.push_back(at);
  return Clock::now() - start;
}

double HostSpeed::slowdown(double from_s, double to_s) const {
  std::vector<double> inside;
  for (std::size_t i = 0; i < at_s.size(); ++i) {
    if (at_s[i] >= from_s && at_s[i] < to_s) inside.push_back(ms[i]);
  }
  return inside.size() < kMinSamples ? slowdown()
                                     : median(inside) / kCalibrationRefMs;
}

double HostSpeed::slowdown() const {
  return ms.empty() ? 1.0 : median(ms) / kCalibrationRefMs;
}

void HostSpeed::burst(double at) {
  for (int i = 0; i < kBurst; ++i) sample(at);
}

double burst_slowdown() {
  HostSpeed speed;
  speed.burst(0.0);
  return speed.slowdown();
}

}  // namespace perfbench
