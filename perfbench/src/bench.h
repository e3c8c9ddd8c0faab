// Shared pieces of the perfbench driver: the run configuration, the span
// tracer, the result a workload returns, and the model set-up and per-layer
// ledger helpers every workload uses.
//
// The benchmark only calls the library's public API. Spans are recorded in
// this directory's code, around those calls; nothing inside the library is
// instrumented for the benchmark.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/interpreter/session.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Fixed weights for every model the benchmark builds: the program under test
// is the same for every run, only the inputs follow --seed.
inline constexpr std::uint64_t kModelSeed = 20220301;
// Calibration frames are part of the model, so they are fixed too.
inline constexpr std::uint64_t kCalibrationSeed = 777;
// Set-up is repeated at least kSetupRepeats times and for at least
// kSetupSeconds per run, and the median set-up is reported.
inline constexpr int kSetupRepeats = 21;
inline constexpr double kSetupSeconds = 3.0;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch space for spool files and the span dump; inside the checkout.
  std::filesystem::path work_dir;
};

// One unit of the benchmark's own tracing: a named interval with a parent.
// Spans of one frame or request share `op`.
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  std::uint64_t op = 0;
  const char* name = "";
  double start_us = 0.0;  // from the tracer's origin
  double end_us = 0.0;
};

// In-memory span recorder. Single-threaded: workloads whose work runs on
// other threads keep their own timestamps and add the spans afterwards with
// record(). When disabled every call is a no-op that returns id 0.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  std::uint32_t begin(const char* name, std::uint64_t op, std::uint32_t parent);
  void end(std::uint32_t id);
  std::uint32_t record(const char* name, std::uint64_t op, std::uint32_t parent,
                       Clock::time_point start, Clock::time_point end);

  // Median duration (ms) of the spans with this name; 0 when there are none.
  double median_ms(const std::string& name) const;
  const std::vector<Span>& spans() const { return spans_; }
  // Writes every span as one JSON line to `path`, and prints each span
  // name's median self time (its duration minus the part of it that its
  // children cover) to stderr.
  void dump(const std::filesystem::path& path) const;

 private:
  double us_since_origin(Clock::time_point t) const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// RAII span; inert when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t op = 0,
             std::uint32_t parent = 0)
      : tracer_(tracer), id_(tracer.begin(name, op, parent)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct WorkloadResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  // Failed correctness checks; any entry makes the run incorrect.
  std::vector<std::string> check_failures;
  // Open-loop phases whose generator fell behind its schedule: the run's
  // numbers are not a measurement of that load.
  std::vector<std::string> invalid_phases;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void set_kib(const std::string& name, std::size_t bytes) {
    set(name, static_cast<double>(bytes) / 1024.0, "KiB");
  }
};

// --- host speed --------------------------------------------------------------
//
// The host is shared: other tenants' load makes the same code run up to 1.6x
// slower in spells of seconds to minutes, so runs a few minutes apart differ
// by that much on any statistic of wall time. Each timed region therefore
// samples a fixed calibration loop as it goes and scales its figures by the
// slowdown at that moment: the loop's median time there over
// kCalibrationRefMs. Times are divided by the slowdown and rates multiplied
// by it, which puts them at the speed of the reference host (a 4-vCPU Xeon
// VM, quiet). The loop is the benchmark's own code, built with the
// benchmark's flags, so no change to the library moves it; the unscaled
// figures and the slowdown are per-layer metrics.

// One pass of the calibration loop (about 0.1 ms) and its duration.
double calibration_ms();
inline constexpr double kCalibrationRefMs = 0.125;

// Calibration samples of one timed region.
struct HostSpeed {
  std::vector<double> at_s;  // from the region's start
  std::vector<double> ms;

  // Runs the loop, recorded at `at` s; returns how long that took, so the
  // caller can leave it out of the region.
  Clock::duration sample(double at);
  // kBurst samples in a row, all recorded at `at`.
  void burst(double at);
  static constexpr int kBurst = 9;
  // The median sample in [from_s, to_s) over kCalibrationRefMs. Where
  // fewer than kMinSamples fall in it, the region's median is used instead
  // (a few samples are too noisy); with no samples at all, 1.
  double slowdown(double from_s, double to_s) const;
  static constexpr std::size_t kMinSamples = 16;
  double slowdown() const;
};

// The slowdown now, from the median of a short burst of samples: for work
// that cannot be sampled as it runs (set-up, a saturated server).
double burst_slowdown();

// Per-operation latencies of one timed region, with each operation's
// completion time for the windowed statistics below.
struct Timeline {
  Clock::time_point begin = Clock::now();
  std::vector<double> ms;
  std::vector<double> end_s;  // from `begin`
  HostSpeed speed;

  void add(Clock::time_point start, Clock::time_point end) {
    ms.push_back(ms_between(start, end));
    end_s.push_back(ms_between(begin, end) / 1000.0);
  }
  double span_s() const { return end_s.empty() ? 0.0 : end_s.back(); }
  // Samples the calibration loop and leaves its time out of the region by
  // moving `begin` forward; returns that time.
  Clock::duration calibrate() {
    const Clock::duration d =
        speed.sample(ms_between(begin, Clock::now()) / 1000.0);
    begin += d;
    return d;
  }
};

// --- statistics --------------------------------------------------------------

// Nearest-rank percentile (q in [0,1]) of an unsorted sample; 0 when empty.
double percentile(std::vector<double> values, double q);
double median(const std::vector<double>& values);

// Run-level statistics over consecutive windows of `window_s` seconds of a
// timed region `span_s` long. Samples are (time from the start of the
// region, value); the tail that does not fill a window is dropped (a region
// shorter than one window is one window). Each window's figure is scaled by
// the region's slowdown in that window (see HostSpeed), and the run's figure
// is the median over windows, so a burst of interference the scaling misses
// moves one window's figure, not the run's.
//   window_percentile: the window's q-percentile, divided by the slowdown.
//   window_rate: the window's samples per second, times the slowdown.
double window_percentile(const std::vector<double>& at_s,
                         const std::vector<double>& values, double window_s,
                         double span_s, double q, const HostSpeed& speed);
double window_rate(const std::vector<double>& at_s, double window_s,
                   double span_s, const HostSpeed& speed);

// Builds a workload's rig from scratch with `set_up(repeat)` at least
// kSetupRepeats times and for at least kSetupSeconds, tearing the previous
// one down outside the timing, and keeps the last. Returns the median
// set-up in seconds, each divided by the slowdown from a burst of
// calibration samples taken just before it.
//
// Unscaled, the median flipped between runs: on a shared host the same
// set-up takes 1.6x as long in spells of one to several seconds. The
// fastest scaled set-up was no steadier: out of hundreds of repeats, the one
// whose burst happened to read slow gave the minimum.
template <typename Rig, typename SetUp>
double timed_setup(Rig& rig, SetUp&& set_up) {
  std::vector<double> scaled_s;
  double total_s = 0.0;
  for (int r = 0; r < kSetupRepeats || total_s < kSetupSeconds; ++r) {
    if (r > 0) rig.tear_down();
    const double slowdown = burst_slowdown();
    const Clock::time_point start = Clock::now();
    rig = set_up(static_cast<std::uint64_t>(r));
    const double s = ms_between(start, Clock::now()) / 1000.0;
    scaled_s.push_back(s / slowdown);
    total_s += s;
  }
  return median(scaled_s);
}
// Process peak resident set (VmHWM) in MiB.
double peak_rss_mb();

// --- models ------------------------------------------------------------------

// Converted f32 inference graph of an image-zoo model (graph.build +
// convert spans).
mlexray::Graph build_f32_model(const std::string& zoo_name, int batch,
                               Tracer& tracer, std::uint64_t op,
                               std::uint32_t parent);

// Calibrates on `frames` (u8 sensor frames, preprocessed with the model's
// own InputSpec) and quantizes (quant.calibrate + quant.quantize spans).
mlexray::Graph quantize_on_frames(const mlexray::Graph& f32,
                                  const std::vector<mlexray::Tensor>& frames,
                                  Tracer& tracer, std::uint64_t op,
                                  std::uint32_t parent);

// Sensor frames for calibration (fixed seed; generated outside set-up).
std::vector<mlexray::Tensor> calibration_frames();

// Seeded SynthImageNet sensor frames and labels.
struct SensorSet {
  std::vector<mlexray::Tensor> frames;
  std::vector<int> labels;
};
SensorSet make_sensor_set(int per_class, std::uint64_t seed);

// --- per-layer kernel ledger -------------------------------------------------

// Op groups of the ledger, in report order.
extern const char* const kKernelGroups[];
extern const int kKernelGroupCount;
int kernel_group(mlexray::OpType type);

// Per-node time accumulated by a session between two snapshots.
struct Ledger {
  std::vector<double> per_node_total_ms;
  std::int64_t invokes = 0;
};
Ledger ledger_snapshot(const mlexray::Session& session);

// Emits `<prefix>.<group>.ms` (per invoke) and `.share` (of the summed node
// time) for every group, and `.gflops` for conv, dwconv and fc. FLOPs come
// from estimate_node_cost (computed from shapes, not counted).
void emit_kernel_ledger(WorkloadResult& out, const std::string& prefix,
                        const mlexray::Graph& graph, const Ledger& before,
                        const Ledger& after, bool with_share_and_rate);

// Starts the per-layer report: every per-layer metric name with value 0, so
// each workload reports the full set and a layer it does not exercise reads
// 0, then the set-up component times (median over the set-up repeats). The
// workload overwrites what else it measures.
void emit_per_layer_base(WorkloadResult& out, const Tracer& tracer);

// --- workloads ---------------------------------------------------------------

WorkloadResult run_edge_app(const RunConfig& config);
WorkloadResult run_debug_session(const RunConfig& config);
WorkloadResult run_serve_openloop(const RunConfig& config);

// Self-tests of the correctness checks and input determinism; returns the
// number of failed self-tests.
int run_selftest(const std::filesystem::path& work_dir);

}  // namespace perfbench
