#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>

#include "perfbench/src/bench.h"
#include "src/convert/converter.h"
#include "src/datasets/synth_image.h"
#include "src/interpreter/device_profile.h"
#include "src/models/zoo.h"
#include "src/preprocess/image.h"
#include "src/quant/quantizer.h"

namespace perfbench {

using namespace mlexray;

// --- tracer ------------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
  if (enabled_) spans_.reserve(1 << 20);
}

double Tracer::us_since_origin(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - origin_).count();
}

std::uint32_t Tracer::begin(const char* name, std::uint64_t op,
                            std::uint32_t parent) {
  if (!enabled_) return 0;
  const Clock::time_point now = Clock::now();
  return record(name, op, parent, now, now);
}

void Tracer::end(std::uint32_t id) {
  if (id == 0) return;
  spans_[id - 1].end_us = us_since_origin(Clock::now());
}

std::uint32_t Tracer::record(const char* name, std::uint64_t op,
                             std::uint32_t parent, Clock::time_point start,
                             Clock::time_point end) {
  if (!enabled_) return 0;
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.op = op;
  s.name = name;
  s.start_us = us_since_origin(start);
  s.end_us = us_since_origin(end);
  spans_.push_back(s);
  return s.id;
}

double Tracer::median_ms(const std::string& name) const {
  std::vector<double> ms;
  for (const Span& s : spans_) {
    if (name == s.name) ms.push_back((s.end_us - s.start_us) / 1000.0);
  }
  return median(ms);
}

void Tracer::dump(const std::filesystem::path& path) const {
  std::ofstream out(path);
  out << std::fixed << std::setprecision(3);
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << ",\"name\":\"" << s.name
        << "\",\"start_us\":" << s.start_us << ",\"end_us\":" << s.end_us
        << "}\n";
  }
  // Children are recorded after their parent, so one pass in id order
  // collects each span's child intervals.
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent - 1].push_back({s.start_us, s.end_us});
  }
  std::map<std::string, std::vector<double>> self_ms;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = s.start_us;
    for (auto [a, b] : kids) {
      a = std::max(a, reach);
      b = std::min(b, s.end_us);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    self_ms[s.name].push_back((s.end_us - s.start_us - covered) / 1000.0);
  }
  std::fprintf(stderr, "perfbench: median self time per span (ms):\n");
  for (const auto& [name, values] : self_ms) {
    std::fprintf(stderr, "  %-28s %10.4f  (%zu spans)\n", name.c_str(),
                 median(values), values.size());
  }
}

// --- statistics --------------------------------------------------------------

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const double n = static_cast<double>(values.size());
  return values[static_cast<std::size_t>(std::clamp(rank, 1.0, n)) - 1];
}

double median(const std::vector<double>& values) {
  return percentile(values, 0.5);
}

namespace {

// Samples grouped by full window, and the window length used.
std::vector<std::vector<double>> by_window(const std::vector<double>& at_s,
                                           const std::vector<double>& values,
                                           double window_s, double span_s,
                                           double* length_s) {
  *length_s = std::min(window_s, span_s);
  const auto windows = static_cast<std::size_t>(std::floor(span_s / *length_s));
  std::vector<std::vector<double>> out(windows);
  for (std::size_t i = 0; i < at_s.size(); ++i) {
    const auto w = static_cast<std::size_t>(std::max(0.0, at_s[i]) / *length_s);
    if (w < windows) out[w].push_back(values[i]);
  }
  return out;
}

}  // namespace

double window_percentile(const std::vector<double>& at_s,
                         const std::vector<double>& values, double window_s,
                         double span_s, double q, const HostSpeed& speed) {
  double length_s = 0.0;
  const std::vector<std::vector<double>> windows =
      by_window(at_s, values, window_s, span_s, &length_s);
  std::vector<double> per_window;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    if (windows[i].empty()) continue;
    const double from = static_cast<double>(i) * length_s;
    per_window.push_back(percentile(windows[i], q) /
                         speed.slowdown(from, from + length_s));
  }
  return median(per_window);
}

double window_rate(const std::vector<double>& at_s, double window_s,
                   double span_s, const HostSpeed& speed) {
  double length_s = 0.0;
  const std::vector<std::vector<double>> windows =
      by_window(at_s, at_s, window_s, span_s, &length_s);
  std::vector<double> per_window;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const double from = static_cast<double>(i) * length_s;
    per_window.push_back(static_cast<double>(windows[i].size()) / length_s *
                         speed.slowdown(from, from + length_s));
  }
  return median(per_window);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
    std::getline(status, key);
  }
  return 0.0;
}

// --- models ------------------------------------------------------------------

Graph build_f32_model(const std::string& zoo_name, int batch, Tracer& tracer,
                      std::uint64_t op, std::uint32_t parent) {
  const ZooEntry* entry = nullptr;
  for (const ZooEntry& e : image_zoo()) {
    if (e.name == zoo_name) entry = &e;
  }
  MLX_CHECK(entry != nullptr) << "no zoo model " << zoo_name;
  ZooModel built = [&] {
    ScopedSpan span(tracer, "graph.build", op, parent);
    return entry->build(kModelSeed, batch);
  }();
  ScopedSpan span(tracer, "convert", op, parent);
  return convert_for_inference(built.model);
}

Graph quantize_on_frames(const Graph& f32, const std::vector<Tensor>& frames,
                         Tracer& tracer, std::uint64_t op,
                         std::uint32_t parent) {
  Calibrator calibrator(&f32);
  {
    ScopedSpan span(tracer, "quant.calibrate", op, parent);
    const ImagePipelineConfig correct{f32.input_spec, PreprocBug::kNone};
    for (const Tensor& frame : frames) {
      calibrator.observe({run_image_pipeline(frame, correct)});
    }
  }
  ScopedSpan span(tracer, "quant.quantize", op, parent);
  return quantize_model(f32, calibrator);
}

std::vector<Tensor> calibration_frames() {
  std::vector<Tensor> frames;
  for (SensorExample& ex : SynthImageNet::make(1, kCalibrationSeed)) {
    frames.push_back(std::move(ex.image_u8));
  }
  return frames;
}

SensorSet make_sensor_set(int per_class, std::uint64_t seed) {
  std::vector<SensorExample> examples = SynthImageNet::make(per_class, seed);
  Pcg32 rng(seed ^ 0x5eedf00dULL);
  rng.shuffle(examples);
  SensorSet set;
  for (SensorExample& ex : examples) {
    set.frames.push_back(std::move(ex.image_u8));
    set.labels.push_back(ex.label);
  }
  return set;
}

// --- kernel ledger -----------------------------------------------------------

const char* const kKernelGroups[] = {"conv", "dwconv", "fc",      "add",
                                     "mul",  "act",    "pool",    "softmax",
                                     "quant", "other"};
const int kKernelGroupCount =
    static_cast<int>(sizeof(kKernelGroups) / sizeof(kKernelGroups[0]));

int kernel_group(OpType type) {
  switch (type) {
    case OpType::kConv2D: return 0;
    case OpType::kDepthwiseConv2D: return 1;
    case OpType::kFullyConnected: return 2;
    case OpType::kAdd:
    case OpType::kSub: return 3;
    case OpType::kMul: return 4;
    case OpType::kRelu:
    case OpType::kRelu6:
    case OpType::kHardSwish:
    case OpType::kSigmoid:
    case OpType::kTanh: return 5;
    case OpType::kAvgPool2D:
    case OpType::kMaxPool2D:
    case OpType::kMean: return 6;
    case OpType::kSoftmax: return 7;
    case OpType::kQuantize:
    case OpType::kDequantize: return 8;
    default: return 9;
  }
}

Ledger ledger_snapshot(const Session& session) {
  return Ledger{session.last_stats().per_node_total_ms,
                session.last_stats().invoke_count};
}

void emit_kernel_ledger(WorkloadResult& out, const std::string& prefix,
                        const Graph& graph, const Ledger& before,
                        const Ledger& after, bool with_share_and_rate) {
  const double invokes = static_cast<double>(
      std::max<std::int64_t>(1, after.invokes - before.invokes));
  std::vector<double> ms(static_cast<std::size_t>(kKernelGroupCount), 0.0);
  std::vector<double> flops(static_cast<std::size_t>(kKernelGroupCount), 0.0);
  double total = 0.0;
  for (const Node& node : graph.nodes) {
    if (node.type == OpType::kInput) continue;
    const auto id = static_cast<std::size_t>(node.id);
    const double before_ms = id < before.per_node_total_ms.size()
                                 ? before.per_node_total_ms[id]
                                 : 0.0;
    const double node_ms = (after.per_node_total_ms[id] - before_ms) / invokes;
    const auto g = static_cast<std::size_t>(kernel_group(node.type));
    ms[g] += node_ms;
    flops[g] += estimate_node_cost(graph, node).flops;
    total += node_ms;
  }
  for (int g = 0; g < kKernelGroupCount; ++g) {
    const auto gi = static_cast<std::size_t>(g);
    const std::string base = prefix + "." + kKernelGroups[g];
    out.set(base + ".ms", ms[gi], "ms");
    if (!with_share_and_rate) continue;
    out.set(base + ".share", total > 0.0 ? ms[gi] / total : 0.0, "ratio");
    if (g <= 2) {
      out.set(base + ".gflops", ms[gi] > 0.0 ? flops[gi] / (ms[gi] * 1e6) : 0.0,
              "GFLOP/s");
    }
  }
}

void emit_per_layer_base(WorkloadResult& out, const Tracer& tracer) {
  const char* const count_metrics[] = {
      "front_door.max_queue_depth", "front_door.shed", "front_door.rejected",
      "front_door.deadline_exceeded", "front_door.failed"};
  const std::pair<const char*, const char*> metrics[] = {
      {"graph.build_ms", "ms"},          {"convert.ms", "ms"},
      {"quant.calibrate_ms", "ms"},      {"quant.quantize_ms", "ms"},
      {"interpreter.prepare_ms", "ms"},  {"engine.load_ms", "ms"},
      {"core.monitor_bind_ms", "ms"},    {"interpreter.prepared_kb", "KiB"},
      {"interpreter.activation_kb", "KiB"}, {"interpreter.arena_hw_kb", "KiB"},
      {"preprocess.frame_ms", "ms"},     {"interpreter.invoke_ms", "ms"},
      {"interpreter.invoke_p99_ms", "ms"}, {"interpreter.step_gap_ms", "ms"},
      {"interpreter.ref_invoke_ms", "ms"}, {"core.monitor_stop_ms", "ms"},
      {"core.spool_bytes_per_frame", "B"}, {"core.finish_spool_ms", "ms"},
      {"core.trace_load_ms", "ms"},      {"core.per_layer_drift_ms", "ms"},
      {"core.assertions_ms", "ms"},      {"core.trace_mb", "MB"},
      {"core.report_ms", "ms"},          {"front_door.queue_p50_ms", "ms"},
      {"front_door.queue_p99_ms", "ms"}, {"front_door.service_ms", "ms"},
      {"front_door.batch_mean", "count"}, {"front_door.ok_ratio", "ratio"},
      {"loadgen.late_p99_ms", "ms"},     {"loadgen.nominal_offered_qps", "1/s"},
      {"loadgen.overload_offered_qps", "1/s"}, {"loadgen.valid", "bool"},
      {"op.p99_ms", "ms"},               {"tracing.overhead_pct", "%"},
      {"op.raw_p50_ms", "ms"},           {"host.slowdown", "ratio"}};
  for (const auto& [name, unit] : metrics) out.set(name, 0.0, unit);
  for (const char* name : count_metrics) out.set(name, 0.0, "count");
  for (const char* prefix : {"kernels", "kernels_b8", "kernels_ref"}) {
    for (int g = 0; g < kKernelGroupCount; ++g) {
      const std::string base = std::string(prefix) + "." + kKernelGroups[g];
      out.set(base + ".ms", 0.0, "ms");
      if (std::string(prefix) == "kernels_ref") continue;
      out.set(base + ".share", 0.0, "ratio");
      if (g <= 2) out.set(base + ".gflops", 0.0, "GFLOP/s");
    }
  }

  // Set-up spans carry the repeat index as their op; a component that runs
  // once per model (serving builds two variants) is summed per repeat, and
  // the fastest repeat is reported.
  const std::pair<const char*, const char*> parts[] = {
      {"graph.build", "graph.build_ms"},
      {"convert", "convert.ms"},
      {"quant.calibrate", "quant.calibrate_ms"},
      {"quant.quantize", "quant.quantize_ms"},
      {"interpreter.prepare", "interpreter.prepare_ms"},
      {"engine.load", "engine.load_ms"},
      {"core.monitor_bind", "core.monitor_bind_ms"}};
  for (const auto& [span_name, metric] : parts) {
    std::map<std::uint64_t, double> per_repeat;
    for (const Span& s : tracer.spans()) {
      if (std::string(span_name) == s.name) {
        per_repeat[s.op] += (s.end_us - s.start_us) / 1000.0;
      }
    }
    std::vector<double> values;
    for (const auto& [op, ms] : per_repeat) values.push_back(ms);
    if (!values.empty()) {
      out.set(metric, *std::min_element(values.begin(), values.end()), "ms");
    }
  }
}

}  // namespace perfbench
