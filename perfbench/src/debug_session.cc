// debug_session: the paper's Fig-2 offline debugging flow on
// MobileNetV2-mini (the Fig-6 model). Each cycle plays a fixed number of
// seeded frames through the deployed int8 pipeline (optimized kernels) and
// the f32 reference pipeline (reference kernels), both capturing every
// layer's raw output and spooling to .mlxtrace files; then loads the two
// traces and produces the report: accuracy match, per-layer drift and the
// built-in root-cause assertions.
//
// Exercised: reference kernels, raw per-layer capture, trace writes and
// reads, and validation. Optimized kernels are a small share of the time.
#include <malloc.h>

#include <filesystem>
#include <memory>

#include "perfbench/src/checks.h"
#include "perfbench/src/frame.h"
#include "src/core/assertions.h"

namespace perfbench {

using namespace mlexray;

namespace {

constexpr const char* kModel = "mobilenet_v2_mini";
constexpr int kFramesPerCycle = 24;
// Window for the run-level p90: about 130 frames, so thirteen beyond it.
constexpr double kWindowS = 1.0;
// The calibration loop is sampled after every kCalibrateEvery frames (about
// 1% of the frame time).
constexpr int kCalibrateEvery = 2;
// Frames replayed with the int16-overflow depthwise bug for the
// localization check (that kernel path is slow; kept out of timing).
constexpr int kBugFrames = 6;

struct Pipeline {
  std::unique_ptr<Model> model;
  std::unique_ptr<Session> session;
  std::unique_ptr<EdgeMLMonitor> monitor;  // destroyed before the session
};

MonitorOptions raw_capture_options(bool retain) {
  MonitorOptions options;
  options.per_layer_outputs = true;
  options.per_layer_latency = true;
  options.log_model_io = true;
  options.retain_frames = retain;
  // A recording session buffers a whole cycle, so recording never waits on
  // the disk; closing the spool at the end of the cycle does.
  options.spool_queue_frames = kFramesPerCycle;
  return options;
}

struct DebugRig {
  Pipeline edge;       // int8, optimized kernels
  Pipeline reference;  // f32, reference kernels
  std::filesystem::path edge_spool;
  std::filesystem::path reference_spool;

  void start_spools() {
    edge.monitor->spool_to(edge_spool);
    reference.monitor->spool_to(reference_spool);
  }
  void finish_spools() {
    edge.monitor->finish_spool();
    reference.monitor->finish_spool();
  }
  void tear_down() {
    finish_spools();
    for (Pipeline* p : {&edge, &reference}) {
      p->monitor.reset();
      p->session.reset();
      p->model.reset();
    }
  }
};

void bind(Pipeline& p, const std::string& name, Tracer& tracer,
          std::uint64_t repeat, std::uint32_t parent) {
  ScopedSpan span(tracer, "core.monitor_bind", repeat, parent);
  p.monitor = std::make_unique<EdgeMLMonitor>(raw_capture_options(false));
  p.monitor->set_pipeline_name(name);
  p.monitor->observe(*p.session);
}

DebugRig set_up(const std::vector<Tensor>& calibration,
                const OpResolver& optimized, const OpResolver& reference,
                const std::filesystem::path& dir, Tracer& tracer,
                std::uint64_t repeat) {
  ScopedSpan root(tracer, "setup", repeat);
  Graph f32 = build_f32_model(kModel, 1, tracer, repeat, root.id());
  Graph quantized =
      quantize_on_frames(f32, calibration, tracer, repeat, root.id());
  DebugRig rig;
  {
    ScopedSpan span(tracer, "interpreter.prepare", repeat, root.id());
    rig.edge.model =
        std::make_unique<Model>(std::move(quantized), &optimized, 1);
    rig.edge.session = std::make_unique<Session>(rig.edge.model.get());
    rig.reference.model =
        std::make_unique<Model>(std::move(f32), &reference, 1);
    rig.reference.session =
        std::make_unique<Session>(rig.reference.model.get());
  }
  bind(rig.edge, "debug_session.edge", tracer, repeat, root.id());
  bind(rig.reference, "debug_session.reference", tracer, repeat, root.id());
  rig.edge_spool = dir / "edge.mlxtrace";
  rig.reference_spool = dir / "reference.mlxtrace";
  rig.start_spools();
  return rig;
}

DebugReport make_report(const Trace& edge, const Trace& reference,
                        const std::vector<int>& labels,
                        const DeploymentValidator& validator, Tracer& tracer,
                        std::uint64_t op, std::uint32_t parent) {
  DebugReport out;
  AccuracyReport accuracy;
  {
    ScopedSpan span(tracer, "core.validate_accuracy", op, parent);
    accuracy = validator.validate_accuracy(edge, reference, labels);
  }
  PerLayerReport layers;
  {
    ScopedSpan span(tracer, "core.per_layer_drift", op, parent);
    layers = validator.per_layer_drift(edge, reference);
  }
  std::vector<AssertionResult> assertions;
  {
    ScopedSpan span(tracer, "core.assertions", op, parent);
    assertions = validator.run_assertions(edge, reference);
  }
  out.text = validator.report(accuracy, layers, assertions);
  for (const LayerDrift& d : layers.drifts) out.drift.push_back(d.error);
  out.first_suspect = layers.first_suspect;
  return out;
}

// Frames are taken cyclically from the seeded set.
std::size_t wrap(const SensorSet& sensors, std::size_t i) {
  return i % sensors.frames.size();
}

// Plays frames [first, first + count) through both pipelines.
void record(FrameRig& edge, FrameRig& reference, const SensorSet& sensors,
            std::size_t first, Tracer& tracer, std::uint64_t& next_op,
            Timeline& frames, InvokeSamples& edge_invokes,
            InvokeSamples& ref_invokes) {
  for (int i = 0; i < kFramesPerCycle; ++i) {
    const Tensor& sensor =
        sensors.frames[wrap(sensors, first + static_cast<std::size_t>(i))];
    const std::uint64_t op = next_op++;
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan frame(tracer, "frame", op);
      run_frame(edge, sensor, tracer, op, frame.id(), edge_invokes);
      run_frame(reference, sensor, tracer, op, frame.id(), ref_invokes);
    }
    frames.add(start, Clock::now());
    if (i % kCalibrateEvery == kCalibrateEvery - 1) frames.calibrate();
  }
}

std::vector<int> labels_of(const SensorSet& sensors, std::size_t first) {
  std::vector<int> labels;
  for (int i = 0; i < kFramesPerCycle; ++i) {
    labels.push_back(
        sensors.labels[wrap(sensors, first + static_cast<std::size_t>(i))]);
  }
  return labels;
}

// Retained-frame capture of frames [first, first + count) through `p`.
Trace capture_in_memory(Pipeline& p, const ImagePipelineConfig& preprocess,
                        const SensorSet& sensors, std::size_t first,
                        int count) {
  EdgeMLMonitor monitor(raw_capture_options(true));
  monitor.observe(*p.session);
  FrameRig rig{p.session.get(), &monitor, preprocess};
  Tracer off(false);
  InvokeSamples unused;
  for (int i = 0; i < count; ++i) {
    const std::size_t idx = wrap(sensors, first + static_cast<std::size_t>(i));
    run_frame(rig, sensors.frames[idx], off, 0, 0, unused);
  }
  monitor.unobserve(*p.session);
  return monitor.take_trace();
}

}  // namespace

WorkloadResult run_debug_session(const RunConfig& config) {
  // Each cycle's spools start two writer threads. With glibc's default of
  // one malloc arena per thread (up to 8 per core), peak RSS depended on how
  // many arenas those threads happened to touch: 61 to 68 MB over five
  // runs of the same code. One arena (set before any thread starts) makes it
  // measure the program's allocations: 55.2 to 55.3 MB.
  mallopt(M_ARENA_MAX, 1);
  WorkloadResult out;
  Tracer tracer(config.trace);

  const SensorSet sensors = make_sensor_set(8, config.seed);
  const std::vector<Tensor> calibration = calibration_frames();
  const BuiltinOpResolver optimized;
  const RefOpResolver reference;

  DebugRig rig;
  const double setup_s = timed_setup(rig, [&](std::uint64_t repeat) {
    return set_up(calibration, optimized, reference, config.work_dir, tracer,
                  repeat);
  });
  const InputSpec& spec = rig.reference.model->graph().input_spec;
  const ImagePipelineConfig correct{spec, PreprocBug::kNone};
  FrameRig edge_rig{rig.edge.session.get(), rig.edge.monitor.get(), correct};
  FrameRig ref_rig{rig.reference.session.get(), rig.reference.monitor.get(),
                   correct};
  DeploymentValidator validator;
  register_builtin_image_assertions(validator, spec);

  Timeline frames;
  Timeline untraced_frames;
  InvokeSamples edge_invokes;
  InvokeSamples ref_invokes;
  std::uint64_t next_op = 0;
  std::uint64_t cycles = 0;
  std::size_t first = 0;  // first frame of the latest cycle
  DebugReport last_report;
  double trace_mb = 0.0;

  // One debugging cycle: record, close the spools, reload, report. Returns
  // the frames it debugged per second, without the calibration samples and
  // scaled by the slowdown while it ran.
  auto cycle = [&](Timeline& frame_sink) {
    const double from_s = ms_between(frame_sink.begin, Clock::now()) / 1000.0;
    ScopedSpan span(tracer, "cycle", cycles);
    if (cycles > 0) {
      first += kFramesPerCycle;
      rig.start_spools();
    }
    record(edge_rig, ref_rig, sensors, first, tracer, next_op, frame_sink,
           edge_invokes, ref_invokes);
    {
      ScopedSpan finish(tracer, "core.finish_spool", cycles, span.id());
      rig.finish_spools();
    }
    {
      ScopedSpan report(tracer, "report", cycles, span.id());
      Trace edge_trace, ref_trace;
      {
        ScopedSpan load(tracer, "core.trace_load", cycles, report.id());
        edge_trace = load_trace(rig.edge_spool);
        ref_trace = load_trace(rig.reference_spool);
      }
      last_report =
          make_report(edge_trace, ref_trace, labels_of(sensors, first),
                      validator, tracer, cycles, report.id());
    }
    trace_mb =
        static_cast<double>(std::filesystem::file_size(rig.edge_spool) +
                            std::filesystem::file_size(rig.reference_spool)) /
        1e6;
    ++cycles;
    const double to_s = ms_between(frame_sink.begin, Clock::now()) / 1000.0;
    return kFramesPerCycle / (to_s - from_s) *
           frame_sink.speed.slowdown(from_s, to_s);
  };
  // Frames debugged per second: the median over cycles, so a burst of
  // outside interference moves one cycle's figure, not the run's.
  auto run_for = [&](double seconds, Timeline& frame_sink) {
    frame_sink.begin = Clock::now();
    std::vector<double> rates;
    while (ms_between(frame_sink.begin, Clock::now()) < seconds * 1000.0) {
      rates.push_back(cycle(frame_sink));
    }
    return median(rates);
  };

  double frames_per_s = 0.0;
  Ledger edge_before, ref_before;
  if (config.trace) {
    // A quarter of the run untraced, the rest traced: the difference is the
    // tracing overhead.
    tracer.set_enabled(false);
    run_for(config.seconds * 0.25, untraced_frames);
    tracer.set_enabled(true);
    edge_before = ledger_snapshot(*rig.edge.session);
    ref_before = ledger_snapshot(*rig.reference.session);
    frames_per_s = run_for(config.seconds * 0.75, frames);
  } else {
    frames_per_s = run_for(config.seconds, frames);
  }
  const double rss_mb = peak_rss_mb();
  const Ledger edge_after = ledger_snapshot(*rig.edge.session);
  const Ledger ref_after = ledger_snapshot(*rig.reference.session);

  // --- correctness --------------------------------------------------------
  // The last cycle's report (from the reloaded spools) must equal the report
  // over the same frames captured in memory.
  rig.edge.monitor->unobserve(*rig.edge.session);
  rig.reference.monitor->unobserve(*rig.reference.session);
  const Trace edge_mem =
      capture_in_memory(rig.edge, correct, sensors, first, kFramesPerCycle);
  Trace ref_mem = capture_in_memory(rig.reference, correct, sensors, first,
                                    kFramesPerCycle);
  Tracer off(false);
  const DebugReport in_memory = make_report(
      edge_mem, ref_mem, labels_of(sensors, first), validator, off, 0, 0);
  // The deployed kernels with the int16-overflow depthwise bug: drift
  // localization must point at the first DepthwiseConv2D.
  const BuiltinOpResolver buggy(
      KernelBugConfig{.optimized_dwconv_int16_overflow = true});
  Pipeline bug_edge;
  bug_edge.model = std::make_unique<Model>(&rig.edge.model->graph(), &buggy, 1);
  bug_edge.session = std::make_unique<Session>(bug_edge.model.get());
  const Trace bug_trace =
      capture_in_memory(bug_edge, correct, sensors, first, kBugFrames);
  ref_mem.frames.resize(kBugFrames);
  for (const std::string& failure :
       {check_reports_equal(last_report, in_memory),
        check_first_suspect(validator.per_layer_drift(bug_trace, ref_mem),
                            rig.edge.model->graph())}) {
    if (!failure.empty()) out.check_failures.push_back(failure);
  }
  std::filesystem::remove(rig.edge_spool);
  std::filesystem::remove(rig.reference_spool);

  // --- metrics ------------------------------------------------------------
  out.attempted = static_cast<std::int64_t>(cycles) * kFramesPerCycle;
  out.failed = 0;
  out.set("setup_s", setup_s, "s");
  out.set("peak_rss_mb", rss_mb, "MB");
  out.set("ok_ratio", 1.0, "ratio");
  out.set("p50_ms",
          window_percentile(frames.end_s, frames.ms, kWindowS, frames.span_s(),
                            0.50, frames.speed),
          "ms");
  out.set("op.p90_ms",
          window_percentile(frames.end_s, frames.ms, kWindowS, frames.span_s(),
                            0.90, frames.speed),
          "ms");
  out.set("ops_per_s", frames_per_s, "1/s");

  if (config.trace) {
    emit_per_layer_base(out, tracer);
    out.set("op.raw_p50_ms", median(frames.ms), "ms");
    out.set("host.slowdown", frames.speed.slowdown(), "ratio");
    out.set("op.p99_ms", percentile(frames.ms, 0.99), "ms");
    out.set("tracing.overhead_pct",
            (median(frames.ms) / median(untraced_frames.ms) - 1.0) * 100.0,
            "%");
    out.set("preprocess.frame_ms", tracer.median_ms("preprocess"), "ms");
    out.set("interpreter.invoke_ms", median(edge_invokes.invoke_ms), "ms");
    out.set("interpreter.invoke_p99_ms",
            percentile(edge_invokes.invoke_ms, 0.99), "ms");
    out.set("interpreter.ref_invoke_ms", median(ref_invokes.invoke_ms), "ms");
    std::vector<double> gap;
    for (std::size_t i = 0; i < edge_invokes.step_gap_ms.size(); ++i) {
      gap.push_back(edge_invokes.step_gap_ms[i] + ref_invokes.step_gap_ms[i]);
    }
    out.set("interpreter.step_gap_ms", median(gap), "ms");
    out.set("core.monitor_stop_ms", tracer.median_ms("monitor_stop"), "ms");
    out.set("core.finish_spool_ms", tracer.median_ms("core.finish_spool"),
            "ms");
    out.set("core.spool_bytes_per_frame", trace_mb * 1e6 / kFramesPerCycle,
            "B");
    out.set("core.trace_load_ms", tracer.median_ms("core.trace_load"), "ms");
    out.set("core.per_layer_drift_ms", tracer.median_ms("core.per_layer_drift"),
            "ms");
    out.set("core.assertions_ms", tracer.median_ms("core.assertions"), "ms");
    out.set("core.report_ms", tracer.median_ms("report"), "ms");
    out.set("core.trace_mb", trace_mb, "MB");
    out.set_kib("interpreter.prepared_kb",
                rig.edge.model->prepared_bytes() +
                    rig.reference.model->prepared_bytes());
    out.set_kib("interpreter.activation_kb",
                rig.edge.session->activation_bytes() +
                    rig.reference.session->activation_bytes());
    out.set_kib("interpreter.arena_hw_kb",
                rig.edge.session->last_stats().arena_high_water_bytes +
                    rig.reference.session->last_stats().arena_high_water_bytes);
    emit_kernel_ledger(out, "kernels", rig.edge.model->graph(), edge_before,
                       edge_after, true);
    emit_kernel_ledger(out, "kernels_ref", rig.reference.model->graph(),
                       ref_before, ref_after, false);
    tracer.dump(config.work_dir / "spans.jsonl");
  }
  return out;
}

}  // namespace perfbench
