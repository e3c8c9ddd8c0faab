// edge_app: the deployed, instrumented on-device app of the paper's Fig 1
// and Table 2. A closed loop on one thread pushes seeded sensor frames
// through run_image_pipeline and a batch-1 int8 MobileNetV3-mini session
// (optimized kernels, one thread) while an EdgeMLMonitor captures per-layer
// latency and digests and spools every frame to .mlxtrace files, rotated
// every kSegmentFrames frames as a deployed app rotates its log.
//
// Exercised: int8 kernels at batch 1, preprocessing, push-path capture and
// the spool writer. Not exercised: the front door, reference kernels,
// trace reading and validation.
#include <filesystem>
#include <memory>

#include "perfbench/src/checks.h"
#include "perfbench/src/frame.h"

namespace perfbench {

using namespace mlexray;

namespace {

constexpr const char* kModel = "mobilenet_v3_mini";
constexpr const char* kPipeline = "edge_app";
// One parity sample every kSampleEvery frames, at most kMaxSamples.
constexpr std::int64_t kSampleEvery = 61;
constexpr std::size_t kMaxSamples = 48;
constexpr int kWarmupFrames = 8;

struct EdgeApp {
  std::unique_ptr<Model> model;
  std::unique_ptr<Session> session;
  // Declared after the session: destroyed first, detaching itself.
  std::unique_ptr<EdgeMLMonitor> monitor;

  void tear_down() {
    monitor->finish_spool();
    monitor.reset();
    session.reset();
    model.reset();
  }
};

EdgeApp set_up(const std::vector<Tensor>& calibration,
               const OpResolver& resolver, const std::filesystem::path& spool,
               Tracer& tracer, std::uint64_t repeat) {
  ScopedSpan root(tracer, "setup", repeat);
  Graph f32 = build_f32_model(kModel, 1, tracer, repeat, root.id());
  Graph quantized =
      quantize_on_frames(f32, calibration, tracer, repeat, root.id());
  EdgeApp app;
  {
    ScopedSpan span(tracer, "interpreter.prepare", repeat, root.id());
    app.model = std::make_unique<Model>(std::move(quantized), &resolver, 1);
    app.session = std::make_unique<Session>(app.model.get());
  }
  ScopedSpan span(tracer, "core.monitor_bind", repeat, root.id());
  MonitorOptions options;
  options.per_layer_latency = true;
  options.per_layer_digests = true;
  options.log_model_io = true;
  options.retain_frames = false;
  app.monitor = std::make_unique<EdgeMLMonitor>(options);
  app.monitor->set_pipeline_name(kPipeline);
  app.monitor->spool_to(spool);
  app.monitor->observe(*app.session);
  return app;
}

struct Samples {
  std::vector<std::size_t> sensor_index;
  std::vector<Tensor> outputs;
};

// Windows for the run-level frame statistics: about 1000 frames each.
constexpr double kWindowS = 1.0;

// A frame spools about 71 KB (raw sensor frame, preprocessed input, model
// input, digests), so a segment stays near 9 MB however long the run is.
constexpr std::size_t kSegmentFrames = 128;

// The rotating spool. Each closed segment is checked against the frames
// that ran while it was open and then deleted.
struct Spool {
  std::filesystem::path path;
  std::size_t first = 0;  // index into the run's labels of the open segment
  double bytes = 0.0;     // over all closed segments
  std::string failure;    // the first failed segment check
};

// Closes the open segment (a core.finish_spool span), checks and deletes
// it, and with `reopen` starts the next one. Returns the time spent checking
// and deleting, which is the benchmark's, not the app's.
Clock::duration rotate(EdgeApp& app, Spool& spool,
                       const std::vector<int>& labels_run, Tracer& tracer,
                       bool reopen) {
  {
    ScopedSpan span(tracer, "core.finish_spool", labels_run.size());
    app.monitor->finish_spool();
  }
  const Clock::time_point start = Clock::now();
  spool.bytes += static_cast<double>(std::filesystem::file_size(spool.path));
  if (spool.failure.empty()) {
    const std::vector<int> labels(
        labels_run.begin() + static_cast<std::ptrdiff_t>(spool.first),
        labels_run.end());
    spool.failure = check_spooled_frames(
        spool.path, kPipeline, static_cast<int>(spool.first), labels);
  }
  std::filesystem::remove(spool.path);
  spool.first = labels_run.size();
  const Clock::duration checking = Clock::now() - start;
  if (reopen) app.monitor->spool_to(spool.path);
  return checking;
}

// The calibration loop is sampled every kCalibrateEvery frames (about 30
// times a second, about 1% of the frame time).
constexpr std::size_t kCalibrateEvery = 32;

// Closed loop for `seconds`, not counting the segment checks and the
// calibration samples.
Timeline run_loop(EdgeApp& app, FrameRig& rig, const SensorSet& sensors,
                  double seconds, Tracer& tracer, std::vector<int>& labels_run,
                  Samples& samples, InvokeSamples& invokes, Spool& spool) {
  Timeline loop;
  loop.ms.reserve(static_cast<std::size_t>(seconds * 20000.0) + 16);
  loop.end_s.reserve(loop.ms.capacity());
  Clock::time_point stop =
      loop.begin + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
  while (Clock::now() < stop) {
    const auto n = static_cast<std::int64_t>(labels_run.size());
    const std::size_t idx = static_cast<std::size_t>(n) % sensors.frames.size();
    const Clock::time_point start = Clock::now();
    int label = 0;
    {
      ScopedSpan frame(tracer, "frame", static_cast<std::uint64_t>(n));
      label = run_frame(rig, sensors.frames[idx], tracer,
                        static_cast<std::uint64_t>(n), frame.id(), invokes);
    }
    loop.add(start, Clock::now());
    labels_run.push_back(label);
    if (n % kSampleEvery == 0 && samples.outputs.size() < kMaxSamples) {
      samples.sensor_index.push_back(idx);
      samples.outputs.push_back(app.session->output(0));
    }
    if (labels_run.size() % kCalibrateEvery == 0) stop += loop.calibrate();
    if (labels_run.size() - spool.first == kSegmentFrames) {
      const Clock::duration checking =
          rotate(app, spool, labels_run, tracer, true);
      loop.begin += checking;
      stop += checking;
    }
  }
  return loop;
}

}  // namespace

WorkloadResult run_edge_app(const RunConfig& config) {
  WorkloadResult out;
  Tracer tracer(config.trace);

  // Inputs: generated before set-up, not part of it.
  const SensorSet sensors = make_sensor_set(20, config.seed);
  const std::vector<Tensor> calibration = calibration_frames();
  const BuiltinOpResolver resolver;
  Spool spool;
  spool.path = config.work_dir / "edge_app.mlxtrace";

  EdgeApp app;
  const double setup_s =
      timed_setup(app, [&](std::uint64_t repeat) {
        return set_up(calibration, resolver, spool.path, tracer, repeat);
      });

  FrameRig rig;
  rig.session = app.session.get();
  rig.monitor = app.monitor.get();
  rig.preprocess =
      ImagePipelineConfig{app.model->graph().input_spec, PreprocBug::kNone};

  std::vector<int> labels_run;
  Samples samples;
  InvokeSamples invokes;
  {
    // Warm-up: capture ring, arena and caches reach their steady state.
    Tracer off(false);
    for (int i = 0; i < kWarmupFrames; ++i) {
      const Tensor& frame = sensors.frames[static_cast<std::size_t>(i)];
      labels_run.push_back(run_frame(rig, frame, off, 0, 0, invokes));
    }
  }

  Timeline untraced;
  Timeline timed;
  Ledger ledger_before;
  if (config.trace) {
    // A quarter of the run untraced, the rest traced: the difference is the
    // tracing overhead.
    tracer.set_enabled(false);
    untraced = run_loop(app, rig, sensors, config.seconds * 0.25, tracer,
                        labels_run, samples, invokes, spool);
    tracer.set_enabled(true);
    ledger_before = ledger_snapshot(*app.session);
    timed = run_loop(app, rig, sensors, config.seconds * 0.75, tracer,
                     labels_run, samples, invokes, spool);
  } else {
    timed = run_loop(app, rig, sensors, config.seconds, tracer, labels_run,
                     samples, invokes, spool);
  }
  const double rss_mb = peak_rss_mb();
  rotate(app, spool, labels_run, tracer, false);

  // --- correctness -----------------------------------------------------------
  std::vector<Tensor> sample_inputs;
  for (std::size_t idx : samples.sensor_index) {
    sample_inputs.push_back(
        run_image_pipeline(sensors.frames[idx], rig.preprocess));
  }
  for (const std::string& failure :
       {check_int8_parity(app.model->graph(), sample_inputs, samples.outputs),
        spool.failure}) {
    if (!failure.empty()) out.check_failures.push_back(failure);
  }

  // --- metrics ---------------------------------------------------------------
  out.attempted = static_cast<std::int64_t>(labels_run.size());
  out.failed = 0;
  out.set("setup_s", setup_s, "s");
  out.set("peak_rss_mb", rss_mb, "MB");
  out.set("ok_ratio", 1.0, "ratio");
  out.set("p50_ms",
          window_percentile(timed.end_s, timed.ms, kWindowS, timed.span_s(),
                            0.50, timed.speed),
          "ms");
  out.set("op.p90_ms",
          window_percentile(timed.end_s, timed.ms, kWindowS, timed.span_s(),
                            0.90, timed.speed),
          "ms");
  out.set("ops_per_s", window_rate(timed.end_s, kWindowS, timed.span_s(), timed.speed),
          "1/s");

  if (config.trace) {
    emit_per_layer_base(out, tracer);
    out.set("op.raw_p50_ms", median(timed.ms), "ms");
    out.set("host.slowdown", timed.speed.slowdown(), "ratio");
    out.set("op.p99_ms", percentile(timed.ms, 0.99), "ms");
    out.set("tracing.overhead_pct",
            (median(timed.ms) / median(untraced.ms) - 1.0) * 100.0, "%");
    out.set("preprocess.frame_ms", tracer.median_ms("preprocess"), "ms");
    out.set("interpreter.invoke_ms", median(invokes.invoke_ms), "ms");
    out.set("interpreter.invoke_p99_ms", percentile(invokes.invoke_ms, 0.99),
            "ms");
    out.set("interpreter.step_gap_ms", median(invokes.step_gap_ms), "ms");
    out.set("core.monitor_stop_ms", tracer.median_ms("monitor_stop"), "ms");
    out.set("core.finish_spool_ms", tracer.median_ms("core.finish_spool"),
            "ms");
    out.set("core.spool_bytes_per_frame",
            spool.bytes / static_cast<double>(labels_run.size()), "B");
    out.set_kib("interpreter.prepared_kb", app.model->prepared_bytes());
    out.set_kib("interpreter.activation_kb", app.session->activation_bytes());
    out.set_kib("interpreter.arena_hw_kb",
                app.session->last_stats().arena_high_water_bytes);
    emit_kernel_ledger(out, "kernels", app.model->graph(), ledger_before,
                       ledger_snapshot(*app.session), true);
    tracer.dump(config.work_dir / "spans.jsonl");
  }
  return out;
}

}  // namespace perfbench
