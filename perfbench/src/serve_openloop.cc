// serve_openloop: the FrontDoor serving path under an open loop. One
// generator thread submits Poisson arrivals through
// FrontDoor::submit_async (two scheduler workers) onto an Engine with
// num_threads=2 serving MobileNetV3-mini f32 as a batch-1 and a batch-8
// variant. Two phases run at fixed absolute rates (serve.h): `nominal`,
// below the knee, and `overload`, about twice past it on the 4-core host the
// rates were chosen on. The rates are constants, never derived from a
// capacity probe, so a faster program meets the same offered load.
//
// Every request is timed from when it was due, so a generator stall counts
// against the server's latency, and the generator's own lateness is
// reported; a phase whose generator fell behind is marked invalid.
//
// Exercised: batching, admission and shedding, the shared thread pool and
// f32 kernels at batch > 1. Not exercised: preprocessing, capture, traces.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

#include "perfbench/src/bench.h"
#include "perfbench/src/checks.h"
#include "perfbench/src/serve.h"
#include "src/common/rng.h"

namespace perfbench {

using namespace mlexray;

std::vector<Arrival> make_schedule(double qps, double seconds,
                                   std::uint32_t inputs, std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<Arrival> out;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.next_double()) / qps;
    if (t >= seconds) break;
    out.push_back(Arrival{t, rng.next_below(inputs)});
  }
  return out;
}

std::vector<Tensor> make_serve_inputs(std::uint64_t seed) {
  constexpr int kDistinctInputs = 64;
  Pcg32 rng(seed);
  std::vector<Tensor> inputs;
  for (int i = 0; i < kDistinctInputs; ++i) {
    Tensor t = Tensor::f32(Shape{1, 32, 32, 3});  // the zoo's input shape
    float* p = t.data<float>();
    for (std::int64_t k = 0; k < t.num_elements(); ++k) {
      p[k] = rng.uniform(-1.0f, 1.0f);
    }
    inputs.push_back(std::move(t));
  }
  return inputs;
}

namespace {

constexpr const char* kModel = "mobilenet_v3_mini";
constexpr const char* kVariantB1 = "mobilenet_v3_mini/f32";
constexpr const char* kVariantB8 = "mobilenet_v3_mini/f32@b8";
// One sampled row every kSampleEvery requests, at most kMaxSamples per run.
constexpr std::size_t kSampleEvery = 37;
constexpr std::size_t kMaxSamples = 64;
constexpr std::size_t kQueueCapacity = 64;
constexpr double kMaxWaitMs = 1.0;
constexpr double kWarmupQps = 200.0;
constexpr int kWarmupRequests = 32;
// The nominal phase gets the larger share of the run: its latency
// percentiles need the samples. Windows of 1 s: about 150 nominal requests,
// so fifteen beyond the p90.
constexpr double kNominalShare = 0.7;
constexpr double kWindowS = 1.0;
// A phase is valid when the generator kept to its schedule: its p99
// lateness stays within kMaxLateMs and it offered at least kMinOffered of
// the scheduled rate.
constexpr double kMaxLateMs = 2.0;
constexpr double kMinOffered = 0.97;
// Where the calibration loop is sampled. Below the knee the workers sit idle
// between requests and the generator waits, so the generator samples it
// while it waits for a request due at least kCalibrateGapMs later. Under
// overload the workers do the work and the generator's core says little
// about theirs: the loop is sampled on the worker threads, in the
// completion callback, at most once per kCalibratePeriodMs (after one pass
// to bring its tables back into the cache the model's weights evicted them
// from).
constexpr double kCalibrateGapMs = 2.0;
constexpr double kCalibratePeriodMs = 25.0;

struct Serving {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<FrontDoor> door;  // must go before the engine

  void tear_down() {
    door.reset();
    engine.reset();
  }
};

// Builds the model's batch variants, loads them and registers them with the
// front door. Variant registration lives only here.
Serving set_up(const OpResolver& resolver, Tracer& tracer,
               std::uint64_t repeat) {
  ScopedSpan root(tracer, "setup", repeat);
  Graph b1 = build_f32_model(kModel, 1, tracer, repeat, root.id());
  Graph b8 = build_f32_model(kModel, 8, tracer, repeat, root.id());
  Serving s;
  {
    ScopedSpan span(tracer, "engine.load", repeat, root.id());
    s.engine = std::make_unique<Engine>(&resolver, 2);
    s.engine->load(kVariantB1, std::move(b1));
    s.engine->load(kVariantB8, std::move(b8));
  }
  s.door = std::make_unique<FrontDoor>(s.engine.get(),
                                       FrontDoorOptions{.workers = 2});
  FrontDoorModelOptions options;
  options.queue_capacity = kQueueCapacity;
  options.max_wait_ms = kMaxWaitMs;
  options.variants = {{1, kVariantB1}, {8, kVariantB8}};
  s.door->register_model(kModel, options);
  return s;
}

struct Phase;

// One request's life, written by the generator (due, submit) and by the
// completing scheduler thread (the rest); read after the phase drained.
struct Request {
  Clock::time_point due{};
  Clock::time_point submitted{};
  Clock::time_point submit_returned{};
  Clock::time_point done{};
  RequestCode code = RequestCode::kUnknownModel;
  bool admitted = false;
  double queue_us = 0.0;
  double latency_us = 0.0;
  std::uint32_t input = 0;
  Tensor* sample_row = nullptr;  // receives output 0 when sampled
  Phase* phase = nullptr;
};

struct Phase {
  const char* name = "";
  bool calibrate_on_workers = false;
  double seconds = 0.0;
  std::vector<Arrival> schedule;
  std::vector<Request> requests;
  std::atomic<std::int64_t> completed{0};
  std::int64_t admitted = 0;
  Clock::time_point start{};
  Clock::time_point last_submit{};
  // Written by the generator or the completion callbacks, under speed_mu.
  HostSpeed speed;
  std::mutex speed_mu;
  std::atomic<Clock::rep> next_calibration{0};
  FrontDoorStats stats_before;
  FrontDoorStats stats_after;
};

// Samples the calibration loop on the calling worker thread, if the phase
// is due a sample.
void maybe_calibrate(Phase& phase, Clock::time_point now) {
  if (!phase.calibrate_on_workers) return;
  const Clock::rep t = now.time_since_epoch().count();
  Clock::rep due = phase.next_calibration.load(std::memory_order_relaxed);
  if (t < due) return;
  const Clock::rep next =
      t + std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double, std::milli>(kCalibratePeriodMs))
              .count();
  if (!phase.next_calibration.compare_exchange_strong(due, next)) return;
  calibration_ms();  // the inference evicted its tables: warm them first
  const double ms = calibration_ms();
  std::lock_guard<std::mutex> lock(phase.speed_mu);
  phase.speed.ms.push_back(ms);
  phase.speed.at_s.push_back(ms_between(phase.start, now) / 1000.0);
}

void on_done(void* ctx, const RequestResult& r) {
  auto* req = static_cast<Request*>(ctx);
  req->done = Clock::now();
  req->code = r.code;
  req->queue_us = r.queue_us;
  req->latency_us = r.latency_us;
  if (r.code == RequestCode::kOk && req->sample_row != nullptr) {
    std::memcpy(req->sample_row->raw_data(), r.outputs[0].raw_data(),
                req->sample_row->byte_size());
  }
  maybe_calibrate(*req->phase, req->done);
  req->phase->completed.fetch_add(1, std::memory_order_release);
}

double ms_from_due(const Request& r) { return ms_between(r.due, r.done); }
bool ok_in_time(const Request& r) {
  return r.code == RequestCode::kOk && ms_from_due(r) <= kServeDeadlineMs;
}
bool errored(const Request& r) {
  return r.code == RequestCode::kError || r.code == RequestCode::kUnknownModel;
}
double seconds_since(Clock::time_point origin, Clock::time_point t) {
  return ms_between(origin, t) / 1000.0;
}

// Sampled OK rows for the row-independence check. Rows are reserved up
// front: callbacks write through pointers into this vector.
struct Sampler {
  std::vector<Tensor> rows;
  std::vector<std::uint32_t> inputs;
  std::vector<const Request*> owners;
  std::size_t seen = 0;
};

void run_phase(Serving& s, Phase& phase, const std::vector<Tensor>& inputs,
               const Shape& row_shape, Sampler& sampler) {
  phase.requests.resize(phase.schedule.size());
  for (std::size_t i = 0; i < phase.schedule.size(); ++i) {
    Request& req = phase.requests[i];
    req.phase = &phase;
    req.input = phase.schedule[i].input;
    if (sampler.seen++ % kSampleEvery == 0 &&
        sampler.rows.size() < kMaxSamples) {
      sampler.rows.push_back(Tensor::f32(row_shape));
      sampler.inputs.push_back(req.input);
      sampler.owners.push_back(&req);
      req.sample_row = &sampler.rows.back();
    }
  }
  phase.stats_before = s.door->stats(kModel);
  phase.start = Clock::now() + std::chrono::milliseconds(1);
  for (std::size_t i = 0; i < phase.schedule.size(); ++i) {
    Request& req = phase.requests[i];
    req.due = phase.start +
              std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(phase.schedule[i].due_s));
    if (!phase.calibrate_on_workers &&
        ms_between(Clock::now(), req.due) >= kCalibrateGapMs) {
      std::lock_guard<std::mutex> lock(phase.speed_mu);
      phase.speed.sample(seconds_since(phase.start, Clock::now()));
    }
    std::this_thread::sleep_until(req.due);
    req.submitted = Clock::now();
    // The deadline runs from the due time: a late submission has less left.
    const double budget_ms =
        std::max(0.001, kServeDeadlineMs - ms_between(req.due, req.submitted));
    const RequestCode code = s.door->submit_async(
        kModel, inputs[req.input], budget_ms, /*priority=*/0, on_done, &req);
    req.submit_returned = Clock::now();
    if (code == RequestCode::kOk) {
      req.admitted = true;
      ++phase.admitted;
    } else {
      req.code = code;
      req.done = req.submitted;
    }
  }
  phase.last_submit = Clock::now();
  // Drain: every admitted request reaches its terminal callback. One that
  // never does fails the accounting check.
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(30);
  while (phase.completed.load(std::memory_order_acquire) < phase.admitted &&
         Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  phase.stats_after = s.door->stats(kModel);

}

struct LoadSummary {
  double late_p99_ms = 0.0;
  double offered_qps = 0.0;
  bool valid = true;
};

// How late the generator ran and what rate it offered against its schedule.
LoadSummary summarize_load(const Phase& phase) {
  LoadSummary out;
  std::vector<double> late;
  for (const Request& r : phase.requests) {
    late.push_back(ms_between(r.due, r.submitted));
  }
  out.late_p99_ms = percentile(late, 0.99);
  const auto n = static_cast<double>(phase.schedule.size());
  out.offered_qps = n / seconds_since(phase.start, phase.last_submit);
  const double planned_qps = n / std::max(1e-9, phase.schedule.back().due_s);
  out.valid = out.late_p99_ms <= kMaxLateMs &&
              out.offered_qps >= kMinOffered * planned_qps;
  if (!out.valid) {
    std::fprintf(stderr,
                 "perfbench: phase %s INVALID: generator fell behind (late "
                 "p99 %.3f ms, offered %.1f of %.1f req/s)\n",
                 phase.name, out.late_p99_ms, out.offered_qps, planned_qps);
  }
  return out;
}

void tally(RequestTally& t, const Phase& phase) {
  for (const Request& r : phase.requests) {
    ++t.submitted;
    switch (r.code) {
      case RequestCode::kOk: ++t.ok; break;
      case RequestCode::kShed: ++t.shed; break;
      case RequestCode::kQueueFull:
      case RequestCode::kDeadlineInfeasible:
      case RequestCode::kBreakerOpen: ++t.rejected; break;
      case RequestCode::kDeadlineExceeded: ++t.deadline_exceeded; break;
      case RequestCode::kError: ++t.failed; break;
      case RequestCode::kUnknownModel: ++t.unknown; break;
    }
  }
}

// Spans of each request, built after the phase from its timestamps (the
// completion side runs on scheduler threads, which never touch the tracer).
void record_spans(Tracer& tracer, const Phase& phase, std::uint64_t& next_op) {
  const std::uint32_t phase_span =
      tracer.record(phase.name, 0, 0, phase.start, phase.last_submit);
  for (const Request& r : phase.requests) {
    const std::uint64_t op = next_op++;
    const std::uint32_t root =
        tracer.record("request", op, phase_span, r.due, r.done);
    tracer.record("loadgen.late", op, root, r.due, r.submitted);
    tracer.record("front_door.submit_async", op, root, r.submitted,
                  r.submit_returned);
    if (!r.admitted) continue;
    const auto queued = std::chrono::duration<double, std::micro>(r.queue_us);
    const Clock::time_point dispatched =
        r.submitted + std::chrono::duration_cast<Clock::duration>(queued);
    tracer.record("front_door.queue", op, root, r.submitted, dispatched);
    tracer.record("front_door.service", op, root, dispatched, r.done);
  }
}

// Per-variant kernel ledger, outside the timed phases: `reps` invokes on a
// pooled session of `variant` with rows drawn from `inputs`. Returns the
// invoke times.
std::vector<double> ledger_pass(WorkloadResult& out, Engine& engine,
                                const char* variant, const char* prefix,
                                const std::vector<Tensor>& inputs, int reps,
                                std::size_t& activation_bytes,
                                std::size_t& arena_bytes) {
  SessionLease lease = engine.acquire(variant);
  Tensor& input = lease->mutable_input(0);
  const std::size_t row_bytes = inputs[0].byte_size();
  for (std::int64_t b = 0; b < input.shape().dim(0); ++b) {
    const auto row = static_cast<std::size_t>(b);
    std::memcpy(static_cast<std::uint8_t*>(input.raw_data()) + row * row_bytes,
                inputs[row % inputs.size()].raw_data(), row_bytes);
  }
  lease->invoke();
  const Ledger before = ledger_snapshot(*lease);
  std::vector<double> invoke_ms;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point start = Clock::now();
    lease->invoke();
    invoke_ms.push_back(ms_between(start, Clock::now()));
  }
  emit_kernel_ledger(out, prefix, lease->graph(), before,
                     ledger_snapshot(*lease), true);
  activation_bytes += lease->activation_bytes();
  arena_bytes =
      std::max(arena_bytes, lease->last_stats().arena_high_water_bytes);
  return invoke_ms;
}

}  // namespace

WorkloadResult run_serve_openloop(const RunConfig& config) {
  WorkloadResult out;
  Tracer tracer(config.trace);

  const std::vector<Tensor> inputs = make_serve_inputs(config.seed);
  const auto pool = static_cast<std::uint32_t>(inputs.size());
  // Phases: warm-up, then one nominal + overload pair per segment (a traced
  // run adds an untraced quarter-length pair first). Declared before the
  // front door, which completes any straggler into them when destroyed.
  Phase warmup;
  Phase phases[4];
  Sampler sampler;
  sampler.rows.reserve(kMaxSamples);
  warmup.name = "warmup";
  warmup.schedule = make_schedule(kWarmupQps, kWarmupRequests / kWarmupQps,
                                  pool, config.seed ^ 0x3a11ULL);
  const double scales[2] = {config.trace ? 0.25 : 0.0,
                            config.trace ? 0.75 : 1.0};
  for (int seg = 0; seg < 2; ++seg) {
    Phase& nominal = phases[2 * seg];
    Phase& overload = phases[2 * seg + 1];
    nominal.name = "nominal";
    overload.name = "overload";
    overload.calibrate_on_workers = true;
    nominal.seconds = config.seconds * scales[seg] * kNominalShare;
    overload.seconds = config.seconds * scales[seg] * (1.0 - kNominalShare);
    if (scales[seg] == 0.0) continue;
    nominal.schedule = make_schedule(kNominalQps, nominal.seconds, pool,
                                     config.seed * 2 + seg);
    overload.schedule = make_schedule(kOverloadQps, overload.seconds, pool,
                                      config.seed * 2 + seg + 0x9e37ULL);
  }

  const BuiltinOpResolver resolver;
  Serving serving;
  const double setup_s = timed_setup(serving, [&](std::uint64_t repeat) {
    return set_up(resolver, tracer, repeat);
  });
  const Graph& b1_graph = serving.engine->find(kVariantB1)->graph();
  const Shape row_shape = b1_graph.node(b1_graph.outputs[0]).output_shape;

  run_phase(serving, warmup, inputs, row_shape, sampler);
  for (int seg = 0; seg < 2; ++seg) {
    if (scales[seg] == 0.0) continue;
    tracer.set_enabled(config.trace && seg == 1);
    run_phase(serving, phases[2 * seg], inputs, row_shape, sampler);
    run_phase(serving, phases[2 * seg + 1], inputs, row_shape, sampler);
  }
  const double rss_mb = peak_rss_mb();
  const Phase& nominal = phases[2];
  const Phase& overload = phases[3];

  // --- correctness --------------------------------------------------------
  RequestTally t;
  tally(t, warmup);
  for (const Phase& p : phases) tally(t, p);
  std::vector<const Tensor*> row_inputs;
  std::vector<Tensor> rows;
  for (std::size_t i = 0; i < sampler.rows.size(); ++i) {
    if (sampler.owners[i]->code != RequestCode::kOk) continue;
    row_inputs.push_back(&inputs[sampler.inputs[i]]);
    rows.push_back(sampler.rows[i]);
  }
  {
    SessionLease batch1 = serving.engine->acquire(kVariantB1);
    for (const std::string& failure :
         {check_accounting(t, serving.door->stats(kModel)),
          check_rows_bitwise(*batch1, row_inputs, rows)}) {
      if (!failure.empty()) out.check_failures.push_back(failure);
    }
  }

  // --- metrics ------------------------------------------------------------
  for (const Phase& p : phases) {
    for (const Request& r : p.requests) {
      ++out.attempted;
      // Refused, shed and late requests count against ok_ratio and goodput;
      // only requests the program failed to serve at all count as failed.
      if (errored(r)) ++out.failed;
    }
  }
  std::vector<double> latency_ms, due_s, queue_ms, service_ms;
  std::int64_t nominal_ok = 0;
  for (const Request& r : nominal.requests) {
    if (ok_in_time(r)) ++nominal_ok;
    if (r.code != RequestCode::kOk) continue;
    latency_ms.push_back(ms_from_due(r));
    due_s.push_back(seconds_since(nominal.start, r.due));
    queue_ms.push_back(r.queue_us / 1000.0);
    service_ms.push_back((r.latency_us - r.queue_us) / 1000.0);
  }
  std::uint64_t goodput = 0, shed = 0, rejected = 0, late = 0, errors = 0;
  std::vector<double> goodput_due_s;
  for (const Request& r : overload.requests) {
    if (ok_in_time(r)) {
      ++goodput;
      goodput_due_s.push_back(seconds_since(overload.start, r.due));
    } else if (r.code == RequestCode::kOk ||
               r.code == RequestCode::kDeadlineExceeded) {
      ++late;
    }
    if (r.code == RequestCode::kShed) ++shed;
    if (request_rejected(r.code)) ++rejected;
    if (errored(r)) ++errors;
  }
  out.set("setup_s", setup_s, "s");
  out.set("peak_rss_mb", rss_mb, "MB");
  // Below the knee every request should be served in time; past it the
  // share lost is what goodput (ops_per_s) and front_door.ok_ratio measure.
  out.set("ok_ratio",
          static_cast<double>(nominal_ok) /
              static_cast<double>(nominal.requests.size()),
          "ratio");
  out.set("p50_ms",
          window_percentile(due_s, latency_ms, kWindowS, nominal.seconds, 0.50,
                            nominal.speed),
          "ms");
  out.set("op.p90_ms",
          window_percentile(due_s, latency_ms, kWindowS, nominal.seconds, 0.90,
                            nominal.speed),
          "ms");
  out.set("ops_per_s",
          window_rate(goodput_due_s, kWindowS, overload.seconds,
                      overload.speed),
          "1/s");

  const LoadSummary nominal_load = summarize_load(nominal);
  const LoadSummary overload_load = summarize_load(overload);
  if (!nominal_load.valid) out.invalid_phases.push_back("nominal");
  if (!overload_load.valid) out.invalid_phases.push_back("overload");

  if (config.trace) {
    emit_per_layer_base(out, tracer);
    out.set("op.raw_p50_ms", median(latency_ms), "ms");
    out.set("host.slowdown", nominal.speed.slowdown(), "ratio");
    std::vector<double> untraced_ms;
    for (const Request& r : phases[0].requests) {
      if (r.code == RequestCode::kOk) untraced_ms.push_back(ms_from_due(r));
    }
    out.set("op.p99_ms", percentile(latency_ms, 0.99), "ms");
    out.set("tracing.overhead_pct",
            (median(latency_ms) / median(untraced_ms) - 1.0) * 100.0, "%");
    out.set("front_door.queue_p50_ms", median(queue_ms), "ms");
    out.set("front_door.queue_p99_ms", percentile(queue_ms, 0.99), "ms");
    out.set("front_door.service_ms", median(service_ms), "ms");
    std::uint64_t batches = 0, coalesced = 0;
    const auto& hist_after = overload.stats_after.batch_size_hist;
    const auto& hist_before = overload.stats_before.batch_size_hist;
    for (std::size_t n = 1; n < hist_after.size(); ++n) {
      const std::uint64_t h = hist_after[n] - hist_before[n];
      batches += h;
      coalesced += h * n;
    }
    out.set("front_door.batch_mean",
            batches > 0 ? static_cast<double>(coalesced) /
                              static_cast<double>(batches)
                        : 0.0,
            "count");
    out.set("front_door.max_queue_depth",
            static_cast<double>(overload.stats_after.max_queue_depth), "count");
    out.set("front_door.shed", static_cast<double>(shed), "count");
    out.set("front_door.rejected", static_cast<double>(rejected), "count");
    out.set("front_door.deadline_exceeded", static_cast<double>(late),
            "count");
    out.set("front_door.failed", static_cast<double>(errors), "count");
    out.set("front_door.ok_ratio",
            static_cast<double>(goodput) /
                static_cast<double>(overload.requests.size()),
            "ratio");
    out.set("loadgen.late_p99_ms",
            std::max(nominal_load.late_p99_ms, overload_load.late_p99_ms),
            "ms");
    out.set("loadgen.nominal_offered_qps", nominal_load.offered_qps, "1/s");
    out.set("loadgen.overload_offered_qps", overload_load.offered_qps, "1/s");
    out.set("loadgen.valid", out.invalid_phases.empty() ? 1.0 : 0.0, "bool");

    std::size_t activation_bytes = 0, arena_bytes = 0;
    const std::vector<double> b1_ms =
        ledger_pass(out, *serving.engine, kVariantB1, "kernels", inputs, 200,
                    activation_bytes, arena_bytes);
    ledger_pass(out, *serving.engine, kVariantB8, "kernels_b8", inputs, 40,
                activation_bytes, arena_bytes);
    out.set("interpreter.invoke_ms", median(b1_ms), "ms");
    out.set("interpreter.invoke_p99_ms", percentile(b1_ms, 0.99), "ms");
    out.set_kib("interpreter.prepared_kb",
                serving.engine->prepared_bytes_total());
    out.set_kib("interpreter.activation_kb", activation_bytes);
    out.set_kib("interpreter.arena_hw_kb", arena_bytes);
    std::uint64_t next_op = 0;
    record_spans(tracer, nominal, next_op);
    record_spans(tracer, overload, next_op);
    tracer.dump(config.work_dir / "spans.jsonl");
  }
  return out;
}

}  // namespace perfbench
