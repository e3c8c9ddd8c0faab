// The instrumented sensor-frame -> label step shared by edge_app and
// debug_session: the same calls ClassificationPipeline::process_frame makes,
// issued here so the benchmark can put a span around each of them.
#pragma once

#include "perfbench/src/bench.h"
#include "src/core/monitor.h"
#include "src/preprocess/image.h"

namespace perfbench {

struct FrameRig {
  mlexray::Session* session = nullptr;
  mlexray::EdgeMLMonitor* monitor = nullptr;
  mlexray::ImagePipelineConfig preprocess;
};

// Per-invoke samples collected while tracing.
struct InvokeSamples {
  std::vector<double> invoke_ms;
  // Invoke wall time minus the summed per-node kernel time: the plan walk
  // plus observer capture.
  std::vector<double> step_gap_ms;
};

// Runs one frame and returns the predicted label. With tracing on it
// records preprocess / invoke / monitor spans under `parent` and appends to
// `samples`.
int run_frame(FrameRig& rig, const mlexray::Tensor& sensor, Tracer& tracer,
              std::uint64_t op, std::uint32_t parent, InvokeSamples& samples);

}  // namespace perfbench
