#include "perfbench/src/frame.h"

#include "src/train/train_loop.h"

namespace perfbench {

using namespace mlexray;

int run_frame(FrameRig& rig, const Tensor& sensor, Tracer& tracer,
              std::uint64_t op, std::uint32_t parent, InvokeSamples& samples) {
  EdgeMLMonitor& mon = *rig.monitor;
  Session& session = *rig.session;
  Tensor input;
  {
    ScopedSpan span(tracer, "preprocess", op, parent);
    mon.log_tensor(trace_keys::kSensorRaw, sensor);
    input = run_image_pipeline(sensor, rig.preprocess);
    mon.log_tensor(trace_keys::kPreprocessOut, input);
    mon.log_tensor(trace_keys::kModelInput, input);
  }
  session.set_input(0, input);
  mon.on_inf_start();
  {
    const Clock::time_point start = Clock::now();
    session.invoke();
    const Clock::time_point end = Clock::now();
    if (tracer.enabled()) {
      tracer.record("invoke", op, parent, start, end);
      double node_sum = 0.0;
      for (double ms : session.last_stats().per_node_ms) node_sum += ms;
      samples.invoke_ms.push_back(ms_between(start, end));
      samples.step_gap_ms.push_back(ms_between(start, end) - node_sum);
    }
  }
  ScopedSpan span(tracer, "monitor_stop", op, parent);
  mon.on_inf_stop(session);
  const int label = argmax(session.output(0));
  mon.log_scalar(trace_keys::kPredictedLabel, label);
  mon.next_frame();
  return label;
}

}  // namespace perfbench
