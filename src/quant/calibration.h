// Post-training-quantization calibration: per-node activation ranges
// profiled over a representative dataset.
//
// Implements the three strategies discussed in the paper's §2 scale-
// calibration pitfalls: absolute min/max (outliers inflate the scale),
// moving average of per-batch extremes (momentum 0.9), and percentile
// (clips outliers). The quantization ablation bench sweeps these against
// each other.
//
// The calibrator runs the float model on reference kernels and records each
// node's extremes as the session pushes the output through on_step, while
// the activation is live; model input i is summarized from the sample that
// observe() was handed for it.
#pragma once

#include <vector>

#include "src/interpreter/invoke_observer.h"
#include "src/interpreter/session.h"

namespace mlexray {

struct CalibrationOptions {
  enum class Method { kMinMax, kMovingAverage, kPercentile };
  Method method = Method::kMinMax;
  double percentile = 99.5;  // for kPercentile (per-sample extremes)
};

class Calibrator : private InvokeObserver {
 public:
  // model must be a converted float inference model and outlive this object.
  Calibrator(const Graph* model, CalibrationOptions options = {});

  // Runs one representative sample (one tensor per model input, in
  // graph.input_ids() order) through the float model and records every
  // node's output extremes.
  void observe(const std::vector<Tensor>& inputs);

  struct Range {
    float min = 0.0f;
    float max = 0.0f;
  };

  // Finalized range for a node under the configured method.
  Range range(int node_id) const;

  int samples_seen() const { return samples_; }

 private:
  void on_step(const Node& node, const Tensor& output,
               double latency_ms) override;
  // Folds one sample's extremes of `value` into node_id's statistics.
  void record(int node_id, const Tensor& value);

  CalibrationOptions options_;
  RefOpResolver resolver_;  // calibration uses reference float kernels
  Model model_;
  Session session_;  // must be declared after model_ (init order)
  // Per node: per-sample extremes (percentile), running EMA, global min/max.
  std::vector<std::vector<float>> sample_mins_;
  std::vector<std::vector<float>> sample_maxs_;
  std::vector<float> ema_min_;
  std::vector<float> ema_max_;
  std::vector<float> global_min_;
  std::vector<float> global_max_;
  int samples_ = 0;
};

}  // namespace mlexray
