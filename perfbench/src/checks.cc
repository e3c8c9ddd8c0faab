#include "perfbench/src/checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/interpreter/model.h"
#include "src/train/train_loop.h"

namespace perfbench {

using namespace mlexray;

namespace {

// One quantization step of a quantized model's dequantized output.
float output_quantum(const Graph& quantized) {
  const Node& out = quantized.node(quantized.outputs[0]);
  if (out.type == OpType::kDequantize) {
    return quantized.node(out.inputs[0]).output_quant.scale();
  }
  return out.output_quant.scale();
}

}  // namespace

std::string check_int8_parity(const Graph& quantized,
                              const std::vector<Tensor>& inputs,
                              const std::vector<Tensor>& outputs) {
  if (inputs.empty() || inputs.size() != outputs.size()) {
    return "int8 parity: no samples, or inputs/outputs differ in count";
  }
  const RefOpResolver ref_resolver;
  Model ref_model(&quantized, &ref_resolver);
  Session ref(&ref_model);
  const float quantum = output_quantum(quantized);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    ref.set_input(0, inputs[i]);
    ref.invoke();
    const Tensor want = ref.output(0).to_f32();
    const Tensor got = outputs[i].to_f32();
    if (want.num_elements() != got.num_elements()) {
      return "int8 parity: output size differs at sample " + std::to_string(i);
    }
    // The label must be the reference's argmax. The contract allows one
    // quantum of difference per element, so where the reference's top
    // classes lie within one quantum of each other (near-uniform softmax
    // outputs of random-weight models) any of them is the same decision.
    const int label = argmax(got);
    const float* w = want.data<float>();
    if (w[label] < w[argmax(want)] - 1.001f * quantum) {
      return "int8 parity: label " + std::to_string(label) +
             " is not the reference label " + std::to_string(argmax(want)) +
             " at sample " + std::to_string(i);
    }
    for (std::int64_t k = 0; k < want.num_elements(); ++k) {
      const float diff =
          std::fabs(want.data<float>()[k] - got.data<float>()[k]);
      if (!(diff <= 1.001f * quantum)) {
        std::ostringstream msg;
        msg << "int8 parity: |deployed - reference| = " << diff
            << " exceeds one quantum (" << quantum << ") at sample " << i
            << " element " << k;
        return msg.str();
      }
    }
  }
  return "";
}

std::string check_spooled_frames(const std::filesystem::path& spool,
                                 const std::string& pipeline_name,
                                 int first_id, const std::vector<int>& labels) {
  // The header must be the one the library's writer emits for this
  // pipeline: load_trace also accepts older wire versions, which a current
  // writer never produces.
  Trace empty;
  empty.pipeline_name = pipeline_name;
  const std::vector<std::uint8_t> header = serialize_trace(empty);
  const std::size_t count_at = trace_frame_count_offset(pipeline_name);
  std::vector<std::uint8_t> head(count_at);
  {
    std::ifstream in(spool, std::ios::binary);
    if (!in) return "spool reload: cannot open " + spool.string();
    in.read(reinterpret_cast<char*>(head.data()),
            static_cast<std::streamsize>(count_at));
    if (static_cast<std::size_t>(in.gcount()) != count_at ||
        !std::equal(head.begin(), head.end(), header.begin())) {
      return "spool reload: the header is not a current-version .mlxtrace "
             "header for pipeline '" + pipeline_name + "'";
    }
  }
  Trace trace;
  try {
    trace = load_trace(spool);
  } catch (const MlxError& e) {
    return std::string("spool reload: ") + e.what();
  }
  if (trace.frames.size() != labels.size()) {
    return "spool reload: " + std::to_string(trace.frames.size()) +
           " frames in the file, " + std::to_string(labels.size()) + " ran";
  }
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const FrameTrace& f = trace.frames[i];
    const int id = first_id + static_cast<int>(i);
    if (f.frame_id != id ||
        static_cast<int>(f.scalar(trace_keys::kPredictedLabel)) != labels[i]) {
      return "spool reload: frame " + std::to_string(id) +
             " has a different id or label than the frame that ran";
    }
  }
  return "";
}

std::string check_rows_bitwise(Session& batch1,
                               const std::vector<const Tensor*>& inputs,
                               const std::vector<Tensor>& rows) {
  if (inputs.empty() || inputs.size() != rows.size()) {
    return "row check: no sampled rows, or inputs/rows differ in count";
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    batch1.set_input(0, *inputs[i]);
    batch1.invoke();
    const Tensor& want = batch1.output(0);
    if (want.byte_size() != rows[i].byte_size() ||
        std::memcmp(want.raw_data(), rows[i].raw_data(), want.byte_size()) !=
            0) {
      return "row check: served row " + std::to_string(i) +
             " differs from its batch-1 session run (row independence "
             "violated: program defect)";
    }
  }
  return "";
}

std::string check_accounting(const RequestTally& t, const FrontDoorStats& s) {
  const std::uint64_t outcomes = t.ok + t.shed + t.rejected +
                                 t.deadline_exceeded + t.failed + t.unknown;
  if (outcomes != t.submitted) {
    return "accounting: " + std::to_string(t.submitted) + " submitted but " +
           std::to_string(outcomes) + " outcomes";
  }
  const std::uint64_t door_rejected = s.rejected_queue_full +
                                      s.rejected_infeasible +
                                      s.rejected_breaker_open;
  const std::uint64_t door_outcomes =
      s.completed_ok + s.shed + door_rejected + s.deadline_exceeded + s.failed +
      s.unknown_model + s.flushed_breaker_open;
  if (s.submitted != t.submitted || door_outcomes != s.submitted ||
      s.completed_ok != t.ok || s.shed != t.shed ||
      door_rejected + s.flushed_breaker_open != t.rejected ||
      s.deadline_exceeded != t.deadline_exceeded || s.failed != t.failed ||
      s.unknown_model != t.unknown) {
    return "accounting: front door counters (submitted " +
           std::to_string(s.submitted) + ", ok " +
           std::to_string(s.completed_ok) + ", shed " + std::to_string(s.shed) +
           ", rejected " + std::to_string(door_rejected) +
           ") disagree with the benchmark's tally (submitted " +
           std::to_string(t.submitted) + ", ok " + std::to_string(t.ok) +
           ", shed " + std::to_string(t.shed) + ", rejected " +
           std::to_string(t.rejected) + ")";
  }
  return "";
}

std::string check_reports_equal(const DebugReport& reloaded,
                                const DebugReport& in_memory) {
  if (reloaded.text != in_memory.text) {
    return "report: text from the reloaded traces differs from the in-memory "
           "report";
  }
  if (reloaded.first_suspect != in_memory.first_suspect ||
      reloaded.drift.size() != in_memory.drift.size() ||
      std::memcmp(reloaded.drift.data(), in_memory.drift.data(),
                  reloaded.drift.size() * sizeof(double)) != 0) {
    return "report: per-layer drift from the reloaded traces differs from the "
           "in-memory report";
  }
  return "";
}

std::string check_first_suspect(const PerLayerReport& report,
                                const Graph& quantized) {
  std::string first_dwconv;
  for (const Node& node : quantized.nodes) {
    if (node.type == OpType::kDepthwiseConv2D) {
      first_dwconv = node.name;
      break;
    }
  }
  if (first_dwconv.empty()) return "bug localization: no DepthwiseConv2D";
  const std::string got = report.first_suspect.value_or("<none>");
  if (got != first_dwconv) {
    return "bug localization: first suspect '" + got + "', expected '" +
           first_dwconv + "'";
  }
  return "";
}

}  // namespace perfbench
