// Correctness checks the benchmark runs after each timed region. Each check
// returns an empty string on success and a description of the first
// violation otherwise; the self-tests feed them deliberately broken inputs
// to show that every check can fail.
#pragma once

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "src/core/trace.h"
#include "src/core/validation.h"
#include "src/interpreter/front_door.h"

namespace perfbench {

// edge_app: `outputs[i]` is the deployed pipeline's output for `inputs[i]`.
// Each must lie within one output quantum of a RefOpResolver run of the same
// quantized graph (the int8 opt-vs-ref parity contract), and its label must
// be the reference's argmax or tie with it to within that quantum.
std::string check_int8_parity(const mlexray::Graph& quantized,
                              const std::vector<mlexray::Tensor>& inputs,
                              const std::vector<mlexray::Tensor>& outputs);

// edge_app: the spool segment is a current-version .mlxtrace of
// `pipeline_name` and holds exactly the frames that ran while it was open,
// in order, with ids from `first_id` and the labels the app returned.
std::string check_spooled_frames(const std::filesystem::path& spool,
                                 const std::string& pipeline_name,
                                 int first_id, const std::vector<int>& labels);

// serve_openloop: each sampled OK row equals a batch-1 session run of the
// same input bit for bit (the FrontDoor row-independence contract).
std::string check_rows_bitwise(
    mlexray::Session& batch1, const std::vector<const mlexray::Tensor*>& inputs,
    const std::vector<mlexray::Tensor>& rows);

// serve_openloop: every submitted request has exactly one outcome, and the
// benchmark's own tallies agree with the front door's counters.
struct RequestTally {
  std::uint64_t submitted = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t failed = 0;
  std::uint64_t unknown = 0;
};
std::string check_accounting(const RequestTally& tally,
                             const mlexray::FrontDoorStats& stats);

// debug_session: the Fig-2 report as the benchmark compares it.
struct DebugReport {
  std::string text;
  std::vector<double> drift;
  std::optional<std::string> first_suspect;
};
std::string check_reports_equal(const DebugReport& reloaded,
                                const DebugReport& in_memory);

// debug_session: with the int16-overflow depthwise bug injected, drift
// localization must name the first DepthwiseConv2D of the quantized graph.
std::string check_first_suspect(const mlexray::PerLayerReport& report,
                                const mlexray::Graph& quantized);

}  // namespace perfbench
