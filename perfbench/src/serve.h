// Inputs and fixed load of the serve_openloop workload, shared with the
// self-tests (which check that a seed regenerates them exactly).
#pragma once

#include <cstdint>
#include <vector>

#include "src/tensor/tensor.h"

namespace perfbench {

// Offered load, fixed in absolute terms (requests per second), chosen on a
// 4-core x86-64 host. nominal is below the knee: most requests are served
// alone by the batch-1 variant. (Between about 300 and 2000 req/s partly
// filled batches, padded onto the batch-8 variant, load both workers
// heavily and latency swings from run to run.) overload is about twice the
// front door's capacity of about 3000 req/s.
inline constexpr double kNominalQps = 150.0;
inline constexpr double kOverloadQps = 6000.0;
// Latency limit, from the due time; goodput counts OK requests within it.
inline constexpr double kServeDeadlineMs = 25.0;

struct Arrival {
  double due_s = 0.0;  // from the phase start
  std::uint32_t input = 0;
};

// Poisson arrivals at `qps` over `seconds`, each naming one of `inputs`
// request tensors.
std::vector<Arrival> make_schedule(double qps, double seconds,
                                   std::uint32_t inputs, std::uint64_t seed);

// The run's distinct request tensors, uniform in [-1, 1).
std::vector<mlexray::Tensor> make_serve_inputs(std::uint64_t seed);

}  // namespace perfbench
