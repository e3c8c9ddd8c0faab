// Compute tier of the channel-vectorized kernel families (depthwise conv,
// int8 elementwise/reduction).
//
// Each family compiles an AVX2 tier (when the build targets AVX2), a
// generic GNU-vector tier and a scalar tier, and picks one per invoke.
// Integer math is exact and the float tiers keep the reference order, so
// every tier produces bit-identical output; the conformance grids force each
// tier in turn to assert that instead of assuming it.
//
// GEMM tiers are fixed at compile time and do not consult this knob.
#pragma once

namespace mlexray {

// Ordered from most to least capable. kAuto is only ever a request.
enum class KernelTier { kAuto = 0, kAvx2 = 1, kGenericVector = 2, kScalar = 3 };

// Test hook: force the tier of subsequent invocations. kAuto restores the
// best compiled-in tier; a tier above what the build has degrades to the
// best one it does have.
void set_kernel_tier_for_testing(KernelTier tier);

// The tier kernels run right now (never kAuto).
KernelTier active_kernel_tier();

}  // namespace mlexray
