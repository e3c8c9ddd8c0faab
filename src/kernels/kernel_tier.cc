#include "src/kernels/kernel_tier.h"

#include <algorithm>
#include <atomic>

namespace mlexray {
namespace {

std::atomic<KernelTier> g_forced_tier{KernelTier::kAuto};

constexpr KernelTier kBestTier =
#if defined(__AVX2__)
    KernelTier::kAvx2;
#elif defined(__GNUC__) || defined(__clang__)
    KernelTier::kGenericVector;
#else
    KernelTier::kScalar;
#endif

}  // namespace

void set_kernel_tier_for_testing(KernelTier tier) {
  g_forced_tier.store(tier, std::memory_order_relaxed);
}

KernelTier active_kernel_tier() {
  const KernelTier forced = g_forced_tier.load(std::memory_order_relaxed);
  return forced == KernelTier::kAuto ? kBestTier : std::max(forced, kBestTier);
}

}  // namespace mlexray
