// Opt-vs-ref kernel equivalence over a parameterized geometry/activation
// grid, plus steady-state allocation checks for the Prepare/Invoke split.
//
// Float parity is asserted to <= 4 ULP per element: the GEMM core
// accumulates each output bias-first in ascending k order — exactly the
// reference kernels' order — so the only tolerated difference is FMA
// contraction asymmetry between the two compiled loops (the compiler fuses
// mul+add in one and not the other; observed distance on GCC12/-march=native
// is 0-1 ULP). A geometry or ordering bug shows up as thousands of ULPs.
// Int8 parity is asserted to one quantum: the reference path requantizes
// through a double multiply while the optimized path uses the Q31
// fixed-point multiplier, an intentional (paper §4.4) one-step discrepancy.
//
// The allocation checks pin down the Prepare/Invoke contract from two
// angles: AllocStats events (tracked Tensor/arena buffers) and a global
// operator-new counter (any heap traffic at all, including std::function or
// std::vector churn inside kernels).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>

#include "src/convert/converter.h"
#include "src/graph/builder.h"
#include "src/interpreter/session.h"
#include "src/kernels/fixed_point.h"
#include "src/kernels/gemm.h"
#include "src/models/zoo.h"
#include "src/quant/quantizer.h"
#include "src/tensor/alloc_stats.h"
#include "src/tensor/tensor_stats.h"

// --- global operator new/delete instrumentation -----------------------------

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace mlexray {
namespace {

Tensor random_input(Shape shape, Pcg32& rng, float lo = -2.0f,
                    float hi = 2.0f) {
  Tensor t = Tensor::f32(shape);
  float* p = t.data<float>();
  for (std::int64_t i = 0; i < t.num_elements(); ++i) p[i] = rng.uniform(lo, hi);
  return t;
}

// Lexicographically ordered bit pattern of a float: adjacent representable
// floats differ by 1, so |a - b| counts ULPs across the value range.
std::int64_t float_lex_bits(float f) {
  std::int32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits >= 0 ? bits
                   : static_cast<std::int64_t>(
                         std::numeric_limits<std::int32_t>::min()) -
                         bits;
}

std::int64_t max_ulp_diff(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.num_elements(), b.num_elements());
  const float* pa = a.data<float>();
  const float* pb = b.data<float>();
  std::int64_t worst = 0;
  for (std::int64_t i = 0; i < a.num_elements(); ++i) {
    worst = std::max(worst,
                     std::abs(float_lex_bits(pa[i]) - float_lex_bits(pb[i])));
  }
  return worst;
}

// One quantization step of a quantized model's (dequantized f32) output: the
// scale of the tensor feeding the trailing Dequantize node.
float output_quantum(const Graph& qm) {
  const Node& out = qm.node(qm.outputs[0]);
  if (out.type == OpType::kDequantize) {
    return qm.node(out.inputs[0]).output_quant.scale();
  }
  return out.output_quant.scale();
}

struct GridCase {
  OpType op;
  Padding padding;
  int stride;
  Activation act;
  bool quantized;

  friend std::ostream& operator<<(std::ostream& os, const GridCase& c) {
    return os << op_type_name(c.op)
              << (c.padding == Padding::kSame ? "/Same" : "/Valid") << "/s"
              << c.stride << "/act" << static_cast<int>(c.act)
              << (c.quantized ? "/i8" : "/f32");
  }
};

std::vector<GridCase> make_grid() {
  std::vector<GridCase> grid;
  for (OpType op : {OpType::kConv2D, OpType::kDepthwiseConv2D}) {
    for (Padding padding : {Padding::kSame, Padding::kValid}) {
      for (int stride : {1, 2}) {
        for (Activation act :
             {Activation::kNone, Activation::kRelu, Activation::kRelu6}) {
          for (bool quantized : {false, true}) {
            grid.push_back({op, padding, stride, act, quantized});
          }
        }
      }
    }
  }
  // FullyConnected has no geometry axes; cover activation x dtype.
  for (Activation act :
       {Activation::kNone, Activation::kRelu, Activation::kRelu6}) {
    for (bool quantized : {false, true}) {
      grid.push_back({OpType::kFullyConnected, Padding::kSame, 1, act,
                      quantized});
    }
  }
  return grid;
}

class KernelGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(KernelGrid, OptMatchesRef) {
  const GridCase& c = GetParam();
  Pcg32 rng(1234);
  GraphBuilder b("grid", &rng);
  int x = b.input(Shape{1, 9, 9, 6});
  switch (c.op) {
    case OpType::kConv2D:
      b.conv2d(x, 8, 3, 3, c.stride, c.padding, c.act, "op");
      break;
    case OpType::kDepthwiseConv2D:
      b.depthwise_conv2d(x, 3, 3, c.stride, c.padding, c.act, "op");
      break;
    case OpType::kFullyConnected:
      b.fully_connected(x, 10, c.act, "op");
      break;
    default:
      MLX_FAIL() << "unexpected grid op";
  }
  Graph m = b.finish({1});

  Pcg32 drng(77);
  Tensor input = random_input(Shape{1, 9, 9, 6}, drng);

  RefOpResolver ref;
  BuiltinOpResolver opt;
  if (!c.quantized) {
    Model ri_model(&m, &ref);
    Session ri(&ri_model);
    Model oi_model(&m, &opt, /*num_threads=*/2);
    Session oi(&oi_model);
    ri.set_input(0, input);
    oi.set_input(0, input);
    ri.invoke();
    oi.invoke();
    // Identical accumulation order: only FMA-contraction rounding may
    // differ — at most a few ULPs, where a real geometry bug is thousands.
    EXPECT_LE(max_ulp_diff(ri.output(0), oi.output(0)), 4) << c;
  } else {
    Calibrator calib(&m);
    Pcg32 crng(88);
    for (int i = 0; i < 6; ++i) {
      calib.observe({random_input(Shape{1, 9, 9, 6}, crng)});
    }
    calib.observe({input});
    Graph qm = quantize_model(m, calib);
    Model ri_model(&qm, &ref);
    Session ri(&ri_model);
    Model oi_model(&qm, &opt, /*num_threads=*/2);
    Session oi(&oi_model);
    ri.set_input(0, input);
    oi.set_input(0, input);
    ri.invoke();
    oi.invoke();
    // Double-rescale (ref) vs Q31 fixed point (opt): at most one quantum.
    EXPECT_LE(linf_error(ri.output(0), oi.output(0)),
              1.001f * output_quantum(qm))
        << c;
  }
}

INSTANTIATE_TEST_SUITE_P(PaddingStrideActDtype, KernelGrid,
                         ::testing::ValuesIn(make_grid()));

// --- prepacked int8 GEMM vs an exact integer GEMM ---------------------------

// Shapes exercise full panels plus a column edge: n = 20 is one full
// 16-column panel plus 4 padded columns in the second; odd k = 37 exercises
// the pair microkernel's zero-padded tail.
struct GemmData {
  std::int64_t m, n, k;
  std::vector<std::int8_t> a8, b8;
  std::vector<std::int32_t> bias32, multipliers;
  std::vector<int> shifts;
  GemmQuant quant;

  GemmData(std::int64_t m_in, std::int64_t n_in, std::int64_t k_in,
           std::uint64_t seed)
      : m(m_in), n(n_in), k(k_in) {
    Pcg32 rng(seed);
    a8.resize(static_cast<std::size_t>(m * k));
    b8.resize(static_cast<std::size_t>(n * k));
    for (auto& v : a8) {
      v = static_cast<std::int8_t>(static_cast<int>(rng.next_below(255)) - 127);
    }
    for (auto& v : b8) {
      v = static_cast<std::int8_t>(static_cast<int>(rng.next_below(255)) - 127);
    }
    bias32.resize(static_cast<std::size_t>(n));
    multipliers.resize(static_cast<std::size_t>(n));
    shifts.resize(static_cast<std::size_t>(n));
    for (std::size_t j = 0; j < static_cast<std::size_t>(n); ++j) {
      bias32[j] = static_cast<std::int32_t>(rng.next_below(200)) - 100;
      quantize_multiplier(0.004 + 0.0001 * static_cast<double>(j),
                          &multipliers[j], &shifts[j]);
    }
    quant.a_zero_point = 5;
    quant.bias = bias32.data();
    quant.multipliers = multipliers.data();
    quant.shifts = shifts.data();
    quant.out_zero_point = -3;
  }

  std::vector<std::int8_t> run_i8() const {
    std::vector<std::int8_t> c(static_cast<std::size_t>(m * n));
    std::vector<std::int8_t> panels(
        static_cast<std::size_t>(packed_b_i8_bytes(n, k)));
    std::vector<std::int32_t> col_sums(static_cast<std::size_t>(n));
    pack_b_i8(n, k, b8.data(), k, panels.data(), col_sums.data());
    const PackedBI8 packed{panels.data(), col_sums.data()};
    gemm_i8_nt(m, n, k, a8.data(), k, b8.data(), k, quant, c.data(), n,
               nullptr, packed);
    return c;
  }

  // The definition: exact int32 dot products with the zero point
  // subtracted per element, then the same per-column Q31 requantization.
  std::vector<std::int8_t> exact_i8() const {
    std::vector<std::int8_t> c(static_cast<std::size_t>(m * n));
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        const auto col = static_cast<std::size_t>(j);
        std::int32_t acc = bias32[col];
        for (std::int64_t kk = 0; kk < k; ++kk) {
          acc += (a8[static_cast<std::size_t>(i * k + kk)] -
                  quant.a_zero_point) *
                 b8[static_cast<std::size_t>(j * k + kk)];
        }
        const std::int32_t v =
            multiply_by_quantized_multiplier(acc, multipliers[col],
                                             shifts[col]) +
            quant.out_zero_point;
        c[static_cast<std::size_t>(i * n + j)] = static_cast<std::int8_t>(
            std::clamp(v, quant.act_min, quant.act_max));
      }
    }
    return c;
  }
};

// The pair microkernel with its epilogue zero-point correction (m > 1) must
// reproduce the exact integer GEMM bit for bit: integer accumulation is
// order-free and exact.
TEST(PrepackedGemm, I8PrepackedMatchesExact) {
  for (auto [m, n, k] : {std::array<std::int64_t, 3>{16, 20, 37},
                         std::array<std::int64_t, 3>{7, 9, 64},
                         std::array<std::int64_t, 3>{5, 4, 3}}) {
    GemmData d(m, n, k, 700 + static_cast<std::uint64_t>(m));
    EXPECT_EQ(d.run_i8(), d.exact_i8()) << m << "x" << n << "x" << k;
  }
}

// m == 1 (batch-1 fully-connected matvec) takes the k-major matvec kernel
// instead of the panel microkernel; it too must be exact.
TEST(PrepackedGemm, MatvecM1EdgeCase) {
  GemmData d(1, 24, 129, 903);
  EXPECT_EQ(d.run_i8(), d.exact_i8());
}

// m == 1 int8: the k-major matvec kernel (raw B rows, SIMD widened-multiply
// accumulation) shares the col_sums zero-point epilogue with the panel path,
// and must match the exact GEMM bit-for-bit across column-chunk remainders
// (n % 4, n % 64) and k remainders (SIMD chunk tails, odd k).
TEST(PrepackedGemm, MatvecM1Int8KMajorMatchesExact) {
  for (auto [n, k] : {std::array<std::int64_t, 2>{1, 1},
                      std::array<std::int64_t, 2>{3, 33},
                      std::array<std::int64_t, 2>{7, 64},
                      std::array<std::int64_t, 2>{17, 100},
                      std::array<std::int64_t, 2>{64, 96},
                      std::array<std::int64_t, 2>{65, 128},
                      std::array<std::int64_t, 2>{1001, 1024}}) {
    GemmData d(1, n, k, 950 + static_cast<std::uint64_t>(n));
    EXPECT_EQ(d.run_i8(), d.exact_i8()) << "1x" << n << "x" << k;
  }
}

// --- steady-state allocation behaviour --------------------------------------

Graph conv_stack_model(Pcg32* rng, int batch = 1) {
  GraphBuilder b("stack", rng);
  int x = b.input(Shape{batch, 16, 16, 8});
  int p = b.pad(x, 1, 1, 1, 1, "pad");
  int c1 = b.conv2d(p, 16, 3, 3, 1, Padding::kValid, Activation::kRelu, "c1");
  int d = b.depthwise_conv2d(c1, 3, 3, 2, Padding::kSame, Activation::kRelu6,
                             "dw");
  int c2 = b.conv2d(d, 16, 1, 1, 1, Padding::kSame, Activation::kNone, "c2");
  int fc = b.fully_connected(c2, 10, Activation::kNone, "fc");
  return b.finish({fc});
}

TEST(SteadyStateAlloc, InvokeIsHeapFreeAfterWarmup) {
  Pcg32 rng(31);
  Graph m = conv_stack_model(&rng);
  BuiltinOpResolver opt;
  Model model(&m, &opt, /*num_threads=*/2);
  Session session(&model);
  // Prepare packed the conv/fc weights into plan-owned storage, so even the
  // first invoke performs no per-call f32 B repacking.
  EXPECT_GT(session.plan().prepared_bytes(), 0u);
  EXPECT_EQ(session.last_stats().prepared_bytes,
            session.plan().prepared_bytes());
  const std::uint64_t packs_at_start = gemm_b_pack_events();
  Pcg32 drng(32);
  Tensor input = random_input(Shape{1, 16, 16, 8}, drng);
  session.set_input(0, input);
  // First invoke may grow the scratch arena.
  session.invoke();
  EXPECT_GT(session.scratch_arena().capacity_bytes(), 0u);
  EXPECT_EQ(gemm_b_pack_events(), packs_at_start)
      << "prepacked conv/fc still repacked B on the first invoke";

  const std::uint64_t events_before = AllocStats::instance().alloc_events();
  const std::size_t bytes_before = AllocStats::instance().current_bytes();
  const std::uint64_t heap_before = g_heap_allocs.load();
  const std::size_t high_water_before =
      session.scratch_arena().high_water_bytes();
  for (int i = 0; i < 5; ++i) session.invoke();
  EXPECT_EQ(AllocStats::instance().alloc_events(), events_before)
      << "steady-state invoke() registered new tensor/arena allocations";
  EXPECT_EQ(AllocStats::instance().current_bytes(), bytes_before);
  EXPECT_EQ(g_heap_allocs.load(), heap_before)
      << "steady-state invoke() touched the heap (operator new)";
  EXPECT_EQ(gemm_b_pack_events(), packs_at_start)
      << "steady-state invoke() performed per-call B packing";
  EXPECT_EQ(session.scratch_arena().high_water_bytes(), high_water_before)
      << "steady-state invoke() grew the scratch high-water mark";
  EXPECT_EQ(session.last_stats().arena_high_water_bytes, high_water_before);
}

TEST(SteadyStateAlloc, QuantizedInvokeIsHeapFreeAfterWarmup) {
  Pcg32 rng(41);
  Graph m = conv_stack_model(&rng);
  Calibrator calib(&m);
  Pcg32 crng(42);
  for (int i = 0; i < 4; ++i) {
    calib.observe({random_input(Shape{1, 16, 16, 8}, crng)});
  }
  Graph qm = quantize_model(m, calib);
  BuiltinOpResolver opt;
  Model model(&qm, &opt, /*num_threads=*/2);
  Session session(&model);
  // int8 prepare packs weight panels + column sums + requant tables.
  EXPECT_GT(session.last_stats().prepared_bytes, 0u);
  Pcg32 drng(43);
  Tensor input = random_input(Shape{1, 16, 16, 8}, drng);
  session.set_input(0, input);
  session.invoke();

  const std::uint64_t events_before = AllocStats::instance().alloc_events();
  const std::uint64_t heap_before = g_heap_allocs.load();
  const std::size_t high_water_before =
      session.scratch_arena().high_water_bytes();
  for (int i = 0; i < 5; ++i) session.invoke();
  EXPECT_EQ(AllocStats::instance().alloc_events(), events_before);
  EXPECT_EQ(g_heap_allocs.load(), heap_before);
  EXPECT_EQ(session.scratch_arena().high_water_bytes(), high_water_before);
}

// Whole-model steady state: mobilenet_v3_mini sends its HardSwish, SE pools,
// SE gates and residual Adds through the shared f32 kernels, and its int8 SE
// pools through avgpool_i8_opt's scratch row accumulator. After one warm-up
// invoke, further invokes must touch neither the heap nor AllocStats and
// must keep the scratch high-water mark flat.
void expect_model_steady_state_clean(const Graph& g, const std::string& label) {
  BuiltinOpResolver opt;
  Model model(&g, &opt, /*num_threads=*/2);
  Session session(&model);
  Pcg32 drng(91);
  session.set_input(0, random_input(g.node(g.input_ids()[0]).output_shape,
                                   drng, -1.0f, 1.0f));
  session.invoke();
  const std::uint64_t events_before = AllocStats::instance().alloc_events();
  const std::uint64_t heap_before = g_heap_allocs.load();
  const std::size_t high_water_before =
      session.scratch_arena().high_water_bytes();
  for (int i = 0; i < 3; ++i) session.invoke();
  EXPECT_EQ(AllocStats::instance().alloc_events(), events_before)
      << label << ": steady-state invoke registered allocations";
  EXPECT_EQ(g_heap_allocs.load(), heap_before)
      << label << ": steady-state invoke touched the heap";
  EXPECT_EQ(session.scratch_arena().high_water_bytes(), high_water_before)
      << label << ": steady-state invoke grew the scratch arena";
}

TEST(SteadyStateAlloc, MobileNetV3F32IsHeapFreeAtBatch1And8) {
  for (int batch : {1, 8}) {
    const Graph g =
        convert_for_inference(build_mobilenet_v3_mini(7, batch).model);
    expect_model_steady_state_clean(g, "f32/b" + std::to_string(batch));
  }
}

TEST(SteadyStateAlloc, MobileNetV3Int8IsHeapFreeAtBatch1) {
  const Graph f32 = convert_for_inference(build_mobilenet_v3_mini(7, 1).model);
  const Shape in_shape = f32.node(f32.input_ids()[0]).output_shape;
  Calibrator calib(&f32);
  Pcg32 crng(92);
  for (int i = 0; i < 4; ++i) {
    calib.observe({random_input(in_shape, crng, -1.0f, 1.0f)});
  }
  expect_model_steady_state_clean(quantize_model(f32, calib), "i8/b1");
}

// --- batched inference -------------------------------------------------------

// The batch dimension rides through conv's single-GEMM-over-batch path and
// the FC row partitioning; single-op parity with the reference kernels must
// hold at batch > 1 exactly as the grid asserts at batch 1. (Multi-layer
// stacks compound FMA-contraction rounding and are covered by the
// batch-vs-single-item test below instead.)
TEST(BatchedInference, OptMatchesRefAtBatch4) {
  for (OpType op : {OpType::kConv2D, OpType::kFullyConnected}) {
    Pcg32 rng(61);
    GraphBuilder b("batched", &rng);
    int x = b.input(Shape{4, 9, 9, 6});
    int y = op == OpType::kConv2D
                ? b.conv2d(x, 8, 3, 3, 1, Padding::kSame, Activation::kRelu,
                           "op")
                : b.fully_connected(x, 10, Activation::kNone, "op");
    Graph m = b.finish({y});
    RefOpResolver ref;
    BuiltinOpResolver opt;
    Model ri_model(&m, &ref);
    Session ri(&ri_model);
    Model oi_model(&m, &opt, /*num_threads=*/2);
    Session oi(&oi_model);
    Pcg32 drng(62);
    Tensor input = random_input(Shape{4, 9, 9, 6}, drng);
    ri.set_input(0, input);
    oi.set_input(0, input);
    ri.invoke();
    oi.invoke();
    EXPECT_LE(max_ulp_diff(ri.output(0), oi.output(0)), 4)
        << op_type_name(op);
  }
}

// A batch-4 invoke must reproduce four batch-1 invokes of the same weights
// bit-exactly: per-output accumulation order does not depend on m, only the
// row partitioning does.
TEST(BatchedInference, BatchMatchesSingleItemInvokes) {
  Pcg32 rng4(81), rng1(81);  // same seed -> identical weights
  Graph m4 = conv_stack_model(&rng4, /*batch=*/4);
  Graph m1 = conv_stack_model(&rng1, /*batch=*/1);
  BuiltinOpResolver opt;
  Model batched_model(&m4, &opt, /*num_threads=*/2);
  Session batched(&batched_model);
  Model single_model(&m1, &opt, /*num_threads=*/2);
  Session single(&single_model);
  Pcg32 drng(82);
  Tensor input = random_input(Shape{4, 16, 16, 8}, drng);
  batched.set_input(0, input);
  batched.invoke();
  const Tensor& out4 = batched.output(0);
  const std::int64_t per_item_in = input.num_elements() / 4;
  const std::int64_t per_item_out = out4.num_elements() / 4;
  for (int item = 0; item < 4; ++item) {
    Tensor one = Tensor::f32(Shape{1, 16, 16, 8});
    std::memcpy(one.data<float>(),
                input.data<float>() + item * per_item_in,
                static_cast<std::size_t>(per_item_in) * sizeof(float));
    single.set_input(0, one);
    single.invoke();
    EXPECT_EQ(std::memcmp(single.output(0).data<float>(),
                          out4.data<float>() + item * per_item_out,
                          static_cast<std::size_t>(per_item_out) *
                              sizeof(float)),
              0)
        << "batch item " << item << " differs from its single-item invoke";
  }
}

TEST(BatchedInference, QuantizedOptMatchesRefAtBatch4) {
  Pcg32 rng(71);
  Graph m = conv_stack_model(&rng, /*batch=*/4);
  Calibrator calib(&m);
  Pcg32 crng(72);
  for (int i = 0; i < 4; ++i) {
    calib.observe({random_input(Shape{4, 16, 16, 8}, crng)});
  }
  Graph qm = quantize_model(m, calib);
  RefOpResolver ref;
  BuiltinOpResolver opt;
  Model ri_model(&qm, &ref);
  Session ri(&ri_model);
  Model oi_model(&qm, &opt, /*num_threads=*/2);
  Session oi(&oi_model);
  Pcg32 drng(73);
  Tensor input = random_input(Shape{4, 16, 16, 8}, drng);
  ri.set_input(0, input);
  oi.set_input(0, input);
  ri.invoke();
  oi.invoke();
  EXPECT_LE(linf_error(ri.output(0), oi.output(0)),
            1.001f * output_quantum(qm));
}

TEST(ScratchArenaTest, AllocationsAreAbsoluteAligned) {
  ScratchArena arena;
  for (int round = 0; round < 3; ++round) {
    // Odd sizes force unaligned bump positions between requests.
    (void)arena.allocate(13, 1);
    for (std::size_t align : {8u, 16u, 64u, 128u}) {
      void* p = arena.allocate(65, align);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u) << align;
    }
    // Force growth past the first block and re-check alignment there.
    void* big = arena.allocate(256 * 1024, 64);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big) % 64, 0u);
    arena.reset();
  }
}

TEST(SteadyStateAlloc, ArenaIsReusedNotRegrown) {
  Pcg32 rng(51);
  Graph m = conv_stack_model(&rng);
  BuiltinOpResolver opt;
  Model model(&m, &opt);
  Session session(&model);
  Pcg32 drng(52);
  session.set_input(0, random_input(Shape{1, 16, 16, 8}, drng));
  session.invoke();
  const std::size_t capacity = session.scratch_arena().capacity_bytes();
  const std::size_t high_water = session.scratch_arena().high_water_bytes();
  EXPECT_GT(high_water, 0u);
  for (int i = 0; i < 3; ++i) session.invoke();
  EXPECT_EQ(session.scratch_arena().capacity_bytes(), capacity);
  EXPECT_EQ(session.scratch_arena().high_water_bytes(), high_water);
}

}  // namespace
}  // namespace mlexray
