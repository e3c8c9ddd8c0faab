// Bit-exact conformance grid for the f32 non-GEMM kernels both resolvers
// share: AvgPool/MaxPool, Mean, Add/Sub (fused activation), Mul and the
// standalone activations.
//
// Those kernels walk channels innermost so the compiler can vectorize them,
// and they claim the exact per-element IEEE operation sequence of the
// per-element scalar loops they replaced. This grid holds them to that
// claim with memcmp, not a tolerance: every cell runs the kernel the
// BuiltinOpResolver and the RefOpResolver register for the node and compares
// both against the verbatim scalar loop kept below (namespace legacy).
//
//  - geometry: channels {1, 3, 5, 8, 17, 64} x batch {1, 4}, so every vector
//    width's remainder is hit;
//  - pools: Avg/Max x SAME/VALID x stride {1, 2} x filter {2, 3, global},
//    covering border windows with a short tap count; windows wholly in
//    padding (hand-built geometry; no graph produces them) keep MaxPool's
//    start value and AvgPool's zero;
//  - Add/Sub same-shape and [N,1,1,C] broadcast x activation {none, relu,
//    relu6, hardswish}; Mul same-shape and squeeze-excite broadcast;
//  - standalone ReLU/ReLU6/HardSwish (and Sigmoid/Tanh) on inputs that
//    include +-0, +-3 and values beyond +-6.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/convert/converter.h"
#include "src/graph/builder.h"
#include "src/interpreter/session.h"
#include "src/kernels/activation.h"
#include "src/kernels/conv_utils.h"
#include "src/models/zoo.h"

namespace mlexray {
namespace legacy {

// --- verbatim per-element scalar loops (the pre-vectorization kernels) -----

template <bool kIsMax>
void pool_f32(const KernelContext& ctx) {
  const Tensor& in = ctx.input(0);
  const Node& node = *ctx.node;
  const Shape& is = in.shape();
  const Shape& os = ctx.output->shape();
  const int fh = node.attrs.filter_h;
  const int fw = node.attrs.filter_w;
  const std::int64_t ch = is.dim(3);
  const std::int64_t pad_h = node.attrs.padding == Padding::kSame
                                 ? same_pad_before(is.dim(1), fh, node.attrs.stride_h, os.dim(1))
                                 : 0;
  const std::int64_t pad_w = node.attrs.padding == Padding::kSame
                                 ? same_pad_before(is.dim(2), fw, node.attrs.stride_w, os.dim(2))
                                 : 0;
  const float* x = in.data<float>();
  float* y = ctx.output->data<float>();
  for (std::int64_t n = 0; n < os.dim(0); ++n) {
    for (std::int64_t oy = 0; oy < os.dim(1); ++oy) {
      for (std::int64_t ox = 0; ox < os.dim(2); ++ox) {
        for (std::int64_t c = 0; c < ch; ++c) {
          float best = -3.4e38f;
          float sum = 0.0f;
          int count = 0;
          for (int fy = 0; fy < fh; ++fy) {
            const std::int64_t iy = oy * node.attrs.stride_h - pad_h + fy;
            if (iy < 0 || iy >= is.dim(1)) continue;
            for (int fx = 0; fx < fw; ++fx) {
              const std::int64_t ix = ox * node.attrs.stride_w - pad_w + fx;
              if (ix < 0 || ix >= is.dim(2)) continue;
              float v = x[((n * is.dim(1) + iy) * is.dim(2) + ix) * ch + c];
              best = std::max(best, v);
              sum += v;
              ++count;
            }
          }
          y[((n * os.dim(1) + oy) * os.dim(2) + ox) * ch + c] =
              kIsMax ? best : (count > 0 ? sum / static_cast<float>(count) : 0.0f);
        }
      }
    }
  }
}

void mean_f32(const KernelContext& ctx) {
  const Tensor& in = ctx.input(0);
  const Shape& is = in.shape();
  const std::int64_t hw = is.dim(1) * is.dim(2);
  const std::int64_t ch = is.dim(3);
  const float* x = in.data<float>();
  float* y = ctx.output->data<float>();
  for (std::int64_t n = 0; n < is.dim(0); ++n) {
    for (std::int64_t c = 0; c < ch; ++c) {
      float sum = 0.0f;
      for (std::int64_t p = 0; p < hw; ++p) sum += x[(n * hw + p) * ch + c];
      y[n * ch + c] = sum / static_cast<float>(hw);
    }
  }
}

template <bool kIsSub>
void addsub_f32(const KernelContext& ctx) {
  const Tensor& a = ctx.input(0);
  const Tensor& b = ctx.input(1);
  const Shape& as = a.shape();
  const float* pa = a.data<float>();
  const float* pb = b.data<float>();
  float* y = ctx.output->data<float>();
  const Activation act = ctx.node->attrs.activation;
  auto emit = [&](std::int64_t out_idx, std::int64_t b_idx) {
    const float v =
        kIsSub ? pa[out_idx] - pb[b_idx] : pa[out_idx] + pb[b_idx];
    y[out_idx] = apply_activation_f32(v, act);
  };
  if (as == b.shape()) {
    for (std::int64_t i = 0; i < a.num_elements(); ++i) emit(i, i);
    return;
  }
  const std::int64_t hw = as.dim(1) * as.dim(2);
  const std::int64_t ch = as.dim(3);
  for (std::int64_t n = 0; n < as.dim(0); ++n) {
    for (std::int64_t p = 0; p < hw; ++p) {
      for (std::int64_t c = 0; c < ch; ++c) {
        emit((n * hw + p) * ch + c, n * ch + c);
      }
    }
  }
}

void mul_f32(const KernelContext& ctx) {
  const Tensor& a = ctx.input(0);
  const Tensor& b = ctx.input(1);
  const Shape& as = a.shape();
  const Shape& bs = b.shape();
  const float* pa = a.data<float>();
  const float* pb = b.data<float>();
  float* y = ctx.output->data<float>();
  if (as == bs) {
    for (std::int64_t i = 0; i < a.num_elements(); ++i) y[i] = pa[i] * pb[i];
    return;
  }
  // b broadcast [N,1,1,C] over a [N,H,W,C] (squeeze-excite gate).
  const std::int64_t hw = as.dim(1) * as.dim(2);
  const std::int64_t ch = as.dim(3);
  for (std::int64_t n = 0; n < as.dim(0); ++n) {
    for (std::int64_t p = 0; p < hw; ++p) {
      for (std::int64_t c = 0; c < ch; ++c) {
        y[(n * hw + p) * ch + c] = pa[(n * hw + p) * ch + c] * pb[n * ch + c];
      }
    }
  }
}

template <Activation kAct>
void activation_f32(const KernelContext& ctx) {
  const float* src = ctx.input(0).data<float>();
  float* dst = ctx.output->data<float>();
  for (std::int64_t i = 0; i < ctx.input(0).num_elements(); ++i) {
    dst[i] = apply_activation_f32(src[i], kAct);
  }
}

void sigmoid_f32_kernel(const KernelContext& ctx) {
  const float* src = ctx.input(0).data<float>();
  float* dst = ctx.output->data<float>();
  for (std::int64_t i = 0; i < ctx.input(0).num_elements(); ++i) {
    dst[i] = sigmoid_f32(src[i]);
  }
}

void tanh_f32_kernel(const KernelContext& ctx) {
  const float* src = ctx.input(0).data<float>();
  float* dst = ctx.output->data<float>();
  for (std::int64_t i = 0; i < ctx.input(0).num_elements(); ++i) {
    dst[i] = tanh_f32(src[i]);
  }
}

void run(const KernelContext& ctx) {
  switch (ctx.node->type) {
    case OpType::kAvgPool2D: return pool_f32<false>(ctx);
    case OpType::kMaxPool2D: return pool_f32<true>(ctx);
    case OpType::kMean: return mean_f32(ctx);
    case OpType::kAdd: return addsub_f32<false>(ctx);
    case OpType::kSub: return addsub_f32<true>(ctx);
    case OpType::kMul: return mul_f32(ctx);
    case OpType::kRelu: return activation_f32<Activation::kRelu>(ctx);
    case OpType::kRelu6: return activation_f32<Activation::kRelu6>(ctx);
    case OpType::kHardSwish:
      return activation_f32<Activation::kHardSwish>(ctx);
    case OpType::kSigmoid: return sigmoid_f32_kernel(ctx);
    case OpType::kTanh: return tanh_f32_kernel(ctx);
    default: FAIL() << "no legacy loop for " << op_type_name(ctx.node->type);
  }
}

}  // namespace legacy

namespace {

// Uniform values in [-8, 8] with the activation breakpoints planted every
// few elements: signed zeros, +-3 (HardSwish's knees) and its float
// neighbours, +-6 (ReLU6's cap) and values beyond it.
Tensor grid_input(const Shape& shape, std::uint64_t seed) {
  static const float kSpecial[] = {0.0f,  -0.0f, 3.0f,       -3.0f,
                                   6.0f,  -6.0f, 6.5f,       -7.25f,
                                   2.9999998f, -3.0000002f, 1e-30f, -1e-30f};
  constexpr std::size_t kNumSpecial = sizeof(kSpecial) / sizeof(kSpecial[0]);
  Tensor t = Tensor::f32(shape);
  Pcg32 rng(seed);
  float* p = t.data<float>();
  for (std::int64_t i = 0; i < t.num_elements(); ++i) {
    p[i] = i % 5 == 2 ? kSpecial[static_cast<std::size_t>(i / 5) % kNumSpecial]
                      : rng.uniform(-8.0f, 8.0f);
  }
  return t;
}

// Runs the node's kernel from `resolver` on `inputs` into a fresh output
// filled with a sentinel, so an element the kernel forgets to write shows.
Tensor run_resolved(const OpResolver& resolver, const Node& node,
                    const std::vector<const Tensor*>& inputs,
                    ScratchArena& arena) {
  Tensor out = Tensor::f32(node.output_shape);
  out.fill(12345.0f);
  KernelContext ctx;
  ctx.node = &node;
  ctx.inputs = inputs;
  ctx.output = &out;
  ctx.arena = &arena;
  resolver.find(node).invoke(ctx);
  arena.reset();
  return out;
}

Tensor run_legacy(const Node& node, const std::vector<const Tensor*>& inputs) {
  Tensor out = Tensor::f32(node.output_shape);
  out.fill(12345.0f);
  KernelContext ctx;
  ctx.node = &node;
  ctx.inputs = inputs;
  ctx.output = &out;
  legacy::run(ctx);
  return out;
}

bool bytes_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() && a.byte_size() == b.byte_size() &&
         std::memcmp(a.raw_data(), b.raw_data(), a.byte_size()) == 0;
}

// Both resolvers' kernels for `node` match the legacy loop byte for byte.
void expect_conformant(const Node& node,
                       const std::vector<const Tensor*>& inputs,
                       const std::string& label) {
  BuiltinOpResolver opt;
  RefOpResolver ref;
  ScratchArena arena;
  const Tensor want = run_legacy(node, inputs);
  EXPECT_TRUE(bytes_equal(run_resolved(opt, node, inputs, arena), want))
      << label << ": BuiltinOpResolver differs from the scalar loop";
  EXPECT_TRUE(bytes_equal(run_resolved(ref, node, inputs, arena), want))
      << label << ": RefOpResolver differs from the scalar loop";
}

const std::int64_t kChannels[] = {1, 3, 5, 8, 17, 64};
const std::int64_t kBatches[] = {1, 4};

// --- pools -----------------------------------------------------------------

struct PoolCase {
  bool is_max;
  Padding padding;
  int stride;
  int filter;  // 0 = global (the whole 7x7 input)
  std::int64_t channels;
  std::int64_t batch;

  friend std::ostream& operator<<(std::ostream& os, const PoolCase& c) {
    return os << (c.is_max ? "Max" : "Avg")
              << (c.padding == Padding::kSame ? "/Same" : "/Valid") << "/s"
              << c.stride << "/f" << (c.filter == 0 ? "global" : "")
              << (c.filter == 0 ? "" : std::to_string(c.filter)) << "/ch"
              << c.channels << "/b" << c.batch;
  }
};

std::vector<PoolCase> pool_grid() {
  std::vector<PoolCase> grid;
  for (bool is_max : {false, true}) {
    for (Padding padding : {Padding::kSame, Padding::kValid}) {
      for (int stride : {1, 2}) {
        for (int filter : {2, 3, 0}) {
          for (std::int64_t ch : kChannels) {
            for (std::int64_t batch : kBatches) {
              grid.push_back({is_max, padding, stride, filter, ch, batch});
            }
          }
        }
      }
    }
  }
  return grid;
}

class FloatPoolGrid : public ::testing::TestWithParam<PoolCase> {};

TEST_P(FloatPoolGrid, BitExactVsScalarLoop) {
  const PoolCase& c = GetParam();
  constexpr int kSpatial = 7;
  const Shape in_shape{c.batch, kSpatial, kSpatial, c.channels};
  Pcg32 rng(1);
  GraphBuilder b("pool", &rng);
  const int x = b.input(in_shape);
  const int window = c.filter == 0 ? kSpatial : c.filter;
  const int op = c.is_max ? b.max_pool(x, window, c.stride, c.padding, "op")
                          : b.avg_pool(x, window, c.stride, c.padding, "op");
  const Graph g = b.finish({op});
  const Tensor input = grid_input(in_shape, 100 + c.channels * 7 + c.batch);
  std::ostringstream label;
  label << c;
  expect_conformant(g.node(op), {&input}, label.str());
}

INSTANTIATE_TEST_SUITE_P(KindPaddingStrideFilterChannelsBatch, FloatPoolGrid,
                         ::testing::ValuesIn(pool_grid()));

// A window that lies wholly in padding never comes out of graph shape
// inference (SAME windows always overlap the input), so build the geometry by
// hand: 2x2 input, 1x1 filter, stride 3, a 2x2 output. Only output (0, 0)
// sees a tap; the rest must keep MaxPool's start value and AvgPool's zero.
TEST(FloatPoolEdges, WindowsWhollyInPaddingKeepStartValues) {
  for (OpType type : {OpType::kMaxPool2D, OpType::kAvgPool2D}) {
    for (std::int64_t ch : kChannels) {
      Node node;
      node.type = type;
      node.attrs.filter_h = 1;
      node.attrs.filter_w = 1;
      node.attrs.stride_h = 3;
      node.attrs.stride_w = 3;
      node.attrs.padding = Padding::kValid;
      node.output_shape = Shape{2, 2, 2, ch};
      const Tensor input = grid_input(Shape{2, 2, 2, ch}, 7 + ch);
      expect_conformant(node, {&input},
                        std::string(op_type_name(type)) + "/ch" +
                            std::to_string(ch));
      const Tensor out = run_legacy(node, {&input});
      EXPECT_EQ(out.data<float>()[out.num_elements() - 1],
                type == OpType::kMaxPool2D ? -3.4e38f : 0.0f);
    }
  }
}

// --- mean, binary ops, activations ------------------------------------------

enum class EwKind {
  kMean,
  kAdd,
  kAddBcast,
  kSub,
  kSubBcast,
  kMul,
  kMulBcast,
  kRelu,
  kRelu6,
  kHardSwish,
  kSigmoid,
  kTanh,
};

const char* ew_kind_name(EwKind k) {
  switch (k) {
    case EwKind::kMean: return "Mean";
    case EwKind::kAdd: return "Add";
    case EwKind::kAddBcast: return "AddBcast";
    case EwKind::kSub: return "Sub";
    case EwKind::kSubBcast: return "SubBcast";
    case EwKind::kMul: return "Mul";
    case EwKind::kMulBcast: return "MulBcast";
    case EwKind::kRelu: return "Relu";
    case EwKind::kRelu6: return "Relu6";
    case EwKind::kHardSwish: return "HardSwish";
    case EwKind::kSigmoid: return "Sigmoid";
    case EwKind::kTanh: return "Tanh";
  }
  return "?";
}

bool is_addsub(EwKind k) {
  return k == EwKind::kAdd || k == EwKind::kAddBcast || k == EwKind::kSub ||
         k == EwKind::kSubBcast;
}

bool is_binary(EwKind k) {
  return is_addsub(k) || k == EwKind::kMul || k == EwKind::kMulBcast;
}

bool is_broadcast(EwKind k) {
  return k == EwKind::kAddBcast || k == EwKind::kSubBcast ||
         k == EwKind::kMulBcast;
}

struct EwCase {
  EwKind kind;
  Activation act;  // fused activation, Add/Sub only
  std::int64_t channels;
  std::int64_t batch;

  friend std::ostream& operator<<(std::ostream& os, const EwCase& c) {
    return os << ew_kind_name(c.kind) << "/act" << static_cast<int>(c.act)
              << "/ch" << c.channels << "/b" << c.batch;
  }
};

std::vector<EwCase> ew_grid() {
  const EwKind kinds[] = {EwKind::kMean,      EwKind::kAdd,
                          EwKind::kAddBcast,  EwKind::kSub,
                          EwKind::kSubBcast,  EwKind::kMul,
                          EwKind::kMulBcast,  EwKind::kRelu,
                          EwKind::kRelu6,     EwKind::kHardSwish,
                          EwKind::kSigmoid,   EwKind::kTanh};
  std::vector<EwCase> grid;
  for (EwKind kind : kinds) {
    std::vector<Activation> acts = {Activation::kNone};
    if (is_addsub(kind)) {
      acts = {Activation::kNone, Activation::kRelu, Activation::kRelu6,
              Activation::kHardSwish};
    }
    for (Activation act : acts) {
      for (std::int64_t ch : kChannels) {
        for (std::int64_t batch : kBatches) {
          grid.push_back({kind, act, ch, batch});
        }
      }
    }
  }
  return grid;
}

class FloatElementwiseGrid : public ::testing::TestWithParam<EwCase> {};

TEST_P(FloatElementwiseGrid, BitExactVsScalarLoop) {
  const EwCase& c = GetParam();
  const Shape in_shape{c.batch, 5, 7, c.channels};
  const Shape b_shape =
      is_broadcast(c.kind) ? Shape{c.batch, 1, 1, c.channels} : in_shape;
  Pcg32 rng(2);
  GraphBuilder b("ew", &rng);
  const int x = b.input(in_shape);
  int op = -1;
  switch (c.kind) {
    case EwKind::kMean: op = b.mean(x, "op"); break;
    case EwKind::kAdd:
    case EwKind::kAddBcast:
      op = b.add(x, b.input(b_shape, DType::kF32, "b"), c.act, "op");
      break;
    case EwKind::kSub:
    case EwKind::kSubBcast:
      op = b.sub(x, b.input(b_shape, DType::kF32, "b"), c.act, "op");
      break;
    case EwKind::kMul:
    case EwKind::kMulBcast:
      op = b.mul(x, b.input(b_shape, DType::kF32, "b"), "op");
      break;
    case EwKind::kRelu: op = b.relu(x, "op"); break;
    case EwKind::kRelu6: op = b.relu6(x, "op"); break;
    case EwKind::kHardSwish: op = b.hardswish(x, "op"); break;
    case EwKind::kSigmoid: op = b.sigmoid(x, "op"); break;
    case EwKind::kTanh: op = b.tanh(x, "op"); break;
  }
  const Graph g = b.finish({op});
  const std::uint64_t seed = 500 + static_cast<std::uint64_t>(c.channels) * 3 +
                             static_cast<std::uint64_t>(c.batch);
  const Tensor a_in = grid_input(in_shape, seed);
  const Tensor b_in = grid_input(b_shape, seed + 1);
  std::vector<const Tensor*> inputs = {&a_in};
  if (is_binary(c.kind)) inputs.push_back(&b_in);
  std::ostringstream label;
  label << c;
  expect_conformant(g.node(op), inputs, label.str());
}

INSTANTIATE_TEST_SUITE_P(KindActChannelsBatch, FloatElementwiseGrid,
                         ::testing::ValuesIn(ew_grid()));

// --- whole model --------------------------------------------------------------

// The shared kernels at real model shapes: every f32 non-GEMM node of
// mobilenet_v3_mini (HardSwish, SE pools and gates, residual Adds, the head
// pool) is fed the activations a BuiltinOpResolver invoke produced, and both
// resolvers' kernels must reproduce that invoke's output bytes and the
// scalar loop's. Conv/DwConv/FC are left out: their opt-vs-ref contract is a
// ULP bound (tests/test_kernel_grid.cc), so whole-model outputs of the two
// resolvers are not byte-comparable.
class FloatModelConformance : public ::testing::TestWithParam<int> {};

TEST_P(FloatModelConformance, SharedKernelsMatchAtMobileNetV3Shapes) {
  const int batch = GetParam();
  const Graph g = convert_for_inference(build_mobilenet_v3_mini(7, batch).model);
  BuiltinOpResolver opt;
  Model model(&g, &opt);
  Session session(&model);
  const Tensor input = grid_input(g.node(g.input_ids()[0]).output_shape,
                                  31 + static_cast<std::uint64_t>(batch));
  session.set_input(0, input);
  session.invoke();
  int checked = 0;
  for (const Node& node : g.nodes) {
    switch (node.type) {
      case OpType::kAvgPool2D:
      case OpType::kMaxPool2D:
      case OpType::kMean:
      case OpType::kAdd:
      case OpType::kSub:
      case OpType::kMul:
      case OpType::kRelu:
      case OpType::kRelu6:
      case OpType::kHardSwish:
        break;
      default:
        continue;
    }
    std::vector<const Tensor*> inputs;
    for (int id : node.inputs) inputs.push_back(&session.node_output(id));
    const std::string label = node.name + "/b" + std::to_string(batch);
    expect_conformant(node, inputs, label);
    EXPECT_TRUE(bytes_equal(run_legacy(node, inputs),
                            session.node_output(node.id)))
        << label << ": the planned invoke differs from the scalar loop";
    ++checked;
  }
  // HardSwish after every expand/dwconv, SE pool + gate per block, residual
  // Adds and the head pool: the model exercises every shared kernel family.
  EXPECT_GE(checked, 20);
}

INSTANTIATE_TEST_SUITE_P(Batch, FloatModelConformance,
                         ::testing::Values(1, 8));

}  // namespace
}  // namespace mlexray
