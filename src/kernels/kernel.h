// Kernel invocation interface.
//
// A kernel computes one node's output from its activation inputs. Constant
// weights live on the node; quantization parameters travel on the tensors
// (inputs carry theirs, the interpreter pre-sets the output tensor's params
// from node.output_quant before dispatch).
//
// Contexts are prepared once per node by the ExecutionPlan (inputs/output
// pre-wired, arena attached) and reused verbatim on every invoke. Kernel
// temporaries come from ctx.scratch<T>(): arena-backed, valid until the node
// finishes, heap-free in steady state. One-time results (packed weight
// panels, requantization tables) go into ctx.prepared, which a kernel's
// optional prepare hook fills before the kernel is ever invoked.
#pragma once

#include <functional>

#include "src/common/thread_pool.h"
#include "src/graph/node.h"
#include "src/kernels/prepared_storage.h"
#include "src/tensor/scratch_arena.h"

namespace mlexray {

struct KernelContext {
  const Node* node = nullptr;
  std::vector<const Tensor*> inputs;  // activation inputs, in op order
  Tensor* output = nullptr;           // allocated by the interpreter
  PoolRef pool;                       // null => single-threaded execution
  ScratchArena* arena = nullptr;      // per-interpreter scratch storage
  // Storage the kernel's prepare hook filled before this invoke: plan-owned
  // for interpreter sessions, a per-forward local for the trainer. Kernels
  // with a prepare hook read it through prepared_root() and have no
  // plan-less path; kernels without one leave it null.
  PreparedStorage* prepared = nullptr;

  const Tensor& input(std::size_t i) const {
    MLX_CHECK_LT(i, inputs.size());
    return *inputs[i];
  }

  // The descriptor this node's prepare hook stored. Throws, naming the
  // node, when the caller invoked without running prepare first.
  template <typename T>
  const T& prepared_root() const {
    const T* root = prepared != nullptr ? prepared->root<T>() : nullptr;
    MLX_CHECK(root != nullptr)
        << "kernel for node '" << (node != nullptr ? node->name : "?")
        << "' invoked without running its prepare hook";
    return *root;
  }

  // Arena-backed scratch, reset between nodes. Call only from the kernel's
  // entry thread, before fanning out to the pool.
  template <typename T>
  T* scratch(std::int64_t count) const {
    MLX_CHECK(arena != nullptr) << "kernel context has no scratch arena";
    return arena->allocate_array<T>(static_cast<std::size_t>(count));
  }
};

using KernelFn = std::function<void(const KernelContext&)>;

// A registered kernel: the per-invoke entry point plus an optional prepare
// hook that every caller runs before invoke — the ExecutionPlan once at
// construction, the trainer before each forward (its weights change between
// forwards). Prepare hooks see the same wired context as invoke (shapes,
// weights, quant params are final by then; activation *data* is not) and
// stash their results in ctx.prepared.
struct KernelEntry {
  KernelFn invoke;
  KernelFn prepare;  // empty for kernels with no one-time work

  KernelEntry() = default;
  KernelEntry(KernelFn invoke_fn)  // NOLINT: implicit for plain kernels
      : invoke(std::move(invoke_fn)) {}
  // Raw-pointer overload so `map[key] = some_kernel;` keeps working (a free
  // function would otherwise need two user-defined conversions).
  KernelEntry(void (*invoke_fn)(const KernelContext&))  // NOLINT: implicit
      : invoke(invoke_fn) {}
  KernelEntry(KernelFn invoke_fn, KernelFn prepare_fn)
      : invoke(std::move(invoke_fn)), prepare(std::move(prepare_fn)) {}
};

}  // namespace mlexray
