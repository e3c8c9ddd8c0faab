// Model: an immutable, shareable prepared model — the "load once" half of
// the serving API.
//
// A Model bundles everything about a deployment artifact that is identical
// for every caller: the Graph (weights, shapes, quant params), the
// ExecutionPlan (kernels resolved once, prepare hooks run once), and the
// plan-owned PreparedStorage (packed GEMM B panels, requantization tables).
// Building a Model pays the full Prepare cost exactly once; afterwards the
// object is strictly read-only, so any number of Sessions — including
// Sessions invoking concurrently from different threads — can execute it
// without synchronization. N concurrent clients share one copy of
// prepared_bytes instead of paying N× prepare time and N× memory.
//
//   Model model(std::move(graph), &resolver);   // prepare once
//   Session a(&model), b(&model);               // serve many
//
// The Engine (src/interpreter/engine.h) adds a named registry and a session
// pool on top. A single caller builds the pair itself:
//
//   Model model(&graph, &resolver);              // graph stays caller-owned
//   Session session(&model);
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/interpreter/execution_plan.h"

namespace mlexray {

class Model {
 public:
  // Owning: moves the graph in, so the Model is self-contained (the Engine's
  // load path). resolver must outlive the Model.
  //
  // num_threads is a hard participant cap: no parallel_for issued by this
  // model's sessions ever uses more than num_threads threads. With no
  // shared_pool, num_threads > 1 gives the model its OWN bounded worker set
  // of at most num_threads - 1 threads, clamped to the host's spare cores
  // (ThreadPool::workers_for; the invoking thread participates too), so
  // different models' pools are fully independent. With a shared_pool (the
  // Engine's), the model fans work onto that caller-owned pool — which may
  // serve many models at once, running their jobs side by side — and
  // shared_pool must outlive the Model. num_threads <= 1 runs kernels
  // single-threaded either way.
  Model(Graph graph, const OpResolver* resolver, int num_threads = 1,
        ThreadPool* shared_pool = nullptr);

  // Borrowing: graph must outlive the Model (call sites that keep the Graph
  // alive themselves, e.g. to build a float and an int8 variant from it).
  Model(const Graph* graph, const OpResolver* resolver, int num_threads = 1,
        ThreadPool* shared_pool = nullptr);

  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  const Graph& graph() const { return *graph_; }
  const OpResolver& resolver() const { return *resolver_; }
  const ExecutionPlan& plan() const { return *plan_; }
  // The capped pool view sessions wire into every kernel context; null when
  // the model runs single-threaded. Its cap() is the num_threads the model
  // honors: the max participants of any parallel_for its sessions submit.
  PoolRef pool() const { return pool_ref_; }
  const std::string& name() const { return graph_->name; }

  // Ids of the graph's kInput nodes, in insertion order (cached so sessions
  // don't rebuild the vector).
  const std::vector<int>& input_ids() const { return input_ids_; }

  // Bytes of plan-owned prepared storage — paid once, shared by every
  // session.
  std::size_t prepared_bytes() const { return plan_->prepared_bytes(); }

  // One-time Prepare wall clock (plan construction, weight packing).
  double prepare_ms() const { return prepare_ms_; }

 private:
  void build(int num_threads, ThreadPool* shared_pool);

  std::unique_ptr<const Graph> owned_graph_;  // null in the non-owning case
  const Graph* graph_;
  const OpResolver* resolver_;
  std::unique_ptr<ThreadPool> owned_pool_;  // per-model worker set (if any)
  PoolRef pool_ref_;  // owned or shared pool + num_threads cap; null => inline
  std::unique_ptr<ExecutionPlan> plan_;
  std::vector<int> input_ids_;
  double prepare_ms_ = 0.0;
};

}  // namespace mlexray
