// A small fixed-size thread pool with an allocation-free parallel_for and
// multi-job submission.
//
// Used by the optimized kernel resolver to mirror the multi-threaded TFLite
// interpreter configuration the paper benchmarks (4 threads on a Pixel 4),
// and by the serving Engine, where many sessions fan work onto one bounded
// worker set concurrently.
//
// parallel_for is designed for the interpreter's steady-state invoke path:
// the loop body is passed as a non-owning FunctionRef (no std::function
// heap allocation) and chunks are handed out through an atomic counter (no
// per-chunk task objects). The calling thread participates too, so a pool
// of N threads gives up to N+1-way parallelism.
//
// Composability: the pool runs up to kMaxConcurrentJobs jobs at once. Each
// submission owns a fixed job slot; idle workers join whichever live job
// still has unclaimed chunks and a free participant slot, so two sessions
// (or two models sharing one engine pool) fanning out at the same time
// proceed in parallel instead of serializing behind a process-wide submit
// lock. Every job carries its own participant cap (max_participants,
// including the submitting thread), which is how `num_threads = k` is
// enforced as a hard limit rather than a hint. If every slot is busy the
// submitter simply runs its range inline — correctness never depends on a
// slot being free.
//
// Worker identity is per pool: a worker of pool A submitting to pool B
// participates in B's job as a normal submitter (B's workers help, A's
// worker drives); only a worker submitting to its *own* pool runs the range
// inline, which is what prevents self-deadlock without collapsing unrelated
// pools onto one thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/function_ref.h"

namespace mlexray {

class ThreadPool {
 public:
  // Concurrent jobs the pool can run before submitters fall back to inline
  // execution. Sized for "many sessions x one engine pool"; a fixed array
  // keeps submission allocation-free.
  static constexpr std::size_t kMaxConcurrentJobs = 16;

  // Spawns exactly num_threads worker threads. The calling thread of a
  // parallel_for always participates as well, so num_threads == 0 is valid:
  // every parallel_for then runs inline with zero scheduling overhead.
  explicit ThreadPool(std::size_t num_threads);

  // Worker count for a pool owned on behalf of a `num_threads` request:
  // at most num_threads - 1 (the submitter always participates), and
  // never more than the host's spare cores (hardware_concurrency - 1).
  // num_threads is a *cap*, not a promise of width — workers beyond the
  // core count cannot add throughput, only context-switch overhead, so a
  // 1-core host gets 0 workers and fully inline execution. Model, Trainer,
  // and Engine size their owned pools through this; tests that need a
  // specific width pass it to the constructor directly.
  static std::size_t workers_for(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }
  // Most threads a single job can use (workers + the caller). A job's
  // max_participants caps below this; concurrent jobs share the same
  // workers, so a loaded pool hands each job fewer.
  std::size_t parallelism() const { return workers_.size() + 1; }

  // Runs fn over [begin, end) split into chunks of at least min_chunk
  // elements; blocks until all chunks finish. fn receives a half-open index
  // range [chunk_begin, chunk_end). Chunks are claimed dynamically, so uneven
  // per-element cost balances across threads. Allocation-free. Nested calls
  // from inside one of *this pool's own* workers run the whole range inline
  // on that worker; submitting from another pool's worker participates
  // normally. max_participants (including the calling thread) caps how many
  // threads may touch this job; 0 means "no cap" (up to parallelism()).
  void parallel_for(std::size_t begin, std::size_t end,
                    FunctionRef<void(std::size_t, std::size_t)> fn,
                    std::size_t min_chunk = 1, std::size_t max_participants = 0);

 private:
  using WorkerFn = FunctionRef<void(std::size_t, std::size_t)>;

  // One in-flight parallel_for. All fields except `next` are guarded by
  // mutex_; `next` is the lock-free chunk cursor participants hammer while
  // the job runs, kept on its own cache line so concurrent jobs don't
  // false-share claim traffic.
  struct Job {
    const WorkerFn* fn = nullptr;
    std::size_t end = 0;
    std::size_t chunk = 1;
    std::size_t max_participants = 0;  // includes the submitter
    std::size_t joined = 0;            // participants so far, submitter too
    int in_flight = 0;                 // workers currently running chunks
    bool live = false;                 // still accepting joiners
    bool in_use = false;               // slot claimed by a submitter
    alignas(64) std::atomic<std::size_t> next{0};
  };

  void worker_loop();
  // A live job this thread could still usefully join, or nullptr. Requires
  // mutex_ held.
  Job* find_joinable_locked();
  // Claims chunks via `next` and runs fn on each until the range is
  // exhausted. fn/end/chunk are the participant's consistent snapshot of the
  // job (workers capture theirs under mutex_; the submitter uses its own
  // arguments).
  static void run_chunks(std::atomic<std::size_t>& next, const WorkerFn& fn,
                         std::size_t end, std::size_t chunk);

  std::vector<std::thread> workers_;
  std::vector<Job> jobs_;  // fixed kMaxConcurrentJobs slots, never resized

  std::mutex mutex_;
  std::condition_variable cv_;       // wakes workers for new jobs/shutdown
  std::condition_variable done_cv_;  // signals submitters on job completion
  bool shutting_down_ = false;
};

// A non-owning, capped view of a ThreadPool — the type kernel contexts
// carry at invoke time. It pairs the pool with the participant budget its owner
// (Model, Trainer, Engine) granted, so `num_threads = k` flows to every
// parallel_for as a hard max_participants cap instead of being forgotten at
// the call site. A null PoolRef runs everything inline.
class PoolRef {
 public:
  PoolRef() = default;
  // cap == 0 means "no cap" (the pool's full parallelism). Implicit from a
  // bare pool pointer so tests and single-owner call sites stay terse.
  PoolRef(ThreadPool* pool, std::size_t cap = 0)  // NOLINT: implicit
      : pool_(pool), cap_(cap) {}

  explicit operator bool() const { return pool_ != nullptr; }
  ThreadPool* get() const { return pool_; }
  std::size_t cap() const { return cap_; }

  void parallel_for(std::size_t begin, std::size_t end,
                    FunctionRef<void(std::size_t, std::size_t)> fn,
                    std::size_t min_chunk = 1) const {
    if (pool_ != nullptr) {
      pool_->parallel_for(begin, end, fn, min_chunk, cap_);
    } else if (begin < end) {
      fn(begin, end);
    }
  }

 private:
  ThreadPool* pool_ = nullptr;
  std::size_t cap_ = 0;
};

}  // namespace mlexray
