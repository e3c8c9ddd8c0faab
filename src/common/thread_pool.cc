#include "src/common/thread_pool.h"

#include <algorithm>

namespace mlexray {

namespace {
// The pool this thread belongs to (nullptr on non-pool threads). Identity is
// per pool, not a process-wide flag: a worker of pool A submitting to pool B
// must participate in B's job normally (B's workers can help; A's worker
// always completes the range itself, so there is no circular wait), while a
// worker submitting to its own pool runs inline — its pool-mates may all be
// busy on the very job that called it.
thread_local const ThreadPool* t_pool_of_worker = nullptr;
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) : jobs_(kMaxConcurrentJobs) {
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

std::size_t ThreadPool::workers_for(int num_threads) {
  if (num_threads <= 1) return 0;
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(static_cast<std::size_t>(num_threads) - 1, hw - 1);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::run_chunks(std::atomic<std::size_t>& next, const WorkerFn& fn,
                            std::size_t end, std::size_t chunk) {
  for (;;) {
    const std::size_t lo = next.fetch_add(chunk, std::memory_order_relaxed);
    if (lo >= end) return;
    fn(lo, std::min(end, lo + chunk));
  }
}

ThreadPool::Job* ThreadPool::find_joinable_locked() {
  for (Job& job : jobs_) {
    // Joinable: accepting participants, still below the job's participant
    // cap, and unclaimed chunks remain (a fully-claimed range makes
    // joining useless — the worker would spin once on `next` and leave).
    if (job.in_use && job.live && job.joined < job.max_participants &&
        job.next.load(std::memory_order_relaxed) < job.end) {
      return &job;
    }
  }
  return nullptr;
}

void ThreadPool::worker_loop() {
  t_pool_of_worker = this;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    Job* job = find_joinable_locked();
    if (job == nullptr) {
      cv_.wait(lock, [&] {
        return shutting_down_ || find_joinable_locked() != nullptr;
      });
      if (shutting_down_) return;
      job = find_joinable_locked();
      if (job == nullptr) continue;  // lost the race to other workers
    }
    // Count this participant against the cap and commit (in_flight) while
    // still holding the lock: the submitter cannot retire the job and reuse
    // the slot once this worker has latched it, so the captured
    // fn/end/chunk can never be a stale/fresh mix.
    ++job->joined;
    ++job->in_flight;
    const WorkerFn* fn = job->fn;
    const std::size_t end = job->end;
    const std::size_t chunk = job->chunk;
    std::atomic<std::size_t>* next = &job->next;
    lock.unlock();
    run_chunks(*next, *fn, end, chunk);
    lock.lock();
    --job->in_flight;
    // The submitter only waits after flipping live off under this mutex, so
    // a decrement it must see always notifies. notify_all: several
    // submitters may be parked on done_cv_ for different jobs.
    if (job->in_flight == 0 && !job->live) done_cv_.notify_all();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              FunctionRef<void(std::size_t, std::size_t)> fn,
                              std::size_t min_chunk,
                              std::size_t max_participants) {
  if (begin >= end) return;
  min_chunk = std::max<std::size_t>(1, min_chunk);
  const std::size_t total = end - begin;
  const std::size_t max_chunks = (total + min_chunk - 1) / min_chunk;
  std::size_t limit = parallelism();
  if (max_participants != 0) limit = std::min(limit, max_participants);
  if (t_pool_of_worker == this || max_chunks <= 1 || limit <= 1 ||
      workers_.empty()) {
    fn(begin, end);
    return;
  }
  const std::size_t participants = std::min(limit, max_chunks);
  // ~4 chunks per participant: dynamic claiming then balances uneven rows
  // without the scheduling overhead of element-granular chunks.
  const std::size_t chunk =
      std::max(min_chunk, total / (participants * 4) + 1);

  Job* job = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (Job& candidate : jobs_) {
      if (!candidate.in_use) {
        job = &candidate;
        break;
      }
    }
    if (job != nullptr) {
      job->in_use = true;
      job->live = true;
      job->fn = &fn;
      job->end = end;
      job->chunk = chunk;
      job->max_participants = participants;
      job->joined = 1;  // the submitter
      job->in_flight = 0;
      job->next.store(begin, std::memory_order_relaxed);
    }
  }
  if (job == nullptr) {
    // Every slot is busy: the pool is saturated with other jobs anyway, so
    // run inline rather than queueing behind them.
    fn(begin, end);
    return;
  }
  cv_.notify_all();
  run_chunks(job->next, fn, end, chunk);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // The submitter only returns once the range is fully claimed, so late
    // joiners would find nothing; stop admitting them and wait out the ones
    // already running. Retiring the slot in the same lock hold that
    // satisfied the wait means fn may safely die with this frame.
    job->live = false;
    done_cv_.wait(lock, [&] { return job->in_flight == 0; });
    job->fn = nullptr;
    job->in_use = false;
  }
}

}  // namespace mlexray
