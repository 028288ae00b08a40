#ifndef LIMBO_UTIL_PARALLEL_H_
#define LIMBO_UTIL_PARALLEL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace limbo::util {

/// The most worker lanes a command line or LIMBO_THREADS may ask for
/// (limbo-tool --threads, limbo-serve --workers).
inline constexpr size_t kMaxThreads = 4096;

/// Lane count used when a caller passes threads = 0: the LIMBO_THREADS
/// environment variable if set to an integer in [1, kMaxThreads],
/// otherwise std::thread::hardware_concurrency() (1 if unknown). Read
/// once and cached for the process lifetime.
size_t DefaultThreadCount();

/// A small reusable pool of worker threads exposing one primitive,
/// ParallelFor. Workers are std::jthread and are spawned lazily on the
/// first dispatch that actually needs them, so a pool that only ever runs
/// serial-sized ranges costs nothing beyond its construction.
///
/// Determinism contract: ParallelFor partitions the index range
/// *statically* — chunk c of size `grain` is always executed by lane
/// c % threads() — and the body must write only to locations owned by the
/// indices it is given. Under that contract every result is bit-identical
/// to a serial run, regardless of thread count or scheduling.
class ThreadPool {
 public:
  /// threads = 0 picks DefaultThreadCount(); threads = 1 is the serial
  /// fallback (every ParallelFor body runs inline on the caller).
  explicit ThreadPool(size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of logical lanes (the calling thread counts as lane 0).
  size_t threads() const { return lanes_; }

  /// Runs fn(chunk_begin, chunk_end) over a static partition of
  /// [begin, end) into chunks of size `grain` (the last chunk may be
  /// short). Blocks until every chunk has executed. Runs inline when the
  /// pool is serial or the range fits in one chunk. Not reentrant: the
  /// body must not call ParallelFor on the same pool.
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t, size_t)>& fn);

  /// Lane-aware variant: fn(chunk_begin, chunk_end, lane), where `lane`
  /// is the executing lane in [0, threads()). Because the partition is
  /// static, chunk c always reports lane c % threads() — so per-lane
  /// scratch (e.g. a LossKernel per lane) is raced-free *and* the work
  /// each scratch sees is the same on every run. The inline path reports
  /// lane 0.
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t, size_t, size_t)>& fn);

 private:
  void EnsureWorkers();
  /// Executes every chunk c with c % lanes_ == lane of the current task.
  void RunLane(size_t lane);

  size_t lanes_;
  std::vector<std::jthread> workers_;  // lanes_ - 1, spawned lazily

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool stopping_ = false;
  uint64_t generation_ = 0;
  size_t active_ = 0;

  // Current task, valid while active_ > 0; published under mu_ before the
  // generation bump, read by workers after they observe the new generation.
  size_t task_begin_ = 0;
  size_t task_end_ = 0;
  size_t task_grain_ = 1;
  const std::function<void(size_t, size_t, size_t)>* task_fn_ = nullptr;
};

/// One-shot convenience over a process-wide shared pool sized by
/// DefaultThreadCount(). Prefer a local ThreadPool when issuing many
/// dispatches (e.g. once per merge step) so the lane count is explicit.
void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& fn);

}  // namespace limbo::util

#endif  // LIMBO_UTIL_PARALLEL_H_
