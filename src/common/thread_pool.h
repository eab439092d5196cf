#ifndef SMDB_COMMON_THREAD_POOL_H_
#define SMDB_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace smdb {

/// Small work-stealing thread pool for running independent simulations
/// side by side (RunFuzzCampaign / `smdb_fuzz --jobs`: one fresh fuzzer
/// per seed). The simulator itself is single-threaded and unsynchronised —
/// a task must never share a Database with another task.
///
/// Design: one deque per worker slot, each guarded by its own mutex. A
/// worker drains its own deque from the back and, when empty, steals from
/// the other slots' fronts. The caller participates as slot 0, so a pool
/// constructed with `workers` runs up to `workers` tasks concurrently while
/// spawning only `workers - 1` threads. With `workers <= 1` (or n <= 1)
/// ParallelFor degenerates to an inline loop on the calling thread —
/// bit-identical to not having a pool at all.
class ThreadPool {
 public:
  /// Spawns `workers - 1` background threads (0 for workers <= 1).
  explicit ThreadPool(unsigned workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned workers() const { return static_cast<unsigned>(queues_.size()); }

  /// Runs fn(0) .. fn(n-1), blocking until all complete. Tasks may execute
  /// on any worker in any order: fn must only touch disjoint or
  /// thread-private state. Not reentrant (fn must not call ParallelFor on
  /// the same pool).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  /// Queue items carry the generation that enqueued them: a straggler
  /// worker that is still draining generation g when the caller starts
  /// generation g+1 must not pop the new items — it would run them
  /// through its stale job pointer, which dangles once the previous
  /// ParallelFor's `fn` goes out of scope.
  struct Item {
    uint64_t gen;
    size_t index;
  };
  struct Queue {
    std::mutex mu;
    std::deque<Item> items;
  };

  void WorkerLoop(size_t slot);
  /// Pops a generation-`gen` task from the slot's own back, else steals
  /// from the other fronts. Items of other generations are left in place.
  bool FindTask(size_t slot, uint64_t gen, size_t* out);
  void Drain(size_t slot, uint64_t gen, const std::function<void(size_t)>* fn);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for a new generation
  std::condition_variable done_cv_;   // caller waits for pending_ == 0
  const std::function<void(size_t)>* job_ = nullptr;
  uint64_t generation_ = 0;
  size_t pending_ = 0;
  bool stop_ = false;
};

}  // namespace smdb

#endif  // SMDB_COMMON_THREAD_POOL_H_
