// A fixed-size worker pool with caller participation.
//
// The pool owns `num_workers` threads draining a shared FIFO task queue.
// Work is submitted in groups via RunTasks(n, fn), which executes fn(0..n-1)
// and blocks until every index finished. The calling thread participates in
// its own group, which gives two properties:
//
//  * total concurrency of a group is num_workers + 1, so a pool budget of P
//    is built as ThreadPool(P - 1);
//  * RunTasks may be called from inside a pool task without deadlock — even
//    when every worker is busy, the nested caller drains its own group.
//
// The first exception thrown by any task of a group is captured and rethrown
// from that group's RunTasks; remaining tasks still run to completion.

#ifndef DCS_UTIL_THREAD_POOL_H_
#define DCS_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dcs {

class ThreadPool {
 public:
  /// Spawns `num_workers` threads. 0 is valid: every RunTasks then executes
  /// inline on the calling thread.
  explicit ThreadPool(size_t num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_workers() const { return workers_.size(); }
  /// Workers plus the participating caller — the group-level parallelism.
  size_t concurrency() const { return workers_.size() + 1; }

  /// std::thread::hardware_concurrency with the 0-means-unknown case mapped
  /// to 1.
  static size_t DefaultConcurrency();

  /// \brief Runs fn(0) … fn(num_tasks - 1) across the pool and the calling
  /// thread; returns when all of them completed. Rethrows the first captured
  /// task exception. Safe to call concurrently and from inside a pool task.
  void RunTasks(size_t num_tasks, const std::function<void(size_t)>& fn);

 private:
  // One RunTasks call; lives on the caller's stack for its whole duration.
  struct Group {
    const std::function<void(size_t)>* fn = nullptr;
    size_t num_tasks = 0;
    size_t next = 0;        // next index to hand out
    size_t unfinished = 0;  // indices not yet completed
    std::exception_ptr error;
    std::condition_variable done;
  };

  void WorkerLoop();
  // Pops one index of `group` and runs it. Mutex held on entry and exit.
  void RunOneIndex(Group* group, std::unique_lock<std::mutex>* lock);
  // Unlinks `group` from active_groups_ if its indices are exhausted.
  void MaybeRetire(Group* group);

  std::mutex mutex_;
  std::condition_variable work_available_;
  // Groups that still have indices to hand out, FIFO.
  std::deque<Group*> active_groups_;
  std::vector<std::thread> workers_;
  bool shutting_down_ = false;
};

}  // namespace dcs

#endif  // DCS_UTIL_THREAD_POOL_H_
