// Fixed-size thread pool with a deterministic parallel-for.
//
// Workers are started once and reused across calls; `parallel_for` splits
// an index range into one contiguous slice per worker slot so the work a
// slot executes depends only on (range, pool size) -- never on scheduling.
// Slot 0 runs on the calling thread, so a pool of size 1 adds no threading
// overhead at all (the body runs inline) and results are trivially
// identical to a sequential loop.  An exception thrown by any slice is
// rethrown to the caller once every slice has finished (the first one
// caught wins), so a throwing body never escapes a worker thread.
//
// Lock discipline (compile-time checked, common/annotated_mutex.h): the
// job descriptor (job_, job_total_, pending_, generation_, stop_) is
// guarded by mu_; workers sleep on work_ready_, the caller sleeps on
// work_done_.  parallel_for is NOT reentrant -- one job at a time.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "common/annotated_mutex.h"

namespace mpipu {

class ThreadPool {
 public:
  /// `num_threads` <= 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(int num_threads) {
    if (num_threads <= 0) {
      num_threads = static_cast<int>(std::thread::hardware_concurrency());
      if (num_threads <= 0) num_threads = 1;
    }
    size_ = num_threads;
    workers_.reserve(static_cast<size_t>(size_ - 1));
    for (int slot = 1; slot < size_; ++slot) {
      workers_.emplace_back([this, slot] { worker_loop(slot); });
    }
  }

  ~ThreadPool() {
    {
      MutexLock lock(mu_);
      stop_ = true;
    }
    work_ready_.notify_all();
    for (auto& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return size_; }

  /// Run `body(begin, end, slot)` over a static partition of [0, total):
  /// slot s gets the contiguous slice [s*total/size, (s+1)*total/size).
  /// Blocks until every slice is done.  Slot 0 executes on the caller.
  /// Rethrows the first exception a slice threw.
  void parallel_for(int64_t total,
                    const std::function<void(int64_t, int64_t, int)>& body)
      MPIPU_EXCLUDES(mu_) {
    if (total <= 0) return;
    if (size_ == 1) {
      body(0, total, 0);
      return;
    }
    {
      MutexLock lock(mu_);
      job_ = &body;
      job_total_ = total;
      pending_ = size_ - 1;
      ++generation_;
    }
    work_ready_.notify_all();
    run_slice(total, 0, body);
    std::exception_ptr error;
    {
      UniqueLock lock(mu_);
      work_done_.wait(lock, [this]() MPIPU_REQUIRES(mu_) {
        return pending_ == 0;
      });
      job_ = nullptr;
      error = std::exchange(error_, nullptr);
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  void run_slice(int64_t total, int slot,
                 const std::function<void(int64_t, int64_t, int)>& body)
      MPIPU_EXCLUDES(mu_) {
    const int64_t begin = total * slot / size_;
    const int64_t end = total * (slot + 1) / size_;
    if (begin >= end) return;
    try {
      body(begin, end, slot);
    } catch (...) {
      MutexLock lock(mu_);
      if (!error_) error_ = std::current_exception();
    }
  }

  void worker_loop(int slot) MPIPU_EXCLUDES(mu_) {
    uint64_t seen = 0;
    for (;;) {
      const std::function<void(int64_t, int64_t, int)>* job = nullptr;
      int64_t total = 0;
      {
        UniqueLock lock(mu_);
        work_ready_.wait(lock, [&]() MPIPU_REQUIRES(mu_) {
          return stop_ || generation_ != seen;
        });
        if (stop_) return;
        seen = generation_;
        job = job_;
        total = job_total_;
      }
      run_slice(total, slot, *job);
      {
        MutexLock lock(mu_);
        if (--pending_ == 0) work_done_.notify_all();
      }
    }
  }

  int size_ = 1;
  std::vector<std::thread> workers_;

  Mutex mu_;
  CondVar work_ready_;
  CondVar work_done_;
  const std::function<void(int64_t, int64_t, int)>* job_
      MPIPU_GUARDED_BY(mu_) = nullptr;
  int64_t job_total_ MPIPU_GUARDED_BY(mu_) = 0;
  int pending_ MPIPU_GUARDED_BY(mu_) = 0;
  uint64_t generation_ MPIPU_GUARDED_BY(mu_) = 0;
  bool stop_ MPIPU_GUARDED_BY(mu_) = false;
  std::exception_ptr error_ MPIPU_GUARDED_BY(mu_);
};

}  // namespace mpipu
