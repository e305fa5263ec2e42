#pragma once
// Persistent work-pool threading layer for the blocked BLAS driver.
//
// A ThreadPool owns a fixed set of worker threads that survive across
// submits, so the per-phase cost is two condition-variable round trips
// rather than thread creation. `run(fn)` executes fn(tid) on every
// participant — the calling thread acts as tid 0, the workers as
// 1..num_threads()-1 — and returns once all of them finished. That return
// is the only synchronization the driver needs: each phase of a GEMM step
// (beta sweep, cooperative B-panel pack, C update) is one run.
//
// The pool size follows AUGEM_NUM_THREADS when set, else the detected core
// count — the same knob OpenBLAS exposes for the paper's multi-threaded
// DGEMM runs.

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace augem {

class ThreadPool {
 public:
  /// Spawns num_threads-1 workers (the submitting thread is participant 0).
  /// num_threads must be >= 1; 1 is the degenerate pool that runs every
  /// task inline with no worker threads.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs fn(tid) for tid in [0, num_threads()). The caller participates as
  /// tid 0 and the call returns after every participant finished. The first
  /// exception thrown by any participant is rethrown here after the batch
  /// drains. Submitting from inside a running task (nesting) is an error.
  void run(const std::function<void(int)>& fn);

  /// AUGEM_NUM_THREADS when set to a positive integer, else the detected
  /// core count of the host (always >= 1).
  static int default_num_threads();

  /// Process-wide pool sized by default_num_threads() at first use.
  static ThreadPool& global();

 private:
  void worker_loop(int tid);

  const int num_threads_;
  std::vector<std::thread> workers_;

  // Submit/complete handshake.
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* job_ = nullptr;
  std::uint64_t epoch_ = 0;  ///< bumped per submit; workers wait for a change
  int done_count_ = 0;
  bool running_ = false;
  bool stop_ = false;
  std::exception_ptr first_error_;
};

}  // namespace augem
