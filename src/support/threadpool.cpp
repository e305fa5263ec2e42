#include "support/threadpool.hpp"

#include <cstdlib>
#include <utility>

#include "support/arch.hpp"
#include "support/error.hpp"

namespace augem {

ThreadPool::ThreadPool(int num_threads) : num_threads_(num_threads) {
  AUGEM_CHECK(num_threads >= 1, "pool needs at least one participant, got "
                                    << num_threads);
  workers_.reserve(static_cast<std::size_t>(num_threads_ - 1));
  for (int tid = 1; tid < num_threads_; ++tid)
    workers_.emplace_back([this, tid] { worker_loop(tid); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::run(const std::function<void(int)>& fn) {
  if (num_threads_ == 1) {
    fn(0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    AUGEM_CHECK(!running_, "nested ThreadPool::run on the same pool");
    running_ = true;
    job_ = &fn;
    done_count_ = 0;
    first_error_ = nullptr;
    ++epoch_;
  }
  start_cv_.notify_all();
  try {
    fn(0);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!first_error_) first_error_ = std::current_exception();
  }
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return done_count_ == num_threads_ - 1; });
  job_ = nullptr;
  running_ = false;
  if (first_error_) {
    std::exception_ptr err = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::worker_loop(int tid) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
      job = job_;
    }
    try {
      (*job)(tid);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++done_count_;
      if (done_count_ == num_threads_ - 1) done_cv_.notify_one();
    }
  }
}

int ThreadPool::default_num_threads() {
  if (const char* env = std::getenv("AUGEM_NUM_THREADS")) {
    const int n = std::atoi(env);
    if (n >= 1) return n;
  }
  return host_arch().cores >= 1 ? host_arch().cores : 1;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(default_num_threads());
  return pool;
}

}  // namespace augem
