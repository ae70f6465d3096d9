#include "util/parallel.hpp"

#include <algorithm>

namespace statleak {

int resolve_num_threads(int requested) {
  if (requested >= 1) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int num_threads) {
  const int total = resolve_num_threads(num_threads);
  threads_.reserve(static_cast<std::size_t>(total - 1));
  for (int w = 1; w < total; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  start_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::worker_loop(int worker) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* task = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_.wait(lock, [&] { return stopping_ || generation_ != seen; });
      if (stopping_) return;
      seen = generation_;
      task = task_;
    }
    try {
      (*task)(worker);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--pending_ == 0) done_.notify_one();
    }
  }
}

void ThreadPool::run(const std::function<void(int)>& task) {
  if (threads_.empty()) {
    task(0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    task_ = &task;
    pending_ = static_cast<int>(threads_.size());
    first_error_ = nullptr;
    ++generation_;
  }
  start_.notify_all();
  try {
    task(0);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!first_error_) first_error_ = std::current_exception();
  }
  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [&] { return pending_ == 0; });
  task_ = nullptr;
  if (first_error_) {
    std::exception_ptr error = first_error_;
    first_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::parallel_for(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t, int)>& body) {
  if (n == 0) return;
  const auto workers = static_cast<std::size_t>(size());
  if (workers == 1 || n == 1) {
    body(0, n, 0);
    return;
  }
  run([&](int w) {
    const auto uw = static_cast<std::size_t>(w);
    const std::size_t begin = n * uw / workers;
    const std::size_t end = n * (uw + 1) / workers;
    if (begin < end) body(begin, end, w);
  });
}

void parallel_for(
    int num_threads, std::size_t n,
    const std::function<void(std::size_t, std::size_t, int)>& body) {
  const int total = resolve_num_threads(num_threads);
  if (total == 1 || n < 2) {
    if (n > 0) body(0, n, 0);
    return;
  }
  ThreadPool pool(total);
  pool.parallel_for(n, body);
}

void parallel_chunks(int num_threads, std::size_t n, std::size_t chunk,
                     const std::function<void(ChunkCursor&, int)>& body) {
  ChunkCursor cursor(n, chunk);
  const std::size_t workers = std::min<std::size_t>(
      static_cast<std::size_t>(resolve_num_threads(num_threads)),
      cursor.num_chunks());
  if (workers == 0) return;
  if (workers == 1) {
    body(cursor, 0);
    return;
  }
  ThreadPool pool(static_cast<int>(workers));
  pool.run([&](int w) { body(cursor, w); });
}

}  // namespace statleak
