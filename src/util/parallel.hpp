/// \file parallel.hpp
/// \brief Shard-based deterministic parallelism: ThreadPool + parallel_for.
///
/// Design rules, in service of reproducibility:
///
///   * No work stealing in parallel_for. [0, n) is split into one
///     contiguous shard per worker, assigned purely by worker index, so
///     scheduling never influences which worker computes which element.
///     The optimizer's reductions combine per-shard partials in shard
///     order, so their bits depend on those fixed boundaries: loops like
///     that must stay on static shards.
///   * Callers write results by element index into storage they own; merged
///     output is therefore bit-identical for every thread count — the
///     property the Monte-Carlo reproducibility tests pin.
///   * parallel_chunks is the one dynamic schedule: workers claim chunks
///     from a shared atomic cursor, so a slow worker no longer holds the
///     whole run back. Which worker runs a chunk depends on timing, so it
///     is only for loops whose outputs (and RNG streams) are addressed by
///     element index and which reduce nothing across elements — the
///     Monte-Carlo sample loop.
///   * The calling thread participates as worker 0. A pool of size 1 spawns
///     no threads and runs everything inline, so serial behaviour is the
///     exact degenerate case of parallel behaviour, not a separate code
///     path.

#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace statleak {

/// Resolves a thread-count knob: values >= 1 are taken as-is; 0 (and any
/// negative value) means std::thread::hardware_concurrency(), with a floor
/// of 1 when the hardware reports nothing.
int resolve_num_threads(int requested);

/// A fixed-size pool of long-lived workers. Construction is the only time
/// threads are spawned; each run() reuses them, which keeps per-call
/// overhead small enough for the optimizer's inner scoring loop.
class ThreadPool {
 public:
  /// A pool of resolve_num_threads(num_threads) workers *total*, counting
  /// the calling thread: ThreadPool(1) spawns nothing.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total workers, including the calling thread.
  int size() const { return static_cast<int>(threads_.size()) + 1; }

  /// Runs task(worker) once per worker in [0, size()); the caller executes
  /// worker 0. Blocks until all workers are done. The first exception
  /// thrown by any worker is rethrown here (after everyone finished).
  void run(const std::function<void(int)>& task);

  /// Splits [0, n) into size() contiguous shards and invokes
  /// body(begin, end, worker) for every non-empty shard. Shard boundaries
  /// depend only on n and size(), never on timing.
  void parallel_for(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t, int)>& body);

 private:
  void worker_loop(int worker);

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable start_;
  std::condition_variable done_;
  const std::function<void(int)>* task_ = nullptr;
  std::uint64_t generation_ = 0;
  int pending_ = 0;
  std::exception_ptr first_error_;
  bool stopping_ = false;
};

/// One-shot convenience: sets up a transient pool (or runs inline when the
/// resolved thread count is 1 or n < 2) and shards [0, n) across it.
void parallel_for(
    int num_threads, std::size_t n,
    const std::function<void(std::size_t, std::size_t, int)>& body);

/// Shared cursor over [0, n) cut into chunks of `chunk` elements (the last
/// one may be short), handed out in increasing order to whichever worker
/// asks next. Thread-safe.
class ChunkCursor {
 public:
  ChunkCursor(std::size_t n, std::size_t chunk)
      : n_(n), chunk_(std::max<std::size_t>(chunk, 1)) {}

  /// Number of chunks [0, n) is cut into.
  std::size_t num_chunks() const { return (n_ + chunk_ - 1) / chunk_; }

  /// Claims the next chunk as [begin, end); false once all are claimed.
  bool next(std::size_t& begin, std::size_t& end) {
    const std::size_t c = next_.fetch_add(1, std::memory_order_relaxed);
    if (c >= num_chunks()) return false;
    begin = c * chunk_;
    end = std::min(n_, begin + chunk_);
    return true;
  }

 private:
  std::size_t n_;
  std::size_t chunk_;
  std::atomic<std::size_t> next_{0};
};

/// Dynamic schedule for slot-addressed loops (see the design rules above):
/// runs body(cursor, worker) on min(resolved threads, number of chunks)
/// workers, each claiming chunks of [0, n) from one shared cursor until it
/// is exhausted. With one worker the body runs inline and claims every
/// chunk in order. The first exception thrown by a body is rethrown.
void parallel_chunks(int num_threads, std::size_t n, std::size_t chunk,
                     const std::function<void(ChunkCursor&, int)>& body);

}  // namespace statleak
