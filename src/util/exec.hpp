/// \file exec.hpp
/// \brief ExecConfig — the execution knobs shared by every runnable config —
///        and Deadline, the wall-clock budget those knobs arm.
///
/// Before this type existed, `num_threads` and `seed` were duplicated
/// independently across McConfig, OptConfig, FlowConfig and MlvConfig,
/// each with its own doc comment and defaults. They now inherit
/// ExecConfig, so:
///
///   * the fields keep their exact spelling at every call site
///     (`cfg.num_threads = 4; cfg.seed = 7;` compiles unchanged — the
///     source-compatible accessor guarantee for this release), and
///   * engine entry points can slice `const ExecConfig&` off any config
///     to plumb execution knobs without knowing the concrete type.

#pragma once

#include <chrono>
#include <cstdint>

namespace statleak {

/// Execution environment knobs: how to run, never what to compute.
/// Determinism contract: every engine that consumes ExecConfig must
/// produce bit-identical results for any `num_threads` (see
/// util/parallel.hpp), so `seed` alone pins the output.
struct ExecConfig {
  /// Worker threads, counting the calling thread; 0 (and any negative
  /// value) = std::thread::hardware_concurrency().
  int num_threads = 0;

  /// Base seed for counter-derived RNG streams (util/rng.hpp). Engines
  /// without a random component ignore it.
  std::uint64_t seed = 42;

  /// Wall-clock budget in milliseconds; 0 (and any negative value) = no
  /// deadline. Engines that honour it (Monte-Carlo loops, the statistical
  /// optimizer) check at shard/iteration boundaries and stop *cleanly* on
  /// expiry: completed work is kept (and checkpointed where enabled), the
  /// run report is flagged `"completed": false`, and the result carries
  /// `completed = false`. Expiry is a timing event, so *which* samples
  /// finished is not reproducible — but every value that did finish is
  /// bit-identical to the uninterrupted run (see docs/ROBUSTNESS.md).
  std::int64_t deadline_ms = 0;
};

/// A monotonic wall-clock deadline armed from ExecConfig::deadline_ms at
/// engine entry. Default-constructed (or armed with a non-positive budget)
/// it never expires, so the unarmed fast path is a single bool test.
/// expired() is safe to call concurrently from shard workers.
class Deadline {
 public:
  /// Never expires.
  Deadline() = default;

  /// Starts the budget now; non-positive = unarmed.
  explicit Deadline(std::int64_t budget_ms)
      : armed_(budget_ms > 0),
        end_(std::chrono::steady_clock::now() +
             std::chrono::milliseconds(budget_ms > 0 ? budget_ms : 0)) {}

  bool armed() const { return armed_; }

  /// True once the budget has elapsed (always false when unarmed).
  bool expired() const {
    return armed_ && std::chrono::steady_clock::now() >= end_;
  }

  /// Budget left for the next stage, in whole milliseconds rounded down and
  /// floored at 1 ms, so an already-expired budget still arms that stage and
  /// it stops cleanly at its first boundary. 0 (no deadline) when unarmed.
  std::int64_t remaining_ms() const {
    if (!armed_) return 0;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          end_ - std::chrono::steady_clock::now())
                          .count();
    return left > 1 ? left : 1;
  }

 private:
  bool armed_ = false;
  std::chrono::steady_clock::time_point end_{};
};

}  // namespace statleak
