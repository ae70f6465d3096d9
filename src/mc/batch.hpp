/// \file batch.hpp
/// \brief Per-worker scratch and block-size policy for batched Monte-Carlo.
///
/// The batched engines evaluate B samples ("lanes") at a time through the
/// gate-major kernels. Each worker owns one BatchScratch: the gate-major
/// deviation blocks (dl/dv), the arrival scratch, and the per-lane outputs
/// — allocated once per run, reused across blocks, so the sample loop is
/// allocation-free. Because lanes never interact (see batch_delay.hpp), the
/// block size affects performance only, never results.

#pragma once

#include <cstddef>
#include <vector>

#include "tech/variation.hpp"
#include "util/rng.hpp"

namespace statleak {

/// Scratch for one worker evaluating blocks of up to `block` lanes over a
/// `num_gates`-gate circuit.
struct BatchScratch {
  std::vector<Rng> rngs;           ///< [block] each lane's stream
  std::vector<GlobalSample> dies;  ///< [block] each lane's global draw
  std::vector<double> dl;       ///< [num_gates * block], gate-major
  std::vector<double> dv;       ///< [num_gates * block], gate-major
  std::vector<double> arrival;  ///< [num_gates * block], gate-major
  std::vector<double> delay_out;  ///< [block]
  std::vector<double> leak_out;   ///< [block]
  std::size_t block = 0;

  void resize(std::size_t num_gates, std::size_t block_size);
};

/// Resolves a requested batch size: a positive request is taken as-is;
/// 0 picks 2^16 / num_gates rounded to the nearest multiple of 8 and
/// clamped to [8, 64], which keeps one worker's three gate-major blocks
/// (dl, dv, arrival) near 1.5 MiB, inside a 2 MiB per-core L2. On c7552p
/// blocks of 8..36 lanes run equally fast and 64 lanes (4.5 MiB) run ~25 %
/// slower; the smaller blocks also cut peak memory by ~1.5 MiB per worker.
/// Whole multiples of 8 lanes are whole SIMD groups of draw_lanes
/// (mc/lane_draw.hpp) at W = 8 or 4, so auto blocks leave no lane to the
/// scalar remainder path (c5315p: 23 -> 24 lanes; c7552p stays at 16).
/// Throws statleak::Error on negative requests.
std::size_t resolve_batch_size(int requested, std::size_t num_gates);

}  // namespace statleak
