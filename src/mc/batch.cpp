#include "mc/batch.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace statleak {

void BatchScratch::resize(std::size_t num_gates, std::size_t block_size) {
  block = block_size;
  dl.assign(num_gates * block_size, 0.0);
  dv.assign(num_gates * block_size, 0.0);
  arrival.assign(num_gates * block_size, 0.0);
  delay_out.assign(block_size, 0.0);
  leak_out.assign(block_size, 0.0);
  // The small per-lane arrays go last: allocated before the gate-major
  // blocks they fragmented the worker heaps, and peak RSS of back-to-back
  // 150k-sample c7552p runs crept up by ~0.5 MB.
  rngs.assign(block_size, Rng());
  dies.assign(block_size, GlobalSample{});
}

std::size_t resolve_batch_size(int requested, std::size_t num_gates) {
  STATLEAK_CHECK(requested >= 0, "batch size must be non-negative (0 = auto)");
  if (requested > 0) return static_cast<std::size_t>(requested);
  // Auto: three num_gates * B double arrays ~ 1.5 MiB total => B ~ 2^16 / n,
  // rounded to whole 8-lane SIMD groups, clamped so tiny circuits still
  // amortize per-block overhead and huge ones still block.
  const std::size_t n = std::max<std::size_t>(num_gates, 1);
  const std::size_t lanes = (std::size_t{1} << 16) / n;
  return std::clamp<std::size_t>((lanes + 4) / 8 * 8, 8, 64);
}

}  // namespace statleak
