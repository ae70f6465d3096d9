/// \file lane_draw.hpp
/// \brief Block draw of per-gate deviates for the batched Monte-Carlo engines.
///
/// The batched engines fill a gate-major block of B dies ("lanes") before
/// each kernel pass. Every die owns its counter-derived xoshiro256++ stream,
/// so its draws are a serial chain — but the lanes of a block are
/// independent dies, so draw_lanes runs W of them per SIMD pass (W = 8 on
/// AVX-512F+DQ, 4 on AVX2), each lane producing the exact deviates and final
/// generator state of its scalar stream. Leftover lanes, and hosts without
/// AVX2, take the scalar sample_gates (tech/variation.hpp). The bit-identity
/// argument is in mc/lane_kernel.hpp and docs/PERFORMANCE.md.

#pragma once

#include <cstddef>
#include <span>

#include "tech/variation.hpp"
#include "util/rng.hpp"

namespace statleak {

/// SIMD lane width draw_lanes uses on this host: 8 (AVX-512F+DQ), 4 (AVX2)
/// or 1 (no kernel: every lane is drawn by sample_gates). Probed once.
int lane_draw_width();

/// True when draw_lanes can run with `width` on this host: 1 always, 4 with
/// AVX2, 8 with AVX-512F+DQ (x86-64 builds only).
bool lane_draw_supported(int width);

/// Draws the per-gate deviates of lanes [0, rngs.size()): gate id's dL of
/// lane l goes to dl[id * stride + l] and its dVth to dv[id * stride + l].
/// Bit for bit the calls
///   sample_gates(model, dies[l], rngs[l], widths, dl + l, dv + l, stride)
/// for every lane — same deviates, same final generator states. Whole
/// groups of `width` lanes run through the SIMD kernel, the rest through
/// sample_gates. Requires dies.size() == rngs.size() <= stride and
/// lane_draw_supported(width); throws statleak::Error otherwise.
void draw_lanes(const VariationModel& model,
                std::span<const GlobalSample> dies, std::span<Rng> rngs,
                std::span<const double> widths, double* dl, double* dv,
                std::size_t stride, int width = lane_draw_width());

}  // namespace statleak
