/// \file lane_kernel.hpp
/// \brief The lane-parallel deviate kernel behind draw_lanes (lane_draw.hpp).
///
/// Private to the mc library. One template, instantiated once per ISA in its
/// own translation unit (lane_kernel_avx2.cpp, lane_kernel_avx512.cpp), each
/// compiled with its -m flags and -ffp-contract=off; lane_draw.cpp picks the
/// instantiation at run time. That is why this header includes no project
/// header, only <immintrin.h> and the C++ library, and why the template and
/// its ops live in an anonymous namespace: no inline function shared with
/// the rest of the program may be compiled for AVX2/AVX-512 here, or the
/// linker could keep that copy for every caller and run it on a host without
/// the ISA. Other targets see only the declarations (no <immintrin.h>).
///
/// The kernel draws the deviates of W dies ("lanes") at once: lane l keeps
/// its xoshiro256++ state in element l of four vector registers, and every
/// lane issues exactly the normal() sequence of its scalar stream — dL then
/// dVth per gate, gates in id order. Per step the bits cannot differ from
/// sample_gates (tech/variation.hpp):
///   - the generator step is integer adds, xors, shifts and rotates;
///   - the layer's accept/scale words come from the same table entry
///     (a hardware gather of detail::kZiggurat.layer);
///   - `mantissa < accept` compares two integers below 2^53, so a signed or
///     unsigned 64-bit compare gives the same answer;
///   - a 53-bit integer converts to double exactly (AVX-512DQ has the
///     instruction; AVX2 assembles it from two exact 2^52-offset halves);
///   - `mantissa * scale`, the sign-bit flip and `g + (0.0 + sigma * x)` are
///     single IEEE-754 operations in the scalar order, which every vector
///     width rounds identically — provided nothing fuses a multiply and an
///     add, hence -ffp-contract=off on the TUs (-mavx512f brings FMA along);
///   - a lane that misses the fast path is finished by the scalar
///     Rng::normal_slow_ with that lane's state (Job::slow).

#pragma once

// GCC 12's AVX-512 intrinsics pass an uninitialized "undefined" source
// operand to their builtins and then warn about it (GCC PR 105593, fixed in
// GCC 13); the warning fires where they are inlined, in the header's lines.
#if defined(__x86_64__)
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ < 13
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#else
#include <immintrin.h>
#endif
#endif

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace statleak::lane {

/// Finishes one lane's ziggurat draw off the fast path: `u` is the draw that
/// missed, `s` the lane's four state words after it; `s` receives the state
/// after the slow path and the deviate is returned.
using SlowNormalFn = double (*)(std::uint64_t u, std::uint64_t* s);

/// One group of W lanes (W = the instantiation's width).
struct Job {
  std::uint64_t* state;  ///< [4 * W] word-major: word k of lane l at k * W + l
  const double* g_dl;    ///< [W] each lane's global dL [nm]
  const double* g_dv;    ///< [W] each lane's global dVth [V]
  const double* widths;  ///< [num_gates] device widths (Pelgrom input)
  std::size_t num_gates;
  double sigma_l;     ///< VariationModel::sigma_l_intra_nm
  double sigma_v;     ///< VariationModel::sigma_vth_intra_v
  double ref_width;   ///< VariationModel::pelgrom_ref_width_um
  bool pelgrom;       ///< VariationModel::pelgrom_vth_scaling
  /// detail::kZiggurat.layer: 256 {u64 accept, double scale} pairs
  const void* layers;
  SlowNormalFn slow;
  double* dl;  ///< gate id's W lanes go to dl[id * stride + 0 .. W)
  double* dv;
  std::size_t stride;
};

/// The instantiations (W = 4 and W = 8). Call only on a host that has the
/// ISA (lane_draw.cpp checks).
void draw_avx2(const Job& job);
void draw_avx512(const Job& job);

#if defined(__x86_64__)
namespace {

/// xoshiro256++ state of W lanes, word k of every lane in one register.
template <class V>
struct LaneState {
  typename V::U s0, s1, s2, s3;
};

/// Fix-up for lanes whose draw missed the fast path: each one, in lane
/// order, runs the scalar slow path on its own state and its own draw.
template <class V>
[[gnu::noinline, gnu::cold]] void finish_slow_lanes(
    LaneState<V>& st, typename V::U u, typename V::D& x, unsigned fast,
    SlowNormalFn slow) {
  constexpr int W = V::kLanes;
  alignas(64) std::uint64_t words[4][W];
  alignas(64) std::uint64_t draws[W];
  alignas(64) double out[W];
  V::store(words[0], st.s0);
  V::store(words[1], st.s1);
  V::store(words[2], st.s2);
  V::store(words[3], st.s3);
  V::store(draws, u);
  V::stored(out, x);
  for (int l = 0; l < W; ++l) {
    if ((fast >> l) & 1u) continue;
    std::uint64_t s[4] = {words[0][l], words[1][l], words[2][l], words[3][l]};
    out[l] = slow(draws[l], s);
    for (int k = 0; k < 4; ++k) words[k][l] = s[k];
  }
  st.s0 = V::load(words[0]);
  st.s1 = V::load(words[1]);
  st.s2 = V::load(words[2]);
  st.s3 = V::load(words[3]);
  x = V::loadd(out);
}

/// One standard normal per lane: Rng::normal() on W streams at once.
template <class V>
inline typename V::D lane_normal(LaneState<V>& st, const void* layers,
                                 SlowNormalFn slow) {
  // xoshiro256++ step (Rng::next_).
  const typename V::U u = V::add(V::template rotl<23>(V::add(st.s0, st.s3)),
                                 st.s0);
  const typename V::U t = V::template shl<17>(st.s1);
  st.s2 = V::bxor(st.s2, st.s0);
  st.s3 = V::bxor(st.s3, st.s1);
  st.s1 = V::bxor(st.s1, st.s2);
  st.s0 = V::bxor(st.s0, st.s3);
  st.s2 = V::bxor(st.s2, t);
  st.s3 = V::template rotl<45>(st.s3);

  // Ziggurat fast path: layer = bits 0..7, sign = bit 8, mantissa = 11..63.
  // Layer i's {accept, scale} pair sits at 64-bit words 2i and 2i + 1.
  const typename V::U word = V::template shl<1>(V::band(u, V::splat(255)));
  const typename V::U mantissa = V::template shr<11>(u);
  const typename V::U accept =
      V::gather(static_cast<const std::uint64_t*>(layers), word);
  const typename V::D scale =
      V::gatherd(static_cast<const double*>(layers) + 1, word);
  const unsigned fast = V::less(mantissa, accept);
  typename V::D x = V::flip_sign(V::mul(V::to_double53(mantissa), scale),
                                 V::template shl<55>(
                                     V::band(u, V::splat(256))));
  if (fast != V::kAll) [[unlikely]] {
    finish_slow_lanes<V>(st, u, x, fast, slow);
  }
  return x;
}

/// The kernel: sample_gates for W lanes. Per gate and lane the deviate is
/// g + (0.0 + sigma * x) — Rng::normal(0.0, sigma) added to the global
/// draw — with the Pelgrom sigma of the gate computed as
/// VariationModel::sigma_vth_intra_for does.
template <class V>
void draw_group(const Job& job) {
  constexpr int W = V::kLanes;
  LaneState<V> st{V::load(job.state), V::load(job.state + W),
                  V::load(job.state + 2 * W), V::load(job.state + 3 * W)};
  const typename V::D g_dl = V::loadd(job.g_dl);
  const typename V::D g_dv = V::loadd(job.g_dv);
  const typename V::D zero = V::splatd(0.0);
  const typename V::D sigma_l = V::splatd(job.sigma_l);
  const double sigma_v = job.sigma_v;
  const double ref_width = job.ref_width;
  const bool pelgrom = job.pelgrom;
  for (std::size_t id = 0; id < job.num_gates; ++id) {
    const double w = job.widths[id];
    const typename V::D x_l = lane_normal<V>(st, job.layers, job.slow);
    const typename V::D dl =
        V::addd(g_dl, V::addd(zero, V::mul(sigma_l, x_l)));
    const double sigma_vw = !pelgrom || w <= 0.0
                                ? sigma_v
                                : sigma_v * std::sqrt(ref_width / w);
    const typename V::D x_v = lane_normal<V>(st, job.layers, job.slow);
    const typename V::D dv =
        V::addd(g_dv, V::addd(zero, V::mul(V::splatd(sigma_vw), x_v)));
    V::stored(job.dl + id * job.stride, dl);
    V::stored(job.dv + id * job.stride, dv);
  }
  V::store(job.state, st.s0);
  V::store(job.state + W, st.s1);
  V::store(job.state + 2 * W, st.s2);
  V::store(job.state + 3 * W, st.s3);
}

}  // namespace
#endif  // __x86_64__
}  // namespace statleak::lane
