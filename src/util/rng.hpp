/// \file rng.hpp
/// \brief Deterministic, fast pseudo-random number generation.
///
/// Monte-Carlo experiments must be reproducible across runs and platforms, so
/// statleak does not use std::mt19937 + std::normal_distribution (whose
/// normal_distribution output is implementation-defined). Instead we ship
/// xoshiro256++ (Blackman & Vigna) with an explicit splitmix64 seeder and our
/// own normal transform.
///
/// Normal deviates use a 256-layer ziggurat (Marsaglia & Tsang 2000, with
/// Doornik's fix of drawing the wedge test from a fresh uniform). The method
/// is *exact*: the fast path accepts a point uniformly inside a rectangle
/// that lies entirely under the density, the wedge path performs the exact
/// accept test against exp(-x^2/2), and the tail path is Marsaglia's exact
/// exponential-majorant sampler — so the output distribution is N(0, 1) to
/// the last bit of the accept/reject arithmetic, not an approximation.
/// ~98.5 % of draws take the fast path: one 64-bit draw, one table compare,
/// one multiply — about 5x cheaper than the Box–Muller transform used before
/// (which paid log + sqrt + sincos per pair). The layer index (bits 0..7),
/// the sign (bit 8) and the 53-bit mantissa (bits 11..63) come from disjoint
/// bits of one draw.
///
/// Determinism: the fast path is pure IEEE-754 arithmetic; the wedge/tail
/// paths call std::exp/std::log, so cross-*libm* bit reproducibility has the
/// same caveat the Box–Muller transform had. Within one toolchain the
/// sequence is bit-stable, which is what the MC determinism tests pin.

#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>

namespace statleak {

/// Stateless splitmix64 finalizer: a high-quality 64-bit bijective mixer.
/// Building block of the counter-based stream derivation below.
std::uint64_t mix64(std::uint64_t x);

/// Counter-based stream derivation: the seed of logical stream `counter`
/// under master seed `seed`. Two mix64 rounds decorrelate streams even for
/// adjacent counters, and the result depends only on (seed, counter) — not
/// on how many draws any other stream consumed. This is what lets the
/// Monte-Carlo engine give sample i its own generator, making the output
/// independent of sample evaluation order and hence of the thread count.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t counter);

namespace detail {

/// Ziggurat tables (256 layers). `edge[i]` is the right edge of layer i
/// (edge[0] = v/f(r) is the pseudo-width of the base strip, edge[1] = r);
/// `fval[i] = exp(-edge[i]^2/2)`; `accept[i]` is the integer fast-accept
/// threshold and `scale[i] = edge[i] * 2^-53` maps a 53-bit mantissa onto
/// layer i. accept/scale are interleaved so the fast path touches one
/// cache line per draw.
struct ZigguratTables {
  struct Layer {
    std::uint64_t accept;
    double scale;
  };
  Layer layer[256];
  double edge[257];
  double fval[257];
};
/// Built once at static-initialization time (rng.cpp). Do not draw normal
/// deviates from other translation units' static initializers — the usual
/// cross-TU dynamic-initialization ordering caveat applies.
extern const ZigguratTables kZiggurat;

}  // namespace detail

/// xoshiro256++ PRNG. Satisfies UniformRandomBitGenerator. The draw methods
/// are header-inline: the Monte-Carlo engines consume two normals per gate
/// per sample, so call overhead is measurable there.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four-word state from a single 64-bit seed via splitmix64,
  /// guaranteeing a non-zero state for every seed value.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next raw 64-bit output.
  result_type operator()() { return next_(state_); }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Uses Lemire's multiply-shift rejection-free
  /// bounded generation (bias < 2^-64, negligible for simulation use).
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal deviate via the 256-layer ziggurat (exact; see the
  /// file comment). One 64-bit draw on the ~98.5 % fast path.
  double normal() {
    const std::uint64_t u = (*this)();
    const std::uint64_t mantissa = u >> 11;
    const detail::ZigguratTables::Layer layer =
        detail::kZiggurat.layer[u & 255u];
    if (mantissa < layer.accept) [[likely]] {
      // The rectangle is entirely under the density: accept unconditionally.
      // Sign comes from bit 8, applied by flipping the IEEE sign bit.
      const double x = static_cast<double>(mantissa) * layer.scale;
      return apply_sign_(x, u);
    }
    const SlowNormal r = normal_slow_(u, state_);
    state_ = r.state;
    return r.x;
  }

  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double stddev) {
    return mean + stddev * normal();
  }

  /// Block draw: fills `out` with consecutive standard normal deviates, as
  /// if by repeated normal() calls. Convenience for batched consumers.
  void fill_normal(std::span<double> out) {
    for (double& x : out) x = normal();
  }

  /// Splits off an independently seeded child generator. Used to give each
  /// Monte-Carlo worker / sample block its own stream.
  Rng split();

  /// Counter-derived generator for logical stream `counter` of `seed`:
  /// Rng(stream_seed(seed, counter)). Unlike split(), this does not consume
  /// state from any parent, so stream i is reproducible in isolation.
  static Rng stream(std::uint64_t seed, std::uint64_t counter) {
    return Rng(stream_seed(seed, counter));
  }

  /// Same state: both generators will produce the same sequence.
  bool operator==(const Rng& other) const = default;

 private:
  using State = std::array<std::uint64_t, 4>;

  /// A slow-path deviate and the generator state after it.
  struct SlowNormal {
    double x;
    State state;
  };

  static std::uint64_t rotl_(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  /// Applies the sign encoded in bit 8 of `u` by flipping the IEEE sign
  /// bit of `x` (branch-free; may produce -0.0, which compares equal to 0).
  static double apply_sign_(double x, std::uint64_t u) {
    return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) ^
                                 ((u & 256u) << 55));
  }

  /// One xoshiro256++ step on `s`.
  static std::uint64_t next_(State& s) {
    const std::uint64_t result = rotl_(s[0] + s[3], 23) + s[0];
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl_(s[3], 45);
    return result;
  }

  /// Out-of-line ziggurat slow path: boundary re-check, wedge accept test,
  /// and the base-strip tail sampler. `u` is the draw that fell out of the
  /// fast path; `s` is the state after it. The state goes in and comes back
  /// by value, not through `this`, so a caller that keeps a local Rng across
  /// a loop (sample_gates in tech/variation.hpp) can hold its four words in
  /// registers instead of storing them to memory on every draw.
  static SlowNormal normal_slow_(std::uint64_t u, State s);

  State state_{};
};

}  // namespace statleak
