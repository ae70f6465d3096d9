// Differential harness for the lane-parallel deviate kernel (draw_lanes,
// mc/lane_draw.hpp): W lanes drawn per SIMD pass must equal W independent
// sample_gates runs bit for bit — every dL/dVth, every untouched block
// entry, and every lane's final generator state — with Pelgrom scaling on
// and off, strides wider than W, zero and negative device widths, and NaN
// global deviates. Each lane must also have taken both ziggurat slow paths
// (wedge and tail), so the per-lane fix-up is exercised at every position,
// and deviates that underflow to signed zeros must keep the scalar sign (the
// case a contracted multiply-add gets wrong).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "mc/lane_draw.hpp"
#include "tech/variation.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace statleak {
namespace {

constexpr double kSentinel = -12345.0;

/// One draw_lanes call and its scalar reference.
struct LaneCase {
  VariationModel model = VariationModel::typical_100nm();
  std::vector<double> widths;
  std::vector<GlobalSample> dies;
  std::vector<Rng> rngs;
  std::size_t stride = 0;
};

/// Widths cycling through positive sizes with zero and negative entries
/// mixed in (both mean "nominal sigma" to the Pelgrom scaling).
std::vector<double> test_widths(std::size_t n) {
  std::vector<double> w(n);
  for (std::size_t id = 0; id < n; ++id) {
    w[id] = id % 17 == 0   ? 0.0
            : id % 13 == 0 ? -1.0
                           : 0.35 + 0.15 * static_cast<double>(id % 40);
  }
  return w;
}

LaneCase make_case(std::uint64_t seed, std::size_t lanes, std::size_t gates,
                   std::size_t stride, bool pelgrom) {
  LaneCase c;
  c.model.pelgrom_vth_scaling = pelgrom;
  c.widths = test_widths(gates);
  c.stride = stride;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    c.rngs.push_back(Rng::stream(seed, lane));
    c.dies.push_back(sample_global(c.model, c.rngs.back()));
  }
  return c;
}

/// Draws `c` with draw_lanes at `width` and with per-lane sample_gates, and
/// asserts the blocks and final generator states are bitwise equal.
void expect_matches_scalar(const LaneCase& c, int width,
                           const std::string& what) {
  const std::size_t block = c.widths.size() * c.stride;
  std::vector<double> dl(block, kSentinel);
  std::vector<double> dv(block, kSentinel);
  std::vector<Rng> rngs = c.rngs;
  draw_lanes(c.model, c.dies, rngs, c.widths, dl.data(), dv.data(), c.stride,
             width);

  std::vector<double> ref_dl(block, kSentinel);
  std::vector<double> ref_dv(block, kSentinel);
  std::vector<Rng> ref_rngs = c.rngs;
  for (std::size_t lane = 0; lane < ref_rngs.size(); ++lane) {
    sample_gates(c.model, c.dies[lane], ref_rngs[lane], c.widths,
                 ref_dl.data() + lane, ref_dv.data() + lane, c.stride);
  }

  for (std::size_t i = 0; i < block; ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(ref_dl[i]),
              std::bit_cast<std::uint64_t>(dl[i]))
        << what << ": dL gate " << i / c.stride << " lane " << i % c.stride
        << ": " << ref_dl[i] << " vs " << dl[i];
    ASSERT_EQ(std::bit_cast<std::uint64_t>(ref_dv[i]),
              std::bit_cast<std::uint64_t>(dv[i]))
        << what << ": dVth gate " << i / c.stride << " lane "
        << i % c.stride << ": " << ref_dv[i] << " vs " << dv[i];
  }
  for (std::size_t lane = 0; lane < rngs.size(); ++lane) {
    ASSERT_TRUE(rngs[lane] == ref_rngs[lane])
        << what << ": generator state of lane " << lane;
  }
}

/// Ziggurat slow-path entries of the normals one lane draws: a draw whose
/// mantissa misses its layer's fast-accept threshold enters the tail
/// sampler from layer 0 and the wedge test from any other layer.
struct SlowPathCount {
  std::size_t wedge = 0;
  std::size_t tail = 0;
};

SlowPathCount count_slow_paths(Rng rng, std::size_t normals) {
  SlowPathCount count;
  for (std::size_t k = 0; k < normals; ++k) {
    Rng peek = rng;
    const std::uint64_t u = peek();
    if ((u >> 11) >= detail::kZiggurat.layer[u & 255u].accept) {
      ++((u & 255u) == 0 ? count.tail : count.wedge);
    }
    (void)rng.normal();
  }
  return count;
}

class LaneKernelTest : public ::testing::TestWithParam<int> {};

TEST_P(LaneKernelTest, MatchesIndependentScalarStreams) {
  const int width = GetParam();
  if (!lane_draw_supported(width)) {
    GTEST_SKIP() << "this host lacks the ISA of the " << width
                 << "-lane kernel ("
                 << (width == 8 ? "AVX-512F+DQ" : "AVX2") << ")";
  }
  const auto w = static_cast<std::size_t>(width);
  // >= 10^7 normals over 128 seeds: every case draws 2 * gates per lane.
  constexpr std::size_t kSeeds = 128;
  constexpr std::size_t kNormals = 10'000'000;
  const std::size_t gates = (kNormals + 2 * w * kSeeds - 1) / (2 * w * kSeeds);
  std::vector<SlowPathCount> per_lane(w);
  std::size_t normals = 0;
  for (std::size_t t = 0; t < kSeeds; ++t) {
    const std::size_t stride = w + 1 + t % 5;
    LaneCase c = make_case(1000 + t, w, gates, stride, t % 2 == 1);
    if (t % 8 == 3) {
      // The NaN-deviate fault's shape: a poisoned global dVth.
      c.dies[t % w].dvth_v = std::numeric_limits<double>::quiet_NaN();
    }
    if (t % 8 == 5) {
      c.dies[(t + 1) % w].dl_nm = -std::numeric_limits<double>::quiet_NaN();
    }
    expect_matches_scalar(c, width, "seed " + std::to_string(1000 + t));
    if (HasFatalFailure()) return;
    for (std::size_t lane = 0; lane < w; ++lane) {
      const SlowPathCount n = count_slow_paths(c.rngs[lane], 2 * gates);
      per_lane[lane].wedge += n.wedge;
      per_lane[lane].tail += n.tail;
    }
    normals += 2 * gates * w;
  }
  EXPECT_GE(normals, kNormals);
  for (std::size_t lane = 0; lane < w; ++lane) {
    EXPECT_GT(per_lane[lane].wedge, 0u) << "lane " << lane;
    EXPECT_GT(per_lane[lane].tail, 0u) << "lane " << lane;
  }
}

TEST_P(LaneKernelTest, UnderflowingDeviatesKeepTheScalarSignOfZero) {
  // With a denormal sigma, sigma * x rounds to a signed zero for |x| < 0.5,
  // and 0.0 + (-0.0) is +0.0: the scalar expression g + (0.0 + sigma * x)
  // then adds +0.0 to a -0.0 global draw. A fused multiply-add computes
  // 0.0 + sigma * x unrounded and yields -0.0 instead, so this case tells
  // apart a kernel whose multiply-adds were contracted.
  const int width = GetParam();
  if (!lane_draw_supported(width)) {
    GTEST_SKIP() << "this host lacks the ISA of the " << width
                 << "-lane kernel";
  }
  const auto w = static_cast<std::size_t>(width);
  LaneCase c = make_case(91, w, 500, w, false);
  c.model.sigma_l_intra_nm = std::numeric_limits<double>::denorm_min();
  c.model.sigma_vth_intra_v = std::numeric_limits<double>::denorm_min();
  for (GlobalSample& die : c.dies) die = GlobalSample{-0.0, -0.0};
  expect_matches_scalar(c, width, "denormal sigma");
}

INSTANTIATE_TEST_SUITE_P(Widths, LaneKernelTest, ::testing::Values(4, 8),
                         [](const auto& info) {
                           return "W" + std::to_string(info.param);
                         });

TEST(LaneDrawTest, HostWidthIsSupported) {
  const int width = lane_draw_width();
  EXPECT_TRUE(width == 1 || width == 4 || width == 8) << width;
  EXPECT_TRUE(lane_draw_supported(width));
  EXPECT_TRUE(lane_draw_supported(1));
  EXPECT_FALSE(lane_draw_supported(3));
}

TEST(LaneDrawTest, PartialGroupsFallBackToScalarLanes) {
  // Lane counts around the group width: whole SIMD groups next to scalar
  // remainder lanes, at the host's width and with the kernel off.
  const int host = lane_draw_width();
  for (const int width : {1, host}) {
    for (const std::size_t lanes : {1, 3, 4, 5, 7, 8, 9, 16, 17, 19}) {
      const LaneCase c = make_case(77 + lanes, lanes, 300, lanes + 2,
                                   lanes % 2 == 0);
      expect_matches_scalar(c, width,
                            "width " + std::to_string(width) + ", " +
                                std::to_string(lanes) + " lanes");
      if (HasFatalFailure()) return;
    }
  }
}

TEST(LaneDrawTest, RejectsBadArguments) {
  LaneCase c = make_case(5, 4, 10, 4, false);
  std::vector<double> dl(40);
  std::vector<double> dv(40);
  EXPECT_THROW(draw_lanes(c.model, c.dies, c.rngs, c.widths, dl.data(),
                          dv.data(), c.stride, 3),
               Error);
  EXPECT_THROW(draw_lanes(c.model, c.dies, c.rngs, c.widths, dl.data(),
                          dv.data(), /*stride=*/3, 1),
               Error);
  EXPECT_THROW(draw_lanes(c.model, std::span(c.dies).first(3), c.rngs,
                          c.widths, dl.data(), dv.data(), c.stride, 1),
               Error);
}

}  // namespace
}  // namespace statleak
