// Golden-trajectory regression tests for the deterministic corner sizer and
// for D_min (which is that sizer run against an unreachable target). The
// greedy search is deterministic, so its whole trajectory is pinned bit for
// bit on the c432p/c880p proxies at three guard-band corners: iteration
// count, every commit/reject counter, feasibility, the final objective's
// bits and a digest of the final implementation (bitwise sizes and Vth
// classes). Any drift means a real behavioral change, which must be reviewed
// and re-pinned deliberately.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "gen/proxy.hpp"
#include "obs/registry.hpp"
#include "opt/deterministic.hpp"
#include "report/flow.hpp"
#include "tech/process.hpp"

namespace statleak {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// FNV-1a over the bit patterns of every gate's size and its Vth class.
std::uint64_t implementation_digest(const Circuit& c) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (GateId id = 0; id < c.num_gates(); ++id) {
    mix(bits(c.gate(id).size));
    mix(static_cast<std::uint64_t>(c.gate(id).vth));
  }
  return h;
}

// Circuit names are held inline, not as pointers: gtest prints an
// unprintable parameter as its raw bytes in each test's listed name, and a
// pointer there would carry the load address, changing the name every run.
struct DminGolden {
  char circuit[8];
  std::uint64_t d_min_bits;
};

// Measured with the seed library at the nominal corner.
constexpr DminGolden kDminGoldens[] = {
    {"c432p", 0x4085339d38abd494ULL},  // 678.45176824800956 ps
    {"c880p", 0x408fb0d4a080eb3cULL},  // 1014.1038217613018 ps
};

struct DetGolden {
  char circuit[8];
  double corner_k_sigma;
  int iterations;
  int sizing_commits;
  int hvt_commits;
  int downsize_commits;
  int rejected_moves;
  bool feasible;
  std::uint64_t final_objective_bits;
  std::uint64_t implementation_digest;
};

// Measured with the seed library/variation model at t_max = 1.15 * d_min.
constexpr DetGolden kDetGoldens[] = {
    {"c432p", 0.0, 409, 49, 165, 41, 144, true, 0x407e506c8a603c31ULL,
     0xf51cb41f863c20caULL},  // 485.02649915305943 nA
    {"c432p", 1.5, 373, 20, 145, 4, 194, true, 0x409677d6b3985952ULL,
     0x197a4d4753f52769ULL},  // 1437.9596694759862 nA
    {"c432p", 3.0, 128, 7, 79, 0, 40, false, 0x40b07e246900f426ULL,
     0x1390541523e2d8eaULL},  // 4222.1422272296968 nA
    {"c880p", 0.0, 545, 23, 380, 10, 122, true, 0x409695c242ecffaaULL,
     0xee8a1beb90e2cd05ULL},  // 1445.4397084265752 nA
    {"c880p", 1.5, 597, 34, 364, 7, 182, true, 0x40a2717bf1cb45caULL,
     0x4b042f7796894626ULL},  // 2360.742079117078 nA
    {"c880p", 3.0, 326, 15, 290, 0, 19, false, 0x40b75208c389f7a3ULL,
     0xfff10bb7766b5f81ULL},  // 5970.0342336873609 nA
};

class DminTrajectoryTest : public ::testing::TestWithParam<DminGolden> {};

TEST_P(DminTrajectoryTest, MatchesGoldenBits) {
  const DminGolden& golden = GetParam();
  const Circuit c = iscas85_proxy(golden.circuit);
  const CellLibrary lib(generic_100nm());
  EXPECT_EQ(bits(min_achievable_delay_ps(c, lib)), golden.d_min_bits);
}

INSTANTIATE_TEST_SUITE_P(Proxies, DminTrajectoryTest,
                         ::testing::ValuesIn(kDminGoldens),
                         [](const auto& info) {
                           return std::string(info.param.circuit);
                         });

class DetTrajectoryTest : public ::testing::TestWithParam<DetGolden> {};

TEST_P(DetTrajectoryTest, MatchesGolden) {
  const DetGolden& golden = GetParam();
  const CellLibrary lib(generic_100nm());
  const VariationModel var = VariationModel::typical_100nm();

  OptConfig cfg;
  cfg.corner_k_sigma = golden.corner_k_sigma;
  cfg.t_max_ps = 1.15 * min_achievable_delay_ps(iscas85_proxy(golden.circuit),
                                                lib);

  Circuit c = iscas85_proxy(golden.circuit);
  obs::Registry reg;
  const OptResult result = DeterministicOptimizer(lib, var, cfg).run(c, &reg);
  EXPECT_EQ(result.iterations, golden.iterations);
  EXPECT_EQ(result.sizing_commits, golden.sizing_commits);
  EXPECT_EQ(result.hvt_commits, golden.hvt_commits);
  EXPECT_EQ(result.downsize_commits, golden.downsize_commits);
  EXPECT_EQ(result.rejected_moves, golden.rejected_moves);
  EXPECT_EQ(result.feasible, golden.feasible);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(bits(result.final_objective), golden.final_objective_bits);
  EXPECT_EQ(implementation_digest(c), golden.implementation_digest);

  // The registry mirrors the result, one trace event per iteration...
  EXPECT_EQ(reg.counter_value("det.iterations"), golden.iterations);
  EXPECT_EQ(reg.counter_value("det.rejected_moves"), golden.rejected_moves);
  EXPECT_EQ(static_cast<int>(reg.trace_events("det").size()),
            golden.iterations);

  // ...and observation never feeds back: an unobserved run is identical.
  Circuit plain = iscas85_proxy(golden.circuit);
  const OptResult unobserved = DeterministicOptimizer(lib, var, cfg).run(plain);
  EXPECT_EQ(unobserved.iterations, result.iterations);
  EXPECT_EQ(bits(unobserved.final_objective), bits(result.final_objective));
  EXPECT_EQ(implementation_digest(plain), implementation_digest(c));
}

INSTANTIATE_TEST_SUITE_P(
    Proxies, DetTrajectoryTest, ::testing::ValuesIn(kDetGoldens),
    [](const auto& info) {
      const int tenths =
          static_cast<int>(info.param.corner_k_sigma * 10.0 + 0.5);
      return std::string(info.param.circuit) + "_k" + std::to_string(tenths);
    });

}  // namespace
}  // namespace statleak
