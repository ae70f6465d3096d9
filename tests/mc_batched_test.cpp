// Differential harness for the batched SoA Monte-Carlo engine (in the
// style of ssta_incremental_test.cpp): the gate-major batched path must
// reproduce the scalar per-sample path BIT-FOR-BIT — delay and leakage,
// for every tested (batch_size, num_threads) combination, on the plain,
// spatial and ABB engines, in first-order and exact delay modes. The
// comparison uses the raw IEEE-754 bit patterns, so even a sign-of-zero or
// ulp-level divergence fails.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "abb/abb.hpp"
#include "gen/proxy.hpp"
#include "mc/batch.hpp"
#include "mc/monte_carlo.hpp"
#include "spatial/spatial_analysis.hpp"
#include "spatial/placement.hpp"
#include "tech/process.hpp"
#include "util/error.hpp"

namespace statleak {
namespace {

void expect_bitwise_equal(const std::vector<double>& ref,
                          const std::vector<double>& got,
                          const char* what, int batch, int threads) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(ref[i]),
              std::bit_cast<std::uint64_t>(got[i]))
        << what << " sample " << i << " (batch " << batch << ", threads "
        << threads << "): " << ref[i] << " vs " << got[i];
  }
}

constexpr int kBatches[] = {1, 7, 64, 0};  // 0 = auto
constexpr int kThreads[] = {1, 2, 8};

class McBatchedTest : public ::testing::TestWithParam<const char*> {
 protected:
  ProcessNode node_ = generic_100nm();
  CellLibrary lib_{node_};
  VariationModel var_ = VariationModel::typical_100nm();
};

TEST_P(McBatchedTest, BitIdenticalToScalarAcrossBatchAndThreads) {
  const Circuit c = iscas85_proxy(GetParam());
  McConfig cfg;
  cfg.num_samples = 64;
  cfg.seed = 17;
  cfg.num_threads = 1;
  cfg.use_batched = false;
  const McResult ref = run_monte_carlo(c, lib_, var_, cfg);

  cfg.use_batched = true;
  for (const int batch : kBatches) {
    for (const int threads : kThreads) {
      cfg.batch_size = batch;
      cfg.num_threads = threads;
      const McResult got = run_monte_carlo(c, lib_, var_, cfg);
      expect_bitwise_equal(ref.delay_ps, got.delay_ps, "delay", batch,
                           threads);
      expect_bitwise_equal(ref.leakage_na, got.leakage_na, "leakage", batch,
                           threads);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Proxies, McBatchedTest,
                         ::testing::Values("c432p", "c499p", "c880p",
                                           "c1355p"),
                         [](const auto& info) { return info.param; });

class McBatchedModesTest : public ::testing::Test {
 protected:
  ProcessNode node_ = generic_100nm();
  CellLibrary lib_{node_};
  VariationModel var_ = VariationModel::typical_100nm();
};

TEST_F(McBatchedModesTest, ExactDelayModeBitIdentical) {
  const Circuit c = iscas85_proxy("c432p");
  McConfig cfg;
  cfg.num_samples = 32;
  cfg.seed = 23;
  cfg.exact_delay = true;
  cfg.num_threads = 1;
  cfg.use_batched = false;
  const McResult ref = run_monte_carlo(c, lib_, var_, cfg);

  cfg.use_batched = true;
  for (const int batch : {1, 7, 0}) {
    for (const int threads : {1, 2}) {
      cfg.batch_size = batch;
      cfg.num_threads = threads;
      const McResult got = run_monte_carlo(c, lib_, var_, cfg);
      expect_bitwise_equal(ref.delay_ps, got.delay_ps, "exact delay", batch,
                           threads);
      expect_bitwise_equal(ref.leakage_na, got.leakage_na, "exact leakage",
                           batch, threads);
    }
  }
}

TEST_F(McBatchedModesTest, PelgromScalingBitIdentical) {
  // Pelgrom width scaling changes the per-gate draw sigmas; the batched
  // path must issue the exact same draw sequence.
  const Circuit c = iscas85_proxy("c432p");
  VariationModel var = var_;
  var.pelgrom_vth_scaling = true;
  McConfig cfg;
  cfg.num_samples = 32;
  cfg.seed = 29;
  cfg.num_threads = 1;
  cfg.use_batched = false;
  const McResult ref = run_monte_carlo(c, lib_, var, cfg);

  cfg.use_batched = true;
  for (const int batch : {1, 7, 0}) {
    cfg.batch_size = batch;
    const McResult got = run_monte_carlo(c, lib_, var, cfg);
    expect_bitwise_equal(ref.delay_ps, got.delay_ps, "pelgrom delay", batch,
                         1);
    expect_bitwise_equal(ref.leakage_na, got.leakage_na, "pelgrom leakage",
                         batch, 1);
  }
}

TEST_F(McBatchedModesTest, SpatialEngineBitIdentical) {
  const Circuit c = iscas85_proxy("c880p");
  const auto placement = make_topological_placement(c, 2);
  SpatialVariationModel model;
  model.base = var_;
  McConfig cfg;
  cfg.num_samples = 48;
  cfg.seed = 31;
  cfg.num_threads = 1;
  cfg.use_batched = false;
  const McResult ref =
      run_monte_carlo_spatial(c, lib_, model, placement, cfg);

  cfg.use_batched = true;
  for (const int batch : kBatches) {
    for (const int threads : kThreads) {
      cfg.batch_size = batch;
      cfg.num_threads = threads;
      const McResult got =
          run_monte_carlo_spatial(c, lib_, model, placement, cfg);
      expect_bitwise_equal(ref.delay_ps, got.delay_ps, "spatial delay",
                           batch, threads);
      expect_bitwise_equal(ref.leakage_na, got.leakage_na, "spatial leakage",
                           batch, threads);
    }
  }
}

TEST_F(McBatchedModesTest, AbbExperimentBitIdentical) {
  // The ABB sweep exercises the kernels' uniform dVth shift and the
  // per-lane ladder selection state.
  const Circuit c = iscas85_proxy("c432p");
  const BodyBiasConfig abb;
  const double t_max = 1200.0;
  McConfig cfg;
  cfg.num_samples = 24;
  cfg.seed = 37;
  cfg.num_threads = 1;
  cfg.use_batched = false;
  const AbbResult ref = run_abb_experiment(c, lib_, var_, abb, cfg, t_max);

  cfg.use_batched = true;
  for (const int batch : {1, 7, 0}) {
    for (const int threads : {1, 2}) {
      cfg.batch_size = batch;
      cfg.num_threads = threads;
      const AbbResult got =
          run_abb_experiment(c, lib_, var_, abb, cfg, t_max);
      expect_bitwise_equal(ref.baseline.delay_ps, got.baseline.delay_ps,
                           "abb baseline delay", batch, threads);
      expect_bitwise_equal(ref.baseline.leakage_na, got.baseline.leakage_na,
                           "abb baseline leakage", batch, threads);
      expect_bitwise_equal(ref.compensated.delay_ps, got.compensated.delay_ps,
                           "abb compensated delay", batch, threads);
      expect_bitwise_equal(ref.compensated.leakage_na,
                           got.compensated.leakage_na,
                           "abb compensated leakage", batch, threads);
      expect_bitwise_equal(ref.bias_v, got.bias_v, "abb bias", batch,
                           threads);
    }
  }
}

// Batch sizes around the 8- and 4-lane SIMD groups of the deviate draw
// (mc/lane_draw.hpp): whole groups beside scalar remainder lanes.
constexpr int kLaneBatches[] = {1, 7, 8, 9, 16, 17, 0};  // 0 = auto
constexpr int kLaneThreads[] = {1, 3};

TEST_F(McBatchedModesTest, LaneGroupBoundariesBitIdentical) {
  const Circuit c = iscas85_proxy("c880p");
  VariationModel var = var_;
  var.pelgrom_vth_scaling = true;
  McConfig cfg;
  cfg.num_samples = 75;
  cfg.seed = 43;
  cfg.num_threads = 1;
  cfg.use_batched = false;
  const McResult ref = run_monte_carlo(c, lib_, var, cfg);

  cfg.use_batched = true;
  for (const int batch : kLaneBatches) {
    for (const int threads : kLaneThreads) {
      cfg.batch_size = batch;
      cfg.num_threads = threads;
      const McResult got = run_monte_carlo(c, lib_, var, cfg);
      expect_bitwise_equal(ref.delay_ps, got.delay_ps, "lane delay", batch,
                           threads);
      expect_bitwise_equal(ref.leakage_na, got.leakage_na, "lane leakage",
                           batch, threads);
    }
  }
}

TEST_F(McBatchedModesTest, AbbLaneGroupBoundariesBitIdentical) {
  const Circuit c = iscas85_proxy("c432p");
  const BodyBiasConfig abb;
  const double t_max = 1200.0;
  McConfig cfg;
  cfg.num_samples = 41;
  cfg.seed = 47;
  cfg.num_threads = 1;
  cfg.use_batched = false;
  const AbbResult ref = run_abb_experiment(c, lib_, var_, abb, cfg, t_max);

  cfg.use_batched = true;
  for (const int batch : kLaneBatches) {
    for (const int threads : kLaneThreads) {
      cfg.batch_size = batch;
      cfg.num_threads = threads;
      const AbbResult got =
          run_abb_experiment(c, lib_, var_, abb, cfg, t_max);
      expect_bitwise_equal(ref.baseline.delay_ps, got.baseline.delay_ps,
                           "abb lane baseline delay", batch, threads);
      expect_bitwise_equal(ref.baseline.leakage_na, got.baseline.leakage_na,
                           "abb lane baseline leakage", batch, threads);
      expect_bitwise_equal(ref.compensated.delay_ps, got.compensated.delay_ps,
                           "abb lane compensated delay", batch, threads);
      expect_bitwise_equal(ref.compensated.leakage_na,
                           got.compensated.leakage_na,
                           "abb lane compensated leakage", batch, threads);
      expect_bitwise_equal(ref.bias_v, got.bias_v, "abb lane bias", batch,
                           threads);
    }
  }
}

TEST_F(McBatchedModesTest, AutoBatchIsWholeLaneGroups) {
  // Auto blocks round 2^16 / gates to the nearest multiple of 8 lanes
  // within [8, 64], so no lane of an auto block takes the scalar remainder.
  EXPECT_EQ(resolve_batch_size(0, iscas85_proxy("c5315p").num_gates()), 24u);
  EXPECT_EQ(resolve_batch_size(0, iscas85_proxy("c7552p").num_gates()), 16u);
  EXPECT_EQ(resolve_batch_size(0, 1), 64u);
  EXPECT_EQ(resolve_batch_size(0, 1u << 20), 8u);
  for (std::size_t n = 1; n < 20000; n += 37) {
    EXPECT_EQ(resolve_batch_size(0, n) % 8, 0u) << n << " gates";
  }
  EXPECT_EQ(resolve_batch_size(7, 5000), 7u);  // explicit requests as-is
}

TEST_F(McBatchedModesTest, LargeProxyBitIdentical) {
  // One spot check on the largest proxy: the throughput target circuit.
  const Circuit c = iscas85_proxy("c7552p");
  McConfig cfg;
  cfg.num_samples = 16;
  cfg.seed = 41;
  cfg.num_threads = 1;
  cfg.use_batched = false;
  const McResult ref = run_monte_carlo(c, lib_, var_, cfg);

  cfg.use_batched = true;
  cfg.batch_size = 0;  // auto
  const McResult got = run_monte_carlo(c, lib_, var_, cfg);
  expect_bitwise_equal(ref.delay_ps, got.delay_ps, "c7552p delay", 0, 1);
  expect_bitwise_equal(ref.leakage_na, got.leakage_na, "c7552p leakage", 0,
                       1);
}

TEST_F(McBatchedModesTest, BatchSizeValidated) {
  const Circuit c = iscas85_proxy("c432p");
  McConfig cfg;
  cfg.num_samples = 4;
  cfg.batch_size = -1;
  EXPECT_THROW(run_monte_carlo(c, lib_, var_, cfg), Error);
}

}  // namespace
}  // namespace statleak
