// Unit tests for the Monte-Carlo engine: determinism, degenerate cases,
// yield estimation, the exact-delay mode, and the chunked schedule of the
// sample loop.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "gen/arithmetic.hpp"
#include "mc/batch.hpp"
#include "mc/monte_carlo.hpp"
#include "sta/sta.hpp"
#include "tech/process.hpp"
#include "util/error.hpp"

namespace statleak {
namespace {

class McTest : public ::testing::Test {
 protected:
  ProcessNode node_ = generic_100nm();
  CellLibrary lib_{node_};
  VariationModel var_ = VariationModel::typical_100nm();
  Circuit circuit_ = make_ripple_carry_adder(8);
};

TEST_F(McTest, DeterministicForSeed) {
  McConfig cfg;
  cfg.num_samples = 200;
  cfg.seed = 5;
  const McResult a = run_monte_carlo(circuit_, lib_, var_, cfg);
  const McResult b = run_monte_carlo(circuit_, lib_, var_, cfg);
  ASSERT_EQ(a.delay_ps.size(), b.delay_ps.size());
  for (std::size_t i = 0; i < a.delay_ps.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.delay_ps[i], b.delay_ps[i]);
    EXPECT_DOUBLE_EQ(a.leakage_na[i], b.leakage_na[i]);
  }
}

TEST_F(McTest, BitIdenticalAcrossThreadCounts) {
  // The tentpole property: sharding over any worker count must not change a
  // single bit of the result, because sample i owns counter-derived stream i
  // and writes slot i.
  McConfig cfg;
  cfg.num_samples = 500;
  cfg.seed = 5;
  cfg.num_threads = 1;
  const McResult ref = run_monte_carlo(circuit_, lib_, var_, cfg);
  for (int threads : {2, 8}) {
    cfg.num_threads = threads;
    const McResult res = run_monte_carlo(circuit_, lib_, var_, cfg);
    ASSERT_EQ(ref.delay_ps.size(), res.delay_ps.size());
    for (std::size_t i = 0; i < ref.delay_ps.size(); ++i) {
      ASSERT_EQ(ref.delay_ps[i], res.delay_ps[i])
          << "threads = " << threads << ", sample " << i;
      ASSERT_EQ(ref.leakage_na[i], res.leakage_na[i])
          << "threads = " << threads << ", sample " << i;
    }
  }
}

TEST_F(McTest, SampleStreamsIndependentOfSampleCount) {
  // Counter-based streams: sample i's draws depend only on (seed, i), never
  // on how many samples ran before it. A shorter run is a strict prefix of
  // a longer one.
  McConfig small;
  small.num_samples = 50;
  small.seed = 11;
  McConfig large = small;
  large.num_samples = 200;
  const McResult a = run_monte_carlo(circuit_, lib_, var_, small);
  const McResult b = run_monte_carlo(circuit_, lib_, var_, large);
  for (std::size_t i = 0; i < a.delay_ps.size(); ++i) {
    ASSERT_EQ(a.delay_ps[i], b.delay_ps[i]) << "sample " << i;
    ASSERT_EQ(a.leakage_na[i], b.leakage_na[i]) << "sample " << i;
  }
}

TEST_F(McTest, DifferentSeedsDiffer) {
  McConfig cfg;
  cfg.num_samples = 100;
  cfg.seed = 5;
  const McResult a = run_monte_carlo(circuit_, lib_, var_, cfg);
  cfg.seed = 6;
  const McResult b = run_monte_carlo(circuit_, lib_, var_, cfg);
  EXPECT_NE(a.delay_ps[0], b.delay_ps[0]);
}

TEST_F(McTest, ZeroVariationGivesConstantSamples) {
  McConfig cfg;
  cfg.num_samples = 50;
  const VariationModel none = VariationModel::none();
  const McResult res = run_monte_carlo(circuit_, lib_, none, cfg);
  const StaEngine sta(circuit_, lib_);
  for (double d : res.delay_ps) {
    EXPECT_NEAR(d, sta.critical_delay_ps(), 1e-9);
  }
  const double nominal_leak = res.leakage_na[0];
  for (double l : res.leakage_na) EXPECT_DOUBLE_EQ(l, nominal_leak);
}

TEST_F(McTest, YieldBracketsAndStderr) {
  McConfig cfg;
  cfg.num_samples = 2000;
  const McResult res = run_monte_carlo(circuit_, lib_, var_, cfg);
  const SampleSummary s = res.delay_summary();
  EXPECT_EQ(res.timing_yield(s.max + 1.0), 1.0);
  EXPECT_EQ(res.timing_yield(s.min - 1.0), 0.0);
  const double y = res.timing_yield(s.p50);
  EXPECT_NEAR(y, 0.5, 0.05);
  EXPECT_GT(res.yield_stderr(s.p50), 0.0);
  EXPECT_LT(res.yield_stderr(s.p50), 0.02);
}

TEST_F(McTest, ExactDelayModeCloseToLinear) {
  McConfig lin;
  lin.num_samples = 2000;
  lin.seed = 9;
  McConfig exact = lin;
  exact.exact_delay = true;
  const McResult a = run_monte_carlo(circuit_, lib_, var_, lin);
  const McResult b = run_monte_carlo(circuit_, lib_, var_, exact);
  const double mean_lin = a.delay_summary().mean;
  const double mean_exact = b.delay_summary().mean;
  EXPECT_NEAR(mean_lin, mean_exact, 0.05 * mean_exact);
}

TEST_F(McTest, DelayAndLeakageAntiCorrelated) {
  // Slow dies (long channels) leak less: the defining coupling of the
  // problem. Correlation of per-sample delay and leakage must be negative.
  McConfig cfg;
  cfg.num_samples = 4000;
  const McResult res = run_monte_carlo(circuit_, lib_, var_, cfg);
  EXPECT_LT(correlation(res.delay_ps, res.leakage_na), -0.3);
}

TEST_F(McTest, RejectsBadConfig) {
  McConfig cfg;
  cfg.num_samples = 0;
  EXPECT_THROW(run_monte_carlo(circuit_, lib_, var_, cfg), Error);
}

TEST_F(McTest, LeakageSamplesSkewedRight) {
  // Lognormal-like totals: mean > median.
  McConfig cfg;
  cfg.num_samples = 6000;
  const McResult res = run_monte_carlo(circuit_, lib_, var_, cfg);
  const SampleSummary s = res.leakage_summary();
  EXPECT_GT(s.mean, s.p50);
}

// ------------------------------------------------- chunked scheduling ---

using SlotRun = std::pair<std::uint64_t, std::uint64_t>;  // [begin, end)

/// Collects the runs a shard flushes through its block sink, in arrival
/// order (the sink is called concurrently from the workers).
class RunLog {
 public:
  McBlockSink sink() {
    return [this](std::uint64_t begin, std::span<const double> delay,
                  std::span<const double> /*leak*/) {
      const std::lock_guard<std::mutex> lock(mutex_);
      runs_.emplace_back(begin, begin + delay.size());
    };
  }
  const std::vector<SlotRun>& runs() const { return runs_; }

 private:
  std::mutex mutex_;
  std::vector<SlotRun> runs_;
};

/// The runs one static shard over [first, last) flushes: blocks of `block`
/// slots from `first`, a flush whenever `every` computed slots have
/// accumulated, and the remainder at the end.
std::vector<SlotRun> single_shard_runs(std::uint64_t first,
                                       std::uint64_t last, std::size_t block,
                                       std::size_t every) {
  std::vector<SlotRun> runs;
  std::uint64_t run_begin = first;
  for (std::uint64_t s0 = first; s0 < last; s0 += block) {
    const std::uint64_t covered = std::min<std::uint64_t>(s0 + block, last);
    if (covered - run_begin >= every) {
      runs.emplace_back(run_begin, covered);
      run_begin = covered;
    }
  }
  if (run_begin < last) runs.emplace_back(run_begin, last);
  return runs;
}

TEST_F(McTest, ChunkedScheduleIsBitIdenticalAndFlushesEverySlotOnce) {
  // Workers claim whole-block chunks from a shared cursor, so which worker
  // computes a slot depends on timing. Sample streams and outputs are
  // addressed by slot, so the bits must not: every thread x batch
  // combination reproduces the 1-thread scalar oracle, and the flushed
  // runs tile the range exactly once. 2988 slots are a multiple of no
  // chunk size used here.
  McConfig cfg;
  cfg.num_samples = 3001;
  cfg.seed = 31;
  cfg.checkpoint_every = 50;
  cfg.num_threads = 1;
  cfg.use_batched = false;
  const McResult ref = run_monte_carlo(circuit_, lib_, var_, cfg);
  constexpr std::uint64_t kFirst = 13;
  constexpr std::uint64_t kLast = 3001;

  cfg.use_batched = true;
  for (const int batch : {1, 7, 0}) {
    for (const int threads : {1, 2, 3, 8}) {
      cfg.batch_size = batch;
      cfg.num_threads = threads;
      const McResult full = run_monte_carlo(circuit_, lib_, var_, cfg);
      ASSERT_EQ(full.delay_ps.size(), ref.delay_ps.size());
      for (std::size_t i = 0; i < ref.delay_ps.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(ref.delay_ps[i]),
                  std::bit_cast<std::uint64_t>(full.delay_ps[i]))
            << "batch " << batch << " threads " << threads << " slot " << i;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(ref.leakage_na[i]),
                  std::bit_cast<std::uint64_t>(full.leakage_na[i]))
            << "batch " << batch << " threads " << threads << " slot " << i;
      }

      RunLog log;
      const McShardResult shard = run_monte_carlo_shard(
          circuit_, lib_, var_, cfg, kFirst, kLast, log.sink());
      ASSERT_TRUE(shard.completed);
      std::vector<int> hits(kLast - kFirst, 0);
      for (const auto& [begin, end] : log.runs()) {
        ASSERT_LE(kFirst, begin);
        ASSERT_LT(begin, end);
        ASSERT_LE(end, kLast);
        for (std::uint64_t s = begin; s < end; ++s) ++hits[s - kFirst];
      }
      for (std::size_t i = 0; i < hits.size(); ++i) {
        ASSERT_EQ(hits[i], 1) << "batch " << batch << " threads " << threads
                              << " slot " << kFirst + i;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(ref.delay_ps[kFirst + i]),
                  std::bit_cast<std::uint64_t>(shard.delay_ps[i]))
            << "batch " << batch << " threads " << threads << " slot "
            << kFirst + i;
      }
    }
  }
}

TEST_F(McTest, OneThreadFlushesExactlyTheSingleShardRanges) {
  // One worker claims every chunk in order and merges adjacent chunks into
  // one run, so its flushes are those of one static shard over the range:
  // same cuts, same order, on both engines.
  constexpr std::uint64_t kFirst = 37;
  constexpr std::uint64_t kLast = 3001;
  for (const bool batched : {true, false}) {
    for (const int batch : {1, 7, 0}) {
      for (const int every : {1, 50, 4096}) {
        McConfig cfg;
        cfg.num_samples = 3001;
        cfg.seed = 3;
        cfg.num_threads = 1;
        cfg.use_batched = batched;
        cfg.batch_size = batch;
        cfg.checkpoint_every = every;
        RunLog log;
        (void)run_monte_carlo_shard(circuit_, lib_, var_, cfg, kFirst, kLast,
                                    log.sink());
        const std::size_t block =
            batched ? resolve_batch_size(batch, circuit_.num_gates()) : 1;
        EXPECT_EQ(log.runs(), single_shard_runs(kFirst, kLast, block,
                                                static_cast<std::size_t>(
                                                    every)))
            << "batched " << batched << " batch " << batch << " every "
            << every;
      }
    }
  }
}

}  // namespace
}  // namespace statleak
