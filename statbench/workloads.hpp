/// \file workloads.hpp
/// \brief The benchmark's three closed-loop workloads.
///
/// Each workload has three entry points:
///   * setup:  generates the input netlist from the seed and serializes it to
///             .bench text (plus any explicit delay target);
///   * run:    one untraced call of the workload's command through the
///             api/driver.hpp front door (obs == nullptr), timed around the
///             call — the end-to-end figures come from here;
///   * traced: the same work made one layer at a time through each layer's
///             public function with an obs::Registry attached, every call
///             timed from this file — the per-layer ledger comes from here.
/// Both paths produce the same named result digests; the caller compares
/// them with each other and, at the default seed, with pinned values.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace statbench {

/// The seed at which result digests are pinned: the s10k member's own seed
/// in gen/scaling.cpp. At this seed opt-s10k reads that member's .bench text
/// unshuffled.
inline constexpr std::uint64_t kDefaultSeed = 0xA0001;

/// Named FNV-1a digests of a result's raw bits.
using Digests = std::map<std::string, std::uint64_t>;

/// Generated inputs of one workload at one seed.
struct Prepared {
  std::string bench_text;
  std::string circuit_name;
  std::size_t cells = 0;
  /// Explicit delay target [ps] (opt-s10k); the other workloads let the
  /// command resolve theirs.
  double t_max_ps = 0.0;
  /// Monte-Carlo dies: the flow's cross-check or the mc command's run.
  int mc_samples = 0;
};

/// Files one operation may write. Each timed operation gets fresh paths;
/// the self-test reuses one on purpose.
struct OpFiles {
  std::string journal;     ///< optimizer journal (flow workload)
  std::string checkpoint;  ///< MC checkpoint (mc workload)
};

struct RunContext {
  std::uint64_t seed = kDefaultSeed;
  int threads = 1;
  OpFiles files;
  /// Traced pass only: when > 0, also time the workload's main call at this
  /// thread count for the *.thread_speedup metrics, and check its digests.
  int reference_threads = 0;
};

/// One untraced command call.
struct OpResult {
  double wall_s = 0.0;
  double work = 0.0;  ///< optimizer moves (det + stat iterations) or MC dies
  double leakage_p99_na = 0.0;
  double timing_yield = 0.0;
  double p99_saving = 0.0;  ///< flow only
  Digests digests;
  std::vector<std::string> errors;  ///< empty: the operation succeeded
};

/// One traced pass. `layers` holds per-layer metric values by name; names a
/// workload does not exercise are absent (they read as 0).
struct TracedResult {
  double wall_s = 0.0;
  /// Sum of the top-level layer spans timed around public calls.
  double spans_s = 0.0;
  std::map<std::string, double> layers;
  Digests digests;
  std::vector<std::string> errors;
};

struct Workload {
  const char* name;
  /// Threads the workload runs at, and the thread count its traced
  /// reference call runs at (0 = none). The caller clamps both to the
  /// host's cores.
  int threads;
  int reference_threads;
  /// work_per_s under its per-workload name: "moves_per_s" (det + stat
  /// iterations) or "samples_per_s" (MC dies).
  const char* work_metric;
  Prepared (*setup)(std::uint64_t seed);
  OpResult (*run)(const Prepared& in, const RunContext& ctx);
  TracedResult (*traced)(const Prepared& in, const RunContext& ctx);
};

/// flow-c7552p, opt-s10k, mc-c7552p.
const std::vector<Workload>& workloads();

/// The self-test's small inputs: the flow and mc workloads' commands,
/// traced paths and checks on the c880p proxy.
const std::vector<Workload>& selftest_workloads();

/// Digests pinned at kDefaultSeed for a workload (empty when none).
const Digests& pinned_digests(const std::string& workload);

}  // namespace statbench
