// Unit tests for statleak_tech: process nodes, device models, and the
// variation model. Key properties: leakage is exponential in (dL, dVth) with
// exactly the advertised sensitivities, delay sensitivities match finite
// differences of the actual drive model, and dual-Vth gives the expected
// order-of-magnitude leakage ratio.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "tech/device.hpp"
#include "tech/process.hpp"
#include "tech/variation.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace statleak {
namespace {

TEST(ProcessNode, FactoriesValidate) {
  EXPECT_NO_THROW(generic_100nm().validate());
  EXPECT_NO_THROW(generic_70nm().validate());
}

TEST(ProcessNode, VthOfSelectsClass) {
  const ProcessNode node = generic_100nm();
  EXPECT_DOUBLE_EQ(node.vth_of(Vth::kLow), node.vth_low);
  EXPECT_DOUBLE_EQ(node.vth_of(Vth::kHigh), node.vth_high);
  EXPECT_LT(node.vth_low, node.vth_high);
}

TEST(ProcessNode, ValidateRejectsNonPhysical) {
  ProcessNode node = generic_100nm();
  node.vdd = -1.0;
  EXPECT_THROW(node.validate(), Error);

  node = generic_100nm();
  node.vth_high = node.vth_low - 0.01;
  EXPECT_THROW(node.validate(), Error);

  node = generic_100nm();
  node.vth_high = node.vdd + 0.1;
  EXPECT_THROW(node.validate(), Error);

  node = generic_100nm();
  node.subthreshold_slope = 0.0;
  EXPECT_THROW(node.validate(), Error);

  node = generic_100nm();
  node.alpha = 3.0;
  EXPECT_THROW(node.validate(), Error);
}

TEST(VthEnum, ToString) {
  EXPECT_STREQ(to_string(Vth::kLow), "LVT");
  EXPECT_STREQ(to_string(Vth::kHigh), "HVT");
}

// ------------------------------------------------------------- leakage ----

TEST(Device, DualVthLeakageRatioIsOrderTenToThirty) {
  const ProcessNode node = generic_100nm();
  const double lvt = subthreshold_current_na(node, Vth::kLow, 1.0);
  const double hvt = subthreshold_current_na(node, Vth::kHigh, 1.0);
  const double ratio = lvt / hvt;
  // delta-Vth of 120 mV at 100 mV/dec -> ~16x.
  EXPECT_GT(ratio, 8.0);
  EXPECT_LT(ratio, 40.0);
}

TEST(Device, LeakageLinearInWidth) {
  const ProcessNode node = generic_100nm();
  const double i1 = subthreshold_current_na(node, Vth::kLow, 1.0);
  const double i3 = subthreshold_current_na(node, Vth::kLow, 3.0);
  EXPECT_NEAR(i3, 3.0 * i1, 1e-9);
}

TEST(Device, LeakageOneDecadePerSlope) {
  const ProcessNode node = generic_100nm();
  const double base = subthreshold_current_na(node, Vth::kLow, 1.0, 0.0, 0.0);
  const double shifted = subthreshold_current_na(node, Vth::kLow, 1.0, 0.0,
                                                 node.subthreshold_slope);
  EXPECT_NEAR(shifted, base / 10.0, base * 1e-9);
}

TEST(Device, ShorterChannelLeaksMore) {
  const ProcessNode node = generic_100nm();
  const double nom = subthreshold_current_na(node, Vth::kLow, 1.0, 0.0, 0.0);
  const double shorter = subthreshold_current_na(node, Vth::kLow, 1.0, -3.0, 0.0);
  const double longer = subthreshold_current_na(node, Vth::kLow, 1.0, 3.0, 0.0);
  EXPECT_GT(shorter, nom);
  EXPECT_LT(longer, nom);
}

TEST(Device, LeakageSensitivitiesMatchFiniteDifference) {
  const ProcessNode node = generic_100nm();
  for (Vth vth : {Vth::kLow, Vth::kHigh}) {
    const DeviceSensitivities s = device_sensitivities(node, vth);
    const double eps = 1e-4;
    const double i0 = subthreshold_current_na(node, vth, 1.0, 0.0, 0.0);
    const double il = subthreshold_current_na(node, vth, 1.0, eps, 0.0);
    const double iv = subthreshold_current_na(node, vth, 1.0, 0.0, eps);
    const double cl_fd = -(std::log(il) - std::log(i0)) / eps;
    const double cv_fd = -(std::log(iv) - std::log(i0)) / eps;
    EXPECT_NEAR(cl_fd, s.leak_cl_per_nm, 1e-6 * s.leak_cl_per_nm + 1e-9);
    EXPECT_NEAR(cv_fd, s.leak_cv_per_v, 1e-6 * s.leak_cv_per_v);
  }
}

TEST(Device, QuadraticExponentApplied) {
  ProcessNode node = generic_100nm();
  node.leak_quadratic_per_nm2 = 0.01;
  const double base = subthreshold_current_na(node, Vth::kLow, 1.0, 0.0, 0.0);
  const double at3 = subthreshold_current_na(node, Vth::kLow, 1.0, 3.0, 0.0);
  node.leak_quadratic_per_nm2 = 0.0;
  const double linear3 = subthreshold_current_na(node, Vth::kLow, 1.0, 3.0, 0.0);
  EXPECT_NEAR(at3, linear3 * std::exp(0.01 * 9.0), base * 1e-9);
}

// --------------------------------------------------------------- drive ----

TEST(Device, DriveLinearInWidth) {
  const ProcessNode node = generic_100nm();
  const double i1 = drive_current_ua(node, Vth::kLow, 1.0);
  const double i2 = drive_current_ua(node, Vth::kLow, 2.0);
  EXPECT_NEAR(i2, 2.0 * i1, 1e-9);
}

TEST(Device, HvtDrivesLess) {
  const ProcessNode node = generic_100nm();
  const double lvt = drive_current_ua(node, Vth::kLow, 1.0);
  const double hvt = drive_current_ua(node, Vth::kHigh, 1.0);
  EXPECT_LT(hvt, lvt);
  // alpha-power ratio: ((vdd-vth_h)/(vdd-vth_l))^alpha.
  const double expect = std::pow((node.vdd - node.vth_high) /
                                     (node.vdd - node.vth_low),
                                 node.alpha);
  EXPECT_NEAR(hvt / lvt, expect, 1e-9);
}

TEST(Device, LongerChannelDrivesLess) {
  const ProcessNode node = generic_100nm();
  const double nom = drive_current_ua(node, Vth::kLow, 1.0, 0.0, 0.0);
  const double longer = drive_current_ua(node, Vth::kLow, 1.0, 5.0, 0.0);
  EXPECT_LT(longer, nom);
}

TEST(Device, DelaySensitivitiesMatchFiniteDifference) {
  // Delay ~ 1/Id up to a constant, so dln(delay) = -dln(Id). The canonical
  // sL drops the (small) channel-length-modulation term that the exact
  // drive model carries, so compare against the exact model with a
  // tolerance covering that documented approximation.
  const ProcessNode node = generic_100nm();
  for (Vth vth : {Vth::kLow, Vth::kHigh}) {
    const DeviceSensitivities s = device_sensitivities(node, vth);
    const double eps = 1e-4;
    const double i0 = drive_current_ua(node, vth, 1.0, 0.0, 0.0);
    const double il = drive_current_ua(node, vth, 1.0, eps, 0.0);
    const double iv = drive_current_ua(node, vth, 1.0, 0.0, eps);
    const double sl_fd = -(std::log(il) - std::log(i0)) / eps;
    const double sv_fd = -(std::log(iv) - std::log(i0)) / eps;
    EXPECT_NEAR(sl_fd, s.delay_sl_per_nm, 0.05 * s.delay_sl_per_nm);
    EXPECT_NEAR(sv_fd, s.delay_sv_per_v, 1e-4 * s.delay_sv_per_v);
  }
}

TEST(Device, DriveThrowsWhenVthReachesVdd) {
  const ProcessNode node = generic_100nm();
  // A +1000 mV dVth excursion pushes Vth past Vdd.
  EXPECT_THROW(drive_current_ua(node, Vth::kHigh, 1.0, 0.0, 1.0), Error);
}

TEST(Device, Capacitances) {
  const ProcessNode node = generic_100nm();
  EXPECT_NEAR(gate_cap_ff(node, 2.0), 2.0 * node.cg_ff_per_um, 1e-12);
  EXPECT_NEAR(junction_cap_ff(node, 2.0), 2.0 * node.cj_ff_per_um, 1e-12);
}

// ------------------------------------------- presets + corner scaling ----

TEST(ProcessNode, RegistryListsEveryPresetAndResolvesAliases) {
  const std::vector<std::string> names = process_node_names();
  ASSERT_EQ(names.size(), 5u);
  for (const std::string& name : names) {
    EXPECT_NO_THROW(process_node_by_name(name).validate()) << name;
    EXPECT_EQ(process_node_by_name(name).name, name);
  }
  // The numeric aliases resolve to the classic factories.
  EXPECT_EQ(process_node_by_name("100").name, generic_100nm().name);
  EXPECT_EQ(process_node_by_name("70").name, generic_70nm().name);
  EXPECT_THROW(process_node_by_name("generic-65nm"), Error);
}

// Golden values pin each new preset's calibration: a drive-by edit to the
// constants shows up as a concrete number change here, not as a silent
// shift in every downstream experiment.
TEST(ProcessNode, NewPresetGoldenValues) {
  const auto check = [](const char* name, double lvt_leak, double hvt_leak,
                        double lvt_drive) {
    const ProcessNode node = process_node_by_name(name);
    EXPECT_NEAR(subthreshold_current_na(node, Vth::kLow, 1.0), lvt_leak,
                1e-5 * lvt_leak)
        << name;
    EXPECT_NEAR(subthreshold_current_na(node, Vth::kHigh, 1.0), hvt_leak,
                1e-5 * hvt_leak)
        << name;
    EXPECT_NEAR(drive_current_ua(node, Vth::kLow, 1.0), lvt_drive,
                1e-5 * lvt_drive)
        << name;
  };
  check("generic-130nm", 5.799516, 0.248297, 725.666046);
  check("generic-100nm-lp", 1.649683, 0.055426, 479.810285);
  check("generic-70nm-lp", 7.165929, 0.452140, 454.147538);
}

TEST(ProcessNode, ValidateRejectsTemperatureEditWithoutRetarget) {
  // temperature_k is baked into the calibrated constants: editing it in
  // place would silently keep the old-temperature calibration, so
  // validate() demands the at_temperature() retarget path instead.
  ProcessNode node = generic_100nm();
  node.temperature_k = 398.15;
  EXPECT_THROW(node.validate(), Error);
  EXPECT_NO_THROW(at_temperature(generic_100nm(), 398.15).validate());
}

TEST(ProcessNode, AtTemperatureAppliesFirstOrderScaling) {
  const ProcessNode base = generic_100nm();
  const ProcessNode hot = at_temperature(base, 398.15);
  const double ratio = 398.15 / base.temperature_k;
  EXPECT_NEAR(hot.subthreshold_slope, base.subthreshold_slope * ratio, 1e-12);
  EXPECT_NEAR(hot.i0_na_per_um, base.i0_na_per_um * ratio * ratio, 1e-9);
  EXPECT_NEAR(hot.vth_low,
              base.vth_low - base.vth_tc_v_per_k * (398.15 - base.temperature_k),
              1e-12);
  EXPECT_NEAR(hot.k_drive_ua_per_um,
              base.k_drive_ua_per_um * std::pow(ratio, -base.mobility_exponent),
              1e-9);
  EXPECT_EQ(hot.temperature_k, 398.15);
  EXPECT_EQ(hot.calib_temperature_k, 398.15);
  // Retargeting to the calibration temperature is the identity, bitwise.
  const ProcessNode same = at_temperature(base, base.temperature_k);
  EXPECT_EQ(same.subthreshold_slope, base.subthreshold_slope);
  EXPECT_EQ(same.i0_na_per_um, base.i0_na_per_um);
}

TEST(ProcessNode, AtVddDeratesThroughDibl) {
  const ProcessNode base = generic_100nm();
  const ProcessNode derated = at_vdd(base, 1.1);
  const double dvth = base.dibl_v_per_v * (base.vdd - 1.1);
  EXPECT_NEAR(derated.vth_low, base.vth_low + dvth, 1e-12);
  EXPECT_NEAR(derated.vth_high, base.vth_high + dvth, 1e-12);
  EXPECT_EQ(derated.vdd, 1.1);
  // Lower Vdd -> higher Vth -> less leakage.
  EXPECT_LT(subthreshold_current_na(derated, Vth::kLow, 1.0),
            subthreshold_current_na(base, Vth::kLow, 1.0));
}

TEST(ProcessNode, LeakageMonotonicallyIncreasesInTemperature) {
  for (const std::string& name : process_node_names()) {
    const ProcessNode base = process_node_by_name(name);
    for (Vth vth : {Vth::kLow, Vth::kHigh}) {
      double prev = -1.0;
      for (const double t : {313.15, 343.15, 373.0, 398.15, 423.15}) {
        const double leak =
            subthreshold_current_na(at_temperature(base, t), vth, 1.0);
        EXPECT_GT(leak, prev) << name << " at " << t << " K";
        prev = leak;
      }
    }
  }
}

TEST(ProcessNode, LeakageMonotonicallyDecreasesInVth) {
  // Across every shipped node, raising the threshold (LVT -> HVT, and any
  // positive dVth excursion on top) can only reduce subthreshold current.
  for (const std::string& name : process_node_names()) {
    const ProcessNode node = process_node_by_name(name);
    const double lvt = subthreshold_current_na(node, Vth::kLow, 1.0);
    const double hvt = subthreshold_current_na(node, Vth::kHigh, 1.0);
    EXPECT_GT(lvt, hvt) << name;
    EXPECT_GT(hvt, subthreshold_current_na(node, Vth::kHigh, 1.0, 0.0, 0.02))
        << name;
  }
}

TEST(ProcessNode, DelayMonotonicallyDecreasesInVdd) {
  // Alpha-power delay ~ C * Vdd / Id(Vdd): more supply always helps at
  // every shipped corner (DIBL raises Vth as Vdd derates, compounding it).
  for (const std::string& name : process_node_names()) {
    const ProcessNode base = process_node_by_name(name);
    for (Vth vth : {Vth::kLow, Vth::kHigh}) {
      double prev = std::numeric_limits<double>::infinity();
      for (const double f : {0.90, 0.95, 1.0, 1.05, 1.10}) {
        const ProcessNode node = at_vdd(base, f * base.vdd);
        const double delay = node.vdd / drive_current_ua(node, vth, 1.0);
        EXPECT_LT(delay, prev) << name << " at " << f << " x Vdd";
        prev = delay;
      }
    }
  }
}

TEST(ProcessNode, AtCornerComposesTemperatureAndVdd) {
  const ProcessNode base = generic_70nm();
  const ProcessNode corner = at_corner(base, 398.15, 0.9);
  const ProcessNode manual = at_vdd(at_temperature(base, 398.15), 0.9);
  EXPECT_EQ(corner.vth_low, manual.vth_low);
  EXPECT_EQ(corner.subthreshold_slope, manual.subthreshold_slope);
  EXPECT_EQ(corner.vdd, manual.vdd);
  // Non-positive axes leave the calibrated values untouched (bitwise).
  const ProcessNode untouched = at_corner(base, 0.0, 0.0);
  EXPECT_EQ(untouched.vth_low, base.vth_low);
  EXPECT_EQ(untouched.i0_na_per_um, base.i0_na_per_um);
}

// ----------------------------------------------------------- variation ----

TEST(Variation, TotalsAreQuadratureSums) {
  const VariationModel var{3.0, 4.0, 0.003, 0.004};
  EXPECT_NEAR(var.sigma_l_total_nm(), 5.0, 1e-12);
  EXPECT_NEAR(var.sigma_vth_total_v(), 0.005, 1e-12);
}

TEST(Variation, NoneIsZero) {
  const VariationModel var = VariationModel::none();
  EXPECT_EQ(var.sigma_l_total_nm(), 0.0);
  EXPECT_EQ(var.sigma_vth_total_v(), 0.0);
}

TEST(Variation, ScaledScalesEverySigma) {
  const VariationModel var = VariationModel::typical_100nm().scaled(2.0);
  const VariationModel base = VariationModel::typical_100nm();
  EXPECT_NEAR(var.sigma_l_inter_nm, 2.0 * base.sigma_l_inter_nm, 1e-12);
  EXPECT_NEAR(var.sigma_vth_intra_v, 2.0 * base.sigma_vth_intra_v, 1e-12);
  EXPECT_THROW(base.scaled(-1.0), Error);
}

TEST(Variation, ValidateRejectsNegative) {
  VariationModel var = VariationModel::typical_100nm();
  var.sigma_l_inter_nm = -1.0;
  EXPECT_THROW(var.validate(), Error);
}

TEST(Variation, SampleMomentsMatchModel) {
  const VariationModel var = VariationModel::typical_100nm();
  Rng rng(21);
  RunningStats dl_global;
  RunningStats dl_total;
  RunningStats dv_total;
  for (int i = 0; i < 50000; ++i) {
    const GlobalSample g = sample_global(var, rng);
    dl_global.add(g.dl_nm);
    const ParamSample p = sample_gate(var, g, rng);
    dl_total.add(p.dl_nm);
    dv_total.add(p.dvth_v);
  }
  EXPECT_NEAR(dl_global.mean(), 0.0, 0.05);
  EXPECT_NEAR(dl_global.stddev(), var.sigma_l_inter_nm, 0.05);
  EXPECT_NEAR(dl_total.stddev(), var.sigma_l_total_nm(), 0.05);
  EXPECT_NEAR(dv_total.stddev(), var.sigma_vth_total_v(), 0.001);
}

TEST(Variation, GatesOnSameDieShareGlobalComponent) {
  const VariationModel var = VariationModel::typical_100nm();
  Rng rng(22);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 30000; ++i) {
    const GlobalSample g = sample_global(var, rng);
    a.push_back(sample_gate(var, g, rng).dl_nm);
    b.push_back(sample_gate(var, g, rng).dl_nm);
  }
  // Correlation = sigma_inter^2 / sigma_total^2 = 0.5 for the 50/50 split.
  EXPECT_NEAR(correlation(a, b), 0.5, 0.03);
}

/// The ziggurat branch the next normal() of a generator in this state
/// enters first, read off its next raw draw and the public tables.
enum class ZigBranch { kFast, kBoundary, kWedge, kTail };
ZigBranch first_branch(Rng rng) {
  const detail::ZigguratTables& z = detail::kZiggurat;
  const std::uint64_t u = rng();
  const std::size_t i = u & 255u;
  if ((u >> 11) < z.layer[i].accept) return ZigBranch::kFast;
  const double x = static_cast<double>(u >> 11) * z.layer[i].scale;
  if (x < z.edge[i + 1]) return ZigBranch::kBoundary;
  return i == 0 ? ZigBranch::kTail : ZigBranch::kWedge;
}

TEST(Variation, SampleGatesMatchesSampleGateSequenceBitwise) {
  // sample_gates is the Monte-Carlo engines' draw loop; it must be the
  // sequence of sample_global + sample_gate calls bit for bit — values and
  // final generator state — with Pelgrom scaling on and off, over enough
  // normals (>= 10^7) that the ziggurat's wedge and tail branches fire.
  constexpr std::size_t kGates = 25000;
  constexpr std::size_t kStride = 3;
  std::vector<double> widths(kGates);
  for (std::size_t id = 0; id < kGates; ++id) {
    // Inputs (-1), a zero width, and a spread of real device widths.
    widths[id] = id % 97 == 0   ? -1.0
                 : id % 89 == 0 ? 0.0
                                : 0.3 + 0.01 * static_cast<double>(id % 500);
  }
  std::vector<double> dl(kGates * kStride);
  std::vector<double> dv(kGates * kStride);
  std::size_t normals = 0;
  std::size_t wedge = 0;
  std::size_t tail = 0;
  for (const bool pelgrom : {false, true}) {
    VariationModel var = VariationModel::typical_100nm();
    var.pelgrom_vth_scaling = pelgrom;
    for (std::uint64_t seed = 0; seed < 100; ++seed) {
      Rng ref = Rng::stream(0xC0FFEE + seed, seed);
      Rng got = ref;
      Rng probe = ref;

      const GlobalSample g_ref = sample_global(var, ref);
      const GlobalSample g_got = sample_global(var, got);
      sample_gates(var, g_got, got, widths, dl.data(), dv.data(), kStride);
      for (std::size_t id = 0; id < kGates; ++id) {
        const ParamSample p = sample_gate(var, g_ref, ref, widths[id]);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(p.dl_nm),
                  std::bit_cast<std::uint64_t>(dl[id * kStride]))
            << "dl, seed " << seed << " gate " << id << " pelgrom "
            << pelgrom;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(p.dvth_v),
                  std::bit_cast<std::uint64_t>(dv[id * kStride]))
            << "dv, seed " << seed << " gate " << id << " pelgrom "
            << pelgrom;
      }
      ASSERT_TRUE(got == ref) << "final state, seed " << seed;

      // The same normals once more, classifying each one's first branch.
      for (std::size_t k = 0; k < 2 + 2 * kGates; ++k) {
        const ZigBranch b = first_branch(probe);
        wedge += b == ZigBranch::kWedge ? 1 : 0;
        tail += b == ZigBranch::kTail ? 1 : 0;
        (void)probe.normal();
      }
      ASSERT_TRUE(probe == ref) << "probe state, seed " << seed;
      normals += 2 + 2 * kGates;
    }
  }
  EXPECT_GE(normals, std::size_t{10'000'000});
  EXPECT_GT(wedge, 0u);
  EXPECT_GT(tail, 0u);
}

}  // namespace
}  // namespace statleak
