/// \file variation.hpp
/// \brief Process-variation model: inter-die + intra-die dL and dVth.
///
/// Following the DAC'04 setup, two physical parameters vary:
///   dL    — effective channel-length deviation [nm]
///   dVth  — threshold-voltage deviation [V] (random dopant fluctuation etc.)
/// Each splits into an inter-die (globally shared across all gates of one
/// die) and an intra-die (independent per gate) Gaussian component:
///   dL_i    = dL_glob + dL_loc,i
///   dVth_i  = dVth_glob + dVth_loc,i
/// All four components are zero-mean and mutually independent.

#pragma once

#include <cmath>
#include <cstddef>
#include <span>

#include "util/rng.hpp"

namespace statleak {

/// Standard deviations of the four variation components.
struct VariationModel {
  double sigma_l_inter_nm = 2.12;    ///< inter-die sigma of dL [nm]
  double sigma_l_intra_nm = 2.12;    ///< intra-die sigma of dL [nm]
  double sigma_vth_inter_v = 0.005;  ///< inter-die sigma of dVth [V]
  double sigma_vth_intra_v = 0.012;  ///< intra-die sigma of dVth [V]

  /// Pelgrom scaling of random-dopant-fluctuation Vth variation: when
  /// enabled, a gate's intra-die Vth sigma is
  ///   sigma_vth_intra_v * sqrt(pelgrom_ref_width_um / device_width_um),
  /// i.e. the nominal sigma applies to a device of the reference width and
  /// wider (upsized) gates average their dopant fluctuations away. This is
  /// the extension axis the paper's follow-on work explores: sizing then
  /// buys variance reduction on top of drive.
  bool pelgrom_vth_scaling = false;
  double pelgrom_ref_width_um = 1.4;  ///< width with nominal intra sigma

  /// Intra-die Vth sigma [V] of a gate whose total device width is
  /// `device_width_um` (returns sigma_vth_intra_v when scaling is off).
  /// Inline: called per gate per sample in the Monte-Carlo hot loop.
  double sigma_vth_intra_for(double device_width_um) const {
    if (!pelgrom_vth_scaling || device_width_um <= 0.0) {
      return sigma_vth_intra_v;
    }
    return sigma_vth_intra_v *
           std::sqrt(pelgrom_ref_width_um / device_width_um);
  }

  /// Total channel-length sigma [nm] (inter and intra in quadrature).
  double sigma_l_total_nm() const {
    return std::sqrt(sigma_l_inter_nm * sigma_l_inter_nm +
                     sigma_l_intra_nm * sigma_l_intra_nm);
  }
  /// Total threshold-voltage sigma [V].
  double sigma_vth_total_v() const {
    return std::sqrt(sigma_vth_inter_v * sigma_vth_inter_v +
                     sigma_vth_intra_v * sigma_vth_intra_v);
  }

  /// Throws statleak::Error on negative sigmas.
  void validate() const;

  /// A model with all sigmas zero (deterministic limit; useful in tests).
  static VariationModel none();

  /// Default DAC'04-era model: 3*sigma(L) = 15 % of a 60 nm Leff split
  /// 50/50 inter/intra in variance; Vth variation intra-dominant (RDF).
  static VariationModel typical_100nm();

  /// Scales every sigma by the given factor (sensitivity studies).
  VariationModel scaled(double factor) const;
};

/// One sampled die-level (global) variation draw.
struct GlobalSample {
  double dl_nm = 0.0;
  double dvth_v = 0.0;
};

/// One sampled per-gate total variation (global + that gate's local draw).
struct ParamSample {
  double dl_nm = 0.0;
  double dvth_v = 0.0;
};

/// Draws the shared inter-die components for one simulated die.
/// Inline (with the draw helpers below): these sit inside the Monte-Carlo
/// hot loop, and both the scalar and batched engines must issue the exact
/// same normal() call sequence to stay bit-identical — sharing one inlined
/// definition guarantees that by construction.
inline GlobalSample sample_global(const VariationModel& model, Rng& rng) {
  return GlobalSample{rng.normal(0.0, model.sigma_l_inter_nm),
                      rng.normal(0.0, model.sigma_vth_inter_v)};
}

/// Draws one gate's total variation given the die's global components.
/// `device_width_um` feeds the Pelgrom scaling; pass a non-positive value
/// (default) to use the nominal intra-die Vth sigma.
inline ParamSample sample_gate(const VariationModel& model,
                               const GlobalSample& g, Rng& rng,
                               double device_width_um = -1.0) {
  return ParamSample{
      g.dl_nm + rng.normal(0.0, model.sigma_l_intra_nm),
      g.dvth_v +
          rng.normal(0.0, model.sigma_vth_intra_for(device_width_um))};
}

/// Draws the per-gate deviates of one die: gate id's dL goes to
/// dl[id * stride] and its dVth to dv[id * stride], for every id in
/// [0, widths.size()). Bit for bit the sequence of
/// `sample_gate(model, g, rng, widths[id])` calls — same normals, same
/// arithmetic, same order — leaving `rng` in the same state. It is the
/// Monte-Carlo engines' hot loop, so it works on a local copy of the
/// generator whose four state words stay in registers across the loop
/// (written back once), and on local copies of the model's sigmas, which
/// the stores through `dl`/`dv` could otherwise alias and force to be
/// reloaded for every gate. The batched engines call it through
/// draw_lanes (mc/lane_draw.hpp), which runs W dies of a block at once in
/// SIMD lanes with this routine's exact arithmetic and keeps sample_gates
/// for the lanes left over; its tests use sample_gates as the reference.
inline void sample_gates(const VariationModel& model, const GlobalSample& g,
                         Rng& rng, std::span<const double> widths, double* dl,
                         double* dv, std::size_t stride) {
  Rng local = rng;
  const double g_dl = g.dl_nm;
  const double g_dvth = g.dvth_v;
  const double sigma_l = model.sigma_l_intra_nm;
  const double sigma_v = model.sigma_vth_intra_v;
  const bool pelgrom = model.pelgrom_vth_scaling;
  const double ref_width = model.pelgrom_ref_width_um;
  for (std::size_t id = 0; id < widths.size(); ++id) {
    // The expressions of sample_gate / sigma_vth_intra_for, on the locals.
    const double w = widths[id];
    const double dl_nm = g_dl + local.normal(0.0, sigma_l);
    const double sigma_vw = !pelgrom || w <= 0.0
                                ? sigma_v
                                : sigma_v * std::sqrt(ref_width / w);
    const double dvth_v = g_dvth + local.normal(0.0, sigma_vw);
    dl[id * stride] = dl_nm;
    dv[id * stride] = dvth_v;
  }
  rng = local;
}

}  // namespace statleak
