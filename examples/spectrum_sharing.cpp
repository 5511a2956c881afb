// Spectrum sharing / admission control on a measured decay matrix.
//
//   $ ./spectrum_sharing
//
// A secondary-spectrum operator measures its deployment (RSSI campaign),
// reports the decay-space health metrics (zeta, phi, spread, censoring), and
// runs admission control: a primary set of links is protected, and
// secondary links are admitted while the combined set stays feasible --
// the capacity-as-admission-oracle pattern behind the spectrum-auction
// transfer results the paper lists (Sec. 2.3, [38, 37]).
#include <cstdio>

#include "core/metricity.h"
#include "env/propagation.h"
#include "geom/rng.h"
#include "measurement/rssi.h"
#include "sinr/kernel.h"
#include "sinr/power.h"

using namespace decaylib;

int main() {
  // Ground truth environment: a dense urban-ish space with shadowing.
  geom::Rng rng(99);
  std::vector<geom::Vec2> points;
  std::vector<sinr::Link> links;
  for (int i = 0; i < 14; ++i) {
    const geom::Vec2 s{rng.Uniform(0.0, 40.0), rng.Uniform(0.0, 40.0)};
    points.push_back(s);
    points.push_back(s + geom::Vec2{rng.Uniform(1.0, 2.0), 0.0}.Rotated(
                             rng.Uniform(0.0, 2 * M_PI)));
    links.push_back({2 * i, 2 * i + 1});
  }
  env::Environment city;
  city.AddWall({{20.0, 0.0}, {20.0, 28.0}});
  city.AddWall({{8.0, 32.0}, {36.0, 32.0}});
  env::PropagationConfig config;
  config.alpha = 3.2;
  config.shadowing_sigma_db = 6.0;
  const core::DecaySpace truth =
      env::BuildDecaySpace(city, config, env::PlaceIsotropic(points));

  // Measurement campaign: 1 dB RSSI registers, finite sensitivity.
  measurement::RssiConfig rssi;
  rssi.quantization_db = 1.0;
  rssi.noise_sigma_db = 0.5;
  rssi.readings_per_pair = 8;
  rssi.sensitivity_dbm = -110.0;
  geom::Rng mrng(7);
  const auto table = measurement::SimulateRssi(truth, rssi, mrng);
  const core::DecaySpace measured =
      measurement::InferDecayFromRssi(table, rssi);

  std::printf("measured decay space health report\n");
  std::printf("  nodes:           %d\n", measured.size());
  std::printf("  censored pairs:  %.1f%%\n",
              100.0 * measurement::CensoredFraction(table));
  std::printf("  decay spread:    %.2e\n", measured.DecaySpread());
  std::printf("  metricity zeta:  %.3f (free-space alpha %.1f)\n",
              core::Metricity(measured), config.alpha);
  std::printf("  variant phi:     %.3f\n",
              core::ComputePhi(measured).phi);

  // Admission control: links 0-4 are the protected primary; admit
  // secondaries in order of increasing decay while the union stays feasible
  // with a protection margin (K = 2 on the primaries).
  const sinr::LinkSystem system(measured, links, {2.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  std::vector<int> active{0, 1, 2, 3, 4};
  std::printf("\nprimary set {0..4} feasible: %s\n",
              kernel.IsFeasible(active) ? "yes" : "no");

  const auto order = kernel.OrderByDecay();
  int admitted = 0;
  for (int v : order) {
    if (v <= 4) continue;  // already primary
    active.push_back(v);
    const bool secondary_ok = kernel.IsFeasible(active);
    bool primary_protected = true;
    for (int p = 0; p <= 4; ++p) {
      if (kernel.InAffectance(active, p) > 0.5) {
        primary_protected = false;
      }
    }
    if (secondary_ok && primary_protected) {
      ++admitted;
      std::printf("  admit link %2d  (in-affectance headroom kept)\n", v);
    } else {
      active.pop_back();
      std::printf("  reject link %2d (%s)\n", v,
                  !primary_protected ? "would break primary protection"
                                     : "union infeasible");
    }
  }
  std::printf("\nadmitted %d of %d secondary links; final set of %zu "
              "links remains feasible: %s\n",
              admitted, system.NumLinks() - 5, active.size(),
              kernel.IsFeasible(active) ? "yes" : "no");
  return 0;
}
