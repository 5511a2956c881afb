#include "sinr/power_control.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"

namespace decaylib::sinr {

namespace {

// The Foschini-Miljanic loop over a prebuilt normalised-gain matrix B
// (row-major k x k, flat: the loop runs per admitted link per sweep cell,
// so the matrix avoids per-row allocations and indirection) and constant
// term c.
PowerControlResult RunFixedPoint(const std::vector<double>& B,
                                 const std::vector<double>& c, double noise,
                                 int max_iterations, double tol) {
  PowerControlResult result;
  const std::size_t k = c.size();
  std::vector<double> p(k, 1.0);
  std::vector<double> next(k, 0.0);
  double growth = 0.0;
  for (int iter = 0; iter < max_iterations; ++iter) {
    result.iterations = iter + 1;
    // next = c + B p.  Four rows accumulate together, each in its own
    // ascending-j chain, so every next[i] is the same sequence of roundings
    // as a one-row loop while four add chains overlap instead of one.
    std::size_t i4 = 0;
    for (; i4 + 4 <= k; i4 += 4) {
      const double* r0 = B.data() + i4 * k;
      const double* r1 = r0 + k;
      const double* r2 = r1 + k;
      const double* r3 = r2 + k;
      double acc0 = c[i4];
      double acc1 = c[i4 + 1];
      double acc2 = c[i4 + 2];
      double acc3 = c[i4 + 3];
      for (std::size_t j = 0; j < k; ++j) {
        const double pj = p[j];
        acc0 += r0[j] * pj;
        acc1 += r1[j] * pj;
        acc2 += r2[j] * pj;
        acc3 += r3[j] * pj;
      }
      next[i4] = acc0;
      next[i4 + 1] = acc1;
      next[i4 + 2] = acc2;
      next[i4 + 3] = acc3;
    }
    for (; i4 < k; ++i4) {
      double acc = c[i4];
      const double* row = B.data() + i4 * k;
      for (std::size_t j = 0; j < k; ++j) acc += row[j] * p[j];
      next[i4] = acc;
    }
    double max_next = 0.0;
    double max_rel_change = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      max_next = std::max(max_next, next[i]);
      if (p[i] > 0.0) {
        max_rel_change =
            std::max(max_rel_change,
                     std::abs(next[i] - p[i]) / std::max(p[i], 1e-300));
      }
    }
    if (max_next == 0.0) {
      // No interference and no noise at all: any positive power works.
      result.feasible = true;
      result.power.assign(k, 1.0);
      result.spectral_radius_estimate = 0.0;
      break;
    }
    growth = max_next / *std::max_element(p.begin(), p.end());
    result.spectral_radius_estimate = growth;
    if (noise > 0.0) {
      // Affine iteration: converges iff rho(B) < 1; detect by stabilisation
      // or blow-up.
      if (max_rel_change < tol) {
        result.feasible = true;
        result.power = next;
        break;
      }
      if (max_next > 1e30) {
        result.feasible = false;
        break;
      }
      p.swap(next);
    } else {
      // Linear iteration: shifted power iteration on B + I.  The shift makes
      // the matrix aperiodic (plain iteration on B oscillates on 2-cycles,
      // e.g. a pair of links), converging to the Perron vector with growth
      // 1 + rho(B).
      double shifted_max = 0.0;
      for (std::size_t i = 0; i < k; ++i) {
        next[i] += p[i];
        shifted_max = std::max(shifted_max, next[i]);
      }
      growth = shifted_max;  // max(p) is 1 after normalisation
      result.spectral_radius_estimate = growth - 1.0;
      for (std::size_t i = 0; i < k; ++i) next[i] /= shifted_max;
      double drift = 0.0;
      for (std::size_t i = 0; i < k; ++i) drift += std::abs(next[i] - p[i]);
      p.swap(next);
      if (drift < tol && result.iterations > 3) {
        result.feasible = result.spectral_radius_estimate <= 1.0 + 10.0 * tol;
        result.power = p;
        break;
      }
    }
    if (result.iterations == max_iterations) {
      // Did not settle: judge by the last growth rate (for the affine/noise
      // iteration growth ~ 1 means near-convergence; for the shifted linear
      // iteration the estimate is rho(B) itself).
      const double rate =
          noise > 0.0 ? growth : result.spectral_radius_estimate;
      result.feasible = rate <= 1.0 + 10.0 * tol;
      result.power = p;
    }
  }
  if (result.feasible && !result.power.empty()) {
    const double top = *std::max_element(result.power.begin(),
                                         result.power.end());
    if (top > 0.0) {
      for (double& x : result.power) x /= top;
    } else {
      result.power.assign(k, 1.0);
    }
  }
  return result;
}

}  // namespace

PowerControlResult FeasibleWithPowerControl(const KernelCache& kernel,
                                            std::span<const int> S,
                                            int max_iterations, double tol) {
  PowerControlResult result;
  const auto k = S.size();
  if (k == 0) {
    result.feasible = true;
    return result;
  }
  const double beta = kernel.system().config().beta;
  const double noise = kernel.system().config().noise;

  // B[i][j] = beta * G(S[j] -> S[i]) / G(S[i] -> S[i]) = beta * f_ii / f_ji
  // (decay form, zero diagonal): the kernel's normalised-gain entries.
  std::vector<double> B(k * k, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      if (i == j) continue;
      B[i * k + j] = kernel.NormalizedGain(S[i], S[j]);
    }
  }
  // Constant term: beta * N * f_ii.
  std::vector<double> c(k, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    c[i] = beta * noise * kernel.LinkDecay(S[i]);
  }
  return RunFixedPoint(B, c, noise, max_iterations, tol);
}

double PairwiseAffectanceProduct(const KernelCache& kernel, int v, int w) {
  DL_CHECK(v != w, "need two distinct links");
  const double beta = kernel.system().config().beta;
  return beta * beta * kernel.LinkDecay(v) * kernel.LinkDecay(w) /
         (kernel.CrossDecay(v, w) * kernel.CrossDecay(w, v));
}

bool HasPairwiseObstruction(const KernelCache& kernel,
                            std::span<const int> S) {
  const double beta = kernel.system().config().beta;
  for (std::size_t i = 0; i < S.size(); ++i) {
    for (std::size_t j = i + 1; j < S.size(); ++j) {
      if (PairwiseAffectanceProduct(kernel, S[i], S[j]) > beta * beta) {
        return true;
      }
    }
  }
  return false;
}

std::vector<int> GreedyPowerControlFeasible(const KernelCache& kernel) {
  const double beta = kernel.system().config().beta;
  std::vector<int> S;
  for (const int v : kernel.OrderByDecay()) {
    bool obstructed = false;
    for (const int w : S) {
      if (PairwiseAffectanceProduct(kernel, v, w) > beta * beta) {
        obstructed = true;
        break;
      }
    }
    if (obstructed) continue;
    S.push_back(v);
    if (!FeasibleWithPowerControl(kernel, S, kGreedyPowerControlIterations,
                                  kGreedyPowerControlTol)
             .feasible) {
      S.pop_back();
    }
  }
  return S;
}

}  // namespace decaylib::sinr
