#include "core/metricity.h"

// decay-lint: allowlist-file(naked-thread) -- ComputePhi's fork-join scan
// joins every worker before returning; the split is a pure index partition,
// so results are bitwise independent of scheduling.  ComputeMetricity runs
// serially and forks nothing.

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "core/check.h"
#include "obs/registry.h"

namespace decaylib::core {

namespace {

// ComputeMetricity's scan counters (docs/observability.md), added once per
// scan from local tallies.
struct MetricityCounters {
  obs::Counter& filter_refreshes;
  obs::Counter& exact_prunes;
  obs::Counter& bisections;
};

MetricityCounters& Counters() {
  static MetricityCounters counters{
      obs::Registry::Global().GetCounter("core.metricity.filter_refreshes"),
      obs::Registry::Global().GetCounter("core.metricity.exact_prunes"),
      obs::Registry::Global().GetCounter("core.metricity.bisections")};
  return counters;
}

// Number of worker threads for an n-sized outer loop: never more threads
// than rows, and only one for small inputs where spawn overhead dominates.
int WorkerCount(int n) {
  const unsigned hc = std::thread::hardware_concurrency();
  int workers = static_cast<int>(hc == 0 ? 1 : hc);
  workers = std::min(workers, n);
  if (n < 64) workers = 1;
  return std::max(1, workers);
}

// Splits [0, n) into `workers` contiguous chunks and runs fn(chunk_index,
// begin, end) on each, inline when there is a single worker.
template <typename Fn>
void ParallelChunks(int n, int workers, Fn fn) {
  if (workers <= 1) {
    fn(0, 0, n);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers));
  const int per = (n + workers - 1) / workers;
  for (int t = 0; t < workers; ++t) {
    const int begin = t * per;
    const int end = std::min(n, begin + per);
    if (begin >= end) break;
    threads.emplace_back([=] { fn(t, begin, end); });
  }
  for (auto& thread : threads) thread.join();
}

}  // namespace

double TripletZeta(double a, double b, double c, double tol) {
  DL_CHECK(a > 0.0 && b > 0.0 && c > 0.0, "triplet decays must be positive");
  if (a <= b || a <= c) return 0.0;  // satisfied for every positive exponent
  // h(s) = (b/a)^s + (c/a)^s - 1, strictly decreasing, h(0) = 1 > 0,
  // h(inf) = -1.  Find the root s*; the triplet requires zeta >= 1/s*.
  const double rb = b / a;
  const double rc = c / a;
  auto h = [&](double s) { return std::pow(rb, s) + std::pow(rc, s) - 1.0; };
  // Bracket the root.
  double lo = 0.0;
  double hi = 1.0;
  while (h(hi) > 0.0) {
    lo = hi;
    hi *= 2.0;
    if (hi > 1e12) return 0.0;  // ratios ~1: constraint is vacuous in practice
  }
  // Bisection to relative tolerance on s.
  while (hi - lo > tol * hi) {
    const double mid = 0.5 * (lo + hi);
    if (h(mid) > 0.0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double s_star = 0.5 * (lo + hi);
  return 1.0 / s_star;
}

MetricityResult ComputeMetricity(const DecaySpace& space, double tol) {
  const int n = space.size();
  const double* f = space.Raw().data();
  const std::size_t sn = static_cast<std::size_t>(n);

  // Prune slack: TripletZeta bisects to relative tolerance `tol`, so the
  // value the naive scan records can exceed a triplet's exact root by
  // ~tol (plus pow rounding, covered by the 1e-13 floor).  Pruning against
  // incumbent / (1 + slack) guarantees that every triple whose *recorded*
  // zeta could beat the incumbent is still bisected, keeping the scan's
  // update sequence -- and hence value and witness -- identical to the
  // exhaustive reference scan's (tests/oracles).
  const double slack = 1.0 + 4.0 * tol + 1e-13;

  // Power-domain prefilter (soundness argument in metricity.h).  gt holds
  // the transposed power matrix gt[y][z] = f(z,y)^s_f, with +inf on the
  // diagonal so z == x and z == y never survive; gx is its row x.
  // Survivors run through the unfiltered per-triple code in ascending z, so
  // the update sequence is the naive one.
  //
  // max |lg f| + 1 over off-diagonal entries; +inf (never filter) for
  // n < 2 or a non-finite entry.
  const double log_span = std::max(std::abs(std::log2(space.MinDecay())),
                                   std::abs(std::log2(space.MaxDecay()))) +
                          1.0;
  std::vector<double> gt;
  std::vector<double> gx;
  double s_f = 0.0;  // 0: no filter yet

  long long refreshes = 0;
  long long exact_prunes = 0;
  long long bisections = 0;
  MetricityResult result;
  for (int x = 0; x < n; ++x) {
    if (result.zeta > 0.0) {
      const double s = slack / result.zeta;
      if ((s_f == 0.0 || s < 0.98 * s_f) && s * log_span <= 900.0) {
        gt.resize(sn * sn);
        for (std::size_t z = 0; z < sn; ++z) {
          for (std::size_t y = 0; y < sn; ++y) {
            gt[y * sn + z] = std::pow(f[z * sn + y], s);
          }
        }
        for (std::size_t d = 0; d < sn; ++d) {
          gt[d * sn + d] = std::numeric_limits<double>::infinity();
        }
        s_f = s;
        ++refreshes;
      }
    }
    if (s_f > 0.0) {
      gx.resize(sn);
      for (std::size_t z = 0; z < sn; ++z) {
        gx[z] = gt[z * sn + static_cast<std::size_t>(x)];
      }
    }
    const double* row_x = f + static_cast<std::size_t>(x) * sn;
    for (int y = 0; y < n; ++y) {
      if (y == x) continue;
      const double a = row_x[y];
      const auto visit = [&](int z) {
        if (z == x || z == y) return;
        const double b = row_x[z];
        if (a <= b) return;
        const double c =
            f[static_cast<std::size_t>(z) * sn + static_cast<std::size_t>(y)];
        if (a <= c) return;
        // Prune: h is strictly decreasing, so this triplet can only beat
        // the incumbent if h(slack / incumbent) < 0.  Two pows replace the
        // full bisection for almost every triple the filter lets through.
        if (result.zeta > 0.0) {
          ++exact_prunes;
          const double s = slack / result.zeta;
          if (std::pow(b / a, s) + std::pow(c / a, s) - 1.0 >= 0.0) return;
        }
        ++bisections;
        const double zeta = TripletZeta(a, b, c, tol);
        if (zeta > result.zeta) {
          result.zeta = zeta;
          result.arg_x = x;
          result.arg_y = y;
          result.arg_z = z;
        }
      };
      if (s_f == 0.0) {
        for (int z = 0; z < n; ++z) visit(z);
        continue;
      }
      // Four candidates per test, so the rare survivor costs one branch
      // per block instead of one per triple.
      const double* g_y = gt.data() + static_cast<std::size_t>(y) * sn;
      const double* g_x = gx.data();
      const double bound = g_x[y] * (1.0 + 1e-9);
      int z = 0;
      for (; z + 4 <= n; z += 4) {
        const bool any = (g_x[z] + g_y[z] < bound) |
                         (g_x[z + 1] + g_y[z + 1] < bound) |
                         (g_x[z + 2] + g_y[z + 2] < bound) |
                         (g_x[z + 3] + g_y[z + 3] < bound);
        if (!any) continue;
        for (int k = z; k < z + 4; ++k) {
          if (g_x[k] + g_y[k] < bound) visit(k);
        }
      }
      for (; z < n; ++z) {
        if (g_x[z] + g_y[z] < bound) visit(z);
      }
    }
  }
  Counters().filter_refreshes.Add(refreshes);
  Counters().exact_prunes.Add(exact_prunes);
  Counters().bisections.Add(bisections);
  return result;
}

double Metricity(const DecaySpace& space, double tol) {
  return ComputeMetricity(space, tol).zeta;
}

PhiResult ComputePhi(const DecaySpace& space) {
  const int n = space.size();
  const double* f = space.Raw().data();
  const std::size_t sn = static_cast<std::size_t>(n);

  // Transpose copy: the inner loop reads f(y, z) for fixed z over all y,
  // which is a stride-n walk on the row-major matrix; ft makes it
  // contiguous.
  std::vector<double> ft(sn * sn);
  for (std::size_t y = 0; y < sn; ++y) {
    for (std::size_t z = 0; z < sn; ++z) {
      ft[z * sn + y] = f[y * sn + z];
    }
  }

  // Row/column minima for the per-(x,z) block prune: for every admissible
  // waypoint y, the computed denominator fl(f(x,y) + f(y,z)) is at least
  // fl(row_min[x] + col_min[z]) -- fl(a+b) and fl(a/b) are monotone, so
  // fl(fxz / denom) <= fl(fxz / (row_min[x] + col_min[z])) holds *exactly*,
  // not just up to rounding.  When that upper bound does not beat the
  // incumbent, the whole inner y loop is skipped: an O(n^2) precomputation
  // that elides O(n^3) work on spaces with any decay spread.  (The minima
  // range over y != x resp. y != z, a superset of the admissible waypoints,
  // which only weakens the bound -- never unsoundly.)
  std::vector<double> row_min(sn), col_min(sn);
  for (std::size_t x = 0; x < sn; ++x) {
    double rm = std::numeric_limits<double>::infinity();
    double cm = std::numeric_limits<double>::infinity();
    const double* row_x = f + x * sn;
    const double* col_x = ft.data() + x * sn;
    for (std::size_t y = 0; y < sn; ++y) {
      if (y == x) continue;
      rm = std::min(rm, row_x[y]);
      cm = std::min(cm, col_x[y]);
    }
    row_min[x] = rm;
    col_min[x] = cm;
  }

  const int workers = WorkerCount(n);
  std::vector<PhiResult> partial(static_cast<std::size_t>(workers));

  // Chunk-local incumbents and two prunes.  The block prune above skips
  // entire (x,z) pairs whose exact upper bound cannot beat the incumbent.
  // Inside surviving blocks, a guard-banded multiplication prune drops
  // candidates clearly below the incumbent (by more than 1e-9 relative,
  // which dwarfs the few-ulp disagreement between `fxz <= g * denom` and
  // `fxz / denom <= g`); everything near or above it is decided by the
  // naive division comparison, so the update sequence -- value and
  // witness -- matches the exhaustive reference scan's exactly.
  ParallelChunks(n, workers, [&](int chunk, int begin, int end) {
    PhiResult local;
    for (int x = begin; x < end; ++x) {
      const double* row_x = f + static_cast<std::size_t>(x) * sn;
      for (int z = 0; z < n; ++z) {
        if (z == x) continue;
        const double fxz = row_x[z];
        if (fxz / (row_min[static_cast<std::size_t>(x)] +
                   col_min[static_cast<std::size_t>(z)]) <=
            local.phi_factor) {
          continue;
        }
        const double* col_z = ft.data() + static_cast<std::size_t>(z) * sn;
        // Row-min formulation: the exact denominator minimum for this
        // (x,z), as a branch-free min-plus reduction over four independent
        // accumulators (min is exactly associative and the adds are
        // elementwise, so the split changes nothing but the dependency
        // chain, which is what lets the compiler run it 4-wide).  The
        // y == x and y == z entries contribute the value fxz itself (their
        // other leg is the diagonal 0), i.e. a factor of exactly 1 -- they
        // can shrink dmin only when every admissible factor is below 1, so
        // the bound fxz / dmin >= any admissible fl(fxz / denom) still
        // holds exactly (fl(+), fl(/), min are monotone).  Only blocks
        // whose bound beats the incumbent fall through to the
        // witness-exact scalar scan below.
        double d0 = fxz + fxz, d1 = d0, d2 = d0, d3 = d0;
        int y4 = 0;
        for (; y4 + 4 <= n; y4 += 4) {
          const double e0 = row_x[y4] + col_z[y4];
          const double e1 = row_x[y4 + 1] + col_z[y4 + 1];
          const double e2 = row_x[y4 + 2] + col_z[y4 + 2];
          const double e3 = row_x[y4 + 3] + col_z[y4 + 3];
          d0 = e0 < d0 ? e0 : d0;
          d1 = e1 < d1 ? e1 : d1;
          d2 = e2 < d2 ? e2 : d2;
          d3 = e3 < d3 ? e3 : d3;
        }
        for (; y4 < n; ++y4) {
          const double e = row_x[y4] + col_z[y4];
          d0 = e < d0 ? e : d0;
        }
        const double dmin = std::min(std::min(d0, d1), std::min(d2, d3));
        if (fxz / dmin <= local.phi_factor) continue;
        // Stale after an in-loop update, i.e. merely prunes less until the
        // next z iteration; the update test below always uses the live value.
        const double guard = local.phi_factor * (1.0 - 1e-9);
        for (int y = 0; y < n; ++y) {
          if (y == x || y == z) continue;
          const double denom = row_x[y] + col_z[y];
          if (fxz <= guard * denom) continue;
          const double factor = fxz / denom;
          if (factor > local.phi_factor) {
            local.phi_factor = factor;
            local.arg_x = x;
            local.arg_y = y;
            local.arg_z = z;
          }
        }
      }
    }
    partial[static_cast<std::size_t>(chunk)] = local;
  });

  // Deterministic merge: chunks cover increasing x ranges, within a chunk
  // the scan runs in the naive lexicographic order with the naive update
  // rule, and ties across chunks resolve to the earlier chunk -- so the
  // first strictly-greater factor reproduces the naive argmax exactly.
  PhiResult result;
  for (const PhiResult& p : partial) {
    if (p.phi_factor > result.phi_factor) {
      result.phi_factor = p.phi_factor;
      result.arg_x = p.arg_x;
      result.arg_y = p.arg_y;
      result.arg_z = p.arg_z;
    }
  }
  result.phi = result.phi_factor > 0.0 ? std::log2(result.phi_factor) : 0.0;
  return result;
}

double MetricityUpperBound(const DecaySpace& space) {
  DL_CHECK(space.size() >= 2, "need at least two nodes");
  return std::log2(space.MaxDecay() / space.MinDecay());
}

}  // namespace decaylib::core
