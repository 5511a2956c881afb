// E0 -- micro-kernel timings with google-benchmark.
//
// Times the hot kernels of the library: metricity computation, affectance
// matrix evaluation, Algorithm 1, greedy capacity, fading-parameter
// estimation and decay-matrix generation.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "capacity/algorithm1.h"
#include "capacity/baselines.h"
#include "core/fading.h"
#include "core/metricity.h"
#include "env/propagation.h"
#include "geom/samplers.h"
#include "oracles/oracles.h"
#include "sinr/kernel.h"
#include "sinr/power.h"

using namespace decaylib;

namespace {

core::DecaySpace MakeSpace(int n) {
  geom::Rng rng(1);
  const auto pts = geom::SampleUniform(n, 20.0, 20.0, rng);
  return core::DecaySpace::Geometric(pts, 3.0);
}

void BM_Metricity(benchmark::State& state) {
  const core::DecaySpace space = MakeSpace(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Metricity(space));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Metricity)->Arg(16)->Arg(32)->Arg(64)->Complexity();

void BM_MetricityNaive(benchmark::State& state) {
  const core::DecaySpace space = MakeSpace(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ComputeMetricityNaive(space));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MetricityNaive)->Arg(16)->Arg(32)->Arg(64)->Complexity();

void BM_Phi(benchmark::State& state) {
  const core::DecaySpace space = MakeSpace(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ComputePhi(space));
  }
}
BENCHMARK(BM_Phi)->Arg(16)->Arg(32)->Arg(64);

void BM_AffectanceMatrix(benchmark::State& state) {
  const int links = static_cast<int>(state.range(0));
  geom::Rng rng(2);
  bench::PlanarDeployment dep(links, 25.0, 0.5, 1.5, rng);
  const core::DecaySpace space = core::DecaySpace::Geometric(dep.points, 3.0);
  const sinr::LinkSystem system(space, dep.links, {1.0, 0.0});
  const auto power = sinr::UniformPower(system);
  for (auto _ : state) {
    double total = 0.0;
    for (int v = 0; v < links; ++v) {
      for (int w = 0; w < links; ++w) {
        total += sinr::AffectanceNaive(system, w, v, power);
      }
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_AffectanceMatrix)->Arg(32)->Arg(64)->Arg(128);

void BM_Algorithm1(benchmark::State& state) {
  const int links = static_cast<int>(state.range(0));
  geom::Rng rng(3);
  bench::PlanarDeployment dep(links, 30.0, 0.5, 1.5, rng);
  const core::DecaySpace space = core::DecaySpace::Geometric(dep.points, 3.0);
  const sinr::LinkSystem system(space, dep.links, {1.0, 0.0});
  // Kernel build included: the cold cost of one run.
  for (auto _ : state) {
    const sinr::KernelCache kernel(system, sinr::UniformPower(system));
    benchmark::DoNotOptimize(capacity::RunAlgorithm1(kernel, 3.0));
  }
}
BENCHMARK(BM_Algorithm1)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_Algorithm1Naive(benchmark::State& state) {
  const int links = static_cast<int>(state.range(0));
  geom::Rng rng(3);
  bench::PlanarDeployment dep(links, 30.0, 0.5, 1.5, rng);
  const core::DecaySpace space = core::DecaySpace::Geometric(dep.points, 3.0);
  const sinr::LinkSystem system(space, dep.links, {1.0, 0.0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(capacity::RunAlgorithm1Naive(system, 3.0));
  }
}
BENCHMARK(BM_Algorithm1Naive)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_Algorithm1WarmKernel(benchmark::State& state) {
  const int links = static_cast<int>(state.range(0));
  geom::Rng rng(3);
  bench::PlanarDeployment dep(links, 30.0, 0.5, 1.5, rng);
  const core::DecaySpace space = core::DecaySpace::Geometric(dep.points, 3.0);
  const sinr::LinkSystem system(space, dep.links, {1.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  for (auto _ : state) {
    benchmark::DoNotOptimize(capacity::RunAlgorithm1(kernel, 3.0));
  }
}
BENCHMARK(BM_Algorithm1WarmKernel)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_KernelCacheBuild(benchmark::State& state) {
  const int links = static_cast<int>(state.range(0));
  geom::Rng rng(6);
  bench::PlanarDeployment dep(links, 30.0, 0.5, 1.5, rng);
  const core::DecaySpace space = core::DecaySpace::Geometric(dep.points, 3.0);
  const sinr::LinkSystem system(space, dep.links, {1.0, 0.0});
  const auto power = sinr::UniformPower(system);
  for (auto _ : state) {
    sinr::KernelCache kernel(system, power);
    benchmark::DoNotOptimize(kernel.AffectanceRaw(0, 1));
  }
}
BENCHMARK(BM_KernelCacheBuild)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_AffectanceMatrixCached(benchmark::State& state) {
  const int links = static_cast<int>(state.range(0));
  geom::Rng rng(2);
  bench::PlanarDeployment dep(links, 25.0, 0.5, 1.5, rng);
  const core::DecaySpace space = core::DecaySpace::Geometric(dep.points, 3.0);
  const sinr::LinkSystem system(space, dep.links, {1.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  for (auto _ : state) {
    double total = 0.0;
    for (int v = 0; v < links; ++v) {
      for (int w = 0; w < links; ++w) {
        total += kernel.Affectance(w, v);
      }
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_AffectanceMatrixCached)->Arg(32)->Arg(64)->Arg(128);

void BM_GreedyFeasible(benchmark::State& state) {
  const int links = static_cast<int>(state.range(0));
  geom::Rng rng(4);
  bench::PlanarDeployment dep(links, 30.0, 0.5, 1.5, rng);
  const core::DecaySpace space = core::DecaySpace::Geometric(dep.points, 3.0);
  const sinr::LinkSystem system(space, dep.links, {1.0, 0.0});
  const auto all = sinr::AllLinks(system);
  for (auto _ : state) {
    const sinr::KernelCache kernel(system, sinr::UniformPower(system));
    benchmark::DoNotOptimize(capacity::GreedyFeasible(kernel, all));
  }
}
BENCHMARK(BM_GreedyFeasible)->Arg(32)->Arg(64)->Arg(128);

void BM_FadingParameterGreedy(benchmark::State& state) {
  const core::DecaySpace space = MakeSpace(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::FadingParameter(space, 8.0, false));
  }
}
BENCHMARK(BM_FadingParameterGreedy)->Arg(16)->Arg(32)->Arg(64);

void BM_BuildDecaySpaceOffice(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  geom::Rng rng(5);
  const auto nodes =
      env::PlaceIsotropic(geom::SampleUniform(n, 24.0, 24.0, rng));
  env::Environment office = env::Environment::OfficeGrid(24.0, 24.0, 3, 3);
  env::PropagationConfig config;
  config.alpha = 2.8;
  config.shadowing_sigma_db = 4.0;
  config.enable_reflections = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(env::BuildDecaySpace(office, config, nodes));
  }
}
BENCHMARK(BM_BuildDecaySpaceOffice)->Arg(16)->Arg(32)->Arg(64);

}  // namespace
