// E14 -- Dynamic packet scheduling / stability (transfer list [2, 3, 44]).
//
// Sweeps the uniform arrival rate over planar deployments and over a walled
// version of the same deployment: the stability frontier (where backlog
// starts growing) contracts as zeta grows, and backlog-aware scheduling
// dominates oblivious greedy near the frontier.  Also reports the measured
// inductive independence, the parameter the [44]-style analyses charge
// against.
#include <cstdio>

#include "bench_util.h"
#include "capacity/inductive_independence.h"
#include "core/metricity.h"
#include "dynamics/queue_system.h"
#include "env/propagation.h"
#include "sinr/kernel.h"
#include "sinr/power.h"

using namespace decaylib;

int main() {
  bench::Banner("E14", "Dynamic packet scheduling stability",
                "stability analyses transfer with alpha -> zeta; rho "
                "(inductive independence) is the knob");

  geom::Rng rng(3);
  bench::PlanarDeployment dep(20, 22.0, 0.6, 1.2, rng);

  struct SpaceCase {
    const char* name;
    core::DecaySpace space;
  };
  std::vector<SpaceCase> cases;
  {
    env::PropagationConfig config;
    config.alpha = 3.0;
    cases.push_back({"free space",
                     env::BuildDecaySpace(env::Environment(), config,
                                          env::PlaceIsotropic(dep.points))});
    env::Environment office = env::Environment::OfficeGrid(22.0, 22.0, 3, 3);
    cases.push_back({"office 3x3",
                     env::BuildDecaySpace(office, config,
                                          env::PlaceIsotropic(dep.points))});
  }

  for (const SpaceCase& c : cases) {
    const sinr::LinkSystem system(c.space, dep.links, {2.0, 0.0});
    // One kernel per space serves every (lambda, scheduler) simulation
    // below.
    const sinr::KernelCache kernel(system, sinr::UniformPower(system));
    const double zeta = std::max(1.0, core::Metricity(c.space));
    const auto rho = capacity::EstimateInductiveIndependence(kernel);
    std::printf("\n%s: zeta = %.2f, rho in [%.2f, %.2f]\n", c.name, zeta,
                rho.greedy_lower, rho.upper);
    bench::Table table({"lambda/link", "offered", "LQF tput", "LQF queue",
                        "LQF growth", "greedy tput", "greedy queue",
                        "rand tput"});
    for (const double lambda : {0.02, 0.05, 0.10, 0.20, 0.35, 0.50}) {
      geom::Rng r1(11);
      geom::Rng r2(11);
      geom::Rng r3(11);
      const auto lqf = dynamics::RunQueueSimulation(
          kernel,
          dynamics::UniformArrivals(system, lambda,
                                    dynamics::Scheduler::kLongestQueueFirst,
                                    4000),
          r1);
      const auto greedy = dynamics::RunQueueSimulation(
          kernel,
          dynamics::UniformArrivals(system, lambda,
                                    dynamics::Scheduler::kGreedyByDecay, 4000),
          r2);
      const auto rnd = dynamics::RunQueueSimulation(
          kernel,
          dynamics::UniformArrivals(system, lambda,
                                    dynamics::Scheduler::kRandomAccess, 4000),
          r3);
      table.AddRow({bench::Fmt(lambda, 2), bench::Fmt(lqf.offered_load, 2),
                    bench::Fmt(lqf.throughput, 2),
                    bench::Fmt(lqf.mean_queue, 1),
                    bench::Fmt(lqf.backlog_growth, 2),
                    bench::Fmt(greedy.throughput, 2),
                    bench::Fmt(greedy.mean_queue, 1),
                    bench::Fmt(rnd.throughput, 2)});
    }
    table.Print();
  }

  std::printf(
      "\nExpected shape: throughput tracks offered load until the stability "
      "frontier, then\nsaturates while queues and growth explode; the walled "
      "(higher-zeta) space saturates\nearlier; LQF sustains at least what "
      "oblivious greedy does.\n");
  return 0;
}
