// decay-lint-path: src/capacity/baselines.cc
// expect: oracle-in-src @ 8
// expect: oracle-in-src @ 12
// The naive references live in tests/oracles/; a comment naming
// RunAlgorithm1Naive does not fire, a declaration or definition does.
#include <vector>

std::vector<int> GreedyFeasibleNaive(int n) {
  return std::vector<int>(static_cast<std::size_t>(n));
}

double CriticalBidRescan(double bid) { return bid; }
