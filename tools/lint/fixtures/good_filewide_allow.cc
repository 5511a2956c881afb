// decay-lint-path: src/distributed/legacy_pool.cc
// decay-lint: allowlist-file(naked-thread) -- fork-join scoped, joins before
// returning; predates core::RunWorkers (tracked for migration).
#include <thread>

void ForkJoin() {
  std::thread t([] {});
  t.join();
}
