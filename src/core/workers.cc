#include "core/workers.h"

#include <exception>
#include <thread>
#include <vector>

namespace decaylib::core {

int HardwareThreads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return static_cast<int>(hc == 0 ? 1 : hc);
}

void RunWorkers(int workers, const std::function<void(int)>& fn) {
  if (workers <= 1) {
    fn(0);
    return;
  }
  // Each worker's exception is caught on its own thread and rethrown here
  // once every started thread has joined, so no joinable thread is ever
  // destroyed -- not even when a spawn itself throws.
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(workers));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers));
  const auto join_all = [&] {
    for (std::thread& thread : threads) thread.join();
  };
  try {
    for (int t = 0; t < workers; ++t) {
      threads.emplace_back([&fn, &errors, t] {
        try {
          fn(t);
        } catch (...) {
          errors[static_cast<std::size_t>(t)] = std::current_exception();
        }
      });
    }
  } catch (...) {
    join_all();
    throw;
  }
  join_all();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace decaylib::core
