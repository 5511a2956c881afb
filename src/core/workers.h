// The library's one thread-spawn site: fork-join over a fixed worker count.
//
// BatchRunner's instance pool and ComputePhi's chunked scan both run here,
// and decay_lint's naked-thread rule sanctions no other file under src/.
// Callers keep their results independent of scheduling (disjoint output
// slots, merges invariant in the chunk count), so any thread count gives
// the same bits.
#pragma once

#include <functional>

namespace decaylib::core {

// std::thread::hardware_concurrency(), or 1 when the platform cannot tell.
int HardwareThreads();

// Runs fn(t) for every t in [0, workers): inline on the calling thread when
// workers <= 1, else on `workers` new threads, all joined before it
// returns.  An exception thrown by fn is rethrown once every worker has
// joined (the lowest-indexed worker's, when several throw); a caller that
// must finish the other workers' items records failures in its own slots
// instead, as BatchRunner does.
void RunWorkers(int workers, const std::function<void(int)>& fn);

}  // namespace decaylib::core
