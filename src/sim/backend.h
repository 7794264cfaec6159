// The one queue engine, named. The simulator has a single event queue (the
// calendar/ladder front-end in sim/event_queue.h); this one-value enum
// survives only as the type of the `engine` fields that the benchmark
// harness under perfbench/ still assigns (exp::ResolvedRun,
// core::FtGcsSystem::Config, par::ShardedFtGcsSystem::Config). No code
// reads those fields; they go with the next change to the benchmark.
#pragma once

#include <cstdint>

namespace ftgcs::sim {

enum class QueueBackend : std::uint8_t {
  kLadder,
};

}  // namespace ftgcs::sim
