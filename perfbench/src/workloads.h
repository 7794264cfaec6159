// Benchmark workloads: each is one ScenarioSpec built from the benchmark's
// own definitions (nothing is registered into the library), run through
// the library's public experiment path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/scenario.h"

namespace perfbench {

/// kFull is the measured size; kTiny is the self-test size (same shape and
/// features, a small fraction of the work).
enum class Scale { kFull, kTiny };

struct Workload {
  std::string name;
  ftgcs::exp::ScenarioSpec spec;  ///< seeds = {run seed}
  /// true: the whole axis grid runs through exp::SweepRunner;
  /// false: one exp::run_point call.
  bool sweep = false;
  int sweep_threads = 1;
};

const std::vector<std::string>& workload_names();

/// Builds the named workload. `out_dir` receives program outputs the
/// workload enables (the metrics series). Throws std::invalid_argument for
/// an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       Scale scale, const std::string& out_dir);

/// One concrete task of a sweep: the spec with every axis applied.
struct Task {
  ftgcs::exp::ScenarioSpec spec;
  std::uint64_t seed = 1;
};

/// Expands the axis grid × seed list in exp::SweepRunner's task order
/// (row-major over axes, seeds innermost). A spec without axes is one task
/// per seed.
std::vector<Task> expand_tasks(const ftgcs::exp::ScenarioSpec& spec);

}  // namespace perfbench
