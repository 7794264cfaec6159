#include "workloads.h"

#include <stdexcept>

#include "exp/registry.h"

namespace perfbench {

namespace fx = ftgcs::exp;

namespace {

// Exact eq. (5) constants on a 2-cluster line (8 nodes): rounds are
// T ≈ 6.1·10^5·d long and every node re-broadcasts about once per d, so
// the run is a long sparse stream of queue operations on a tiny system.
fx::ScenarioSpec strict_pair(Scale scale) {
  fx::ScenarioSpec spec;
  spec.name = "strict_pair";
  spec.topology.kind = fx::TopologyKind::kLine;
  spec.topology.a = 2;
  spec.params.preset = fx::ParamsSpec::Preset::kPaperStrict;
  spec.params.rho = 1e-6;
  spec.params.d = 1.0;
  spec.params.U = 1e-3;
  spec.params.f = 1;
  spec.horizon.base_rounds = scale == Scale::kFull ? 0.04 : 0.002;
  spec.probe_interval_rounds = spec.horizon.base_rounds / 4.0;
  return spec;
}

// The large_torus shape at clusters = 10000: 40,000 nodes, fault-free,
// striped over 4 shards, probes every 5 rounds.
fx::ScenarioSpec torus40k_sharded(Scale scale) {
  fx::ScenarioSpec spec;
  spec.name = "torus40k_sharded";
  spec.topology.kind = fx::TopologyKind::kTorus;
  spec.topology.a = scale == Scale::kFull ? 100 : 8;
  spec.topology.b = spec.topology.a;
  spec.shards = 4;
  spec.horizon.base_rounds = scale == Scale::kFull ? 5.0 : 1.0;
  spec.probe_interval_rounds = 5.0;
  return spec;
}

// 32×32 cluster torus with a full two-faced fault budget (f = 1 in every
// cluster), dense probes, monitors and the metrics series on.
fx::ScenarioSpec torus4k_probed(Scale scale, const std::string& out_dir) {
  fx::ScenarioSpec spec;
  spec.name = "torus4k_probed";
  spec.topology.kind = fx::TopologyKind::kTorus;
  spec.topology.a = scale == Scale::kFull ? 32 : 6;
  spec.topology.b = spec.topology.a;
  spec.faults.mode = fx::FaultMode::kUniform;
  spec.faults.count = -1;  // full budget f
  spec.faults.strategy = ftgcs::byz::StrategyKind::kTwoFaced;
  spec.faults.default_param_for_strategy = true;
  spec.horizon.base_rounds = scale == Scale::kFull ? 5.0 : 0.5;
  spec.probe_interval_rounds = 0.01;
  spec.metrics_path = out_dir + "/torus4k_probed.metrics.jsonl";
  return spec;
}

// The registered E1 grid (D ∈ {2..32} × {clean, f=1 two-faced}).
fx::ScenarioSpec e1_sweep(Scale scale) {
  fx::register_builtin_scenarios();
  const fx::ScenarioSpec* registered =
      fx::Registry::instance().find("e1_local_skew_vs_diameter");
  if (registered == nullptr) {
    throw std::runtime_error("e1_local_skew_vs_diameter is not registered");
  }
  fx::ScenarioSpec spec = *registered;
  if (scale == Scale::kTiny) {
    spec.horizon.base_rounds = 10.0;
    spec.horizon.per_diameter_rounds = 1.0;
    spec.axes.front().values.resize(2);  // D ∈ {2, 4}
  }
  return spec;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "strict_pair", "torus40k_sharded", "torus4k_probed", "e1_sweep"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       Scale scale, const std::string& out_dir) {
  Workload w;
  w.name = name;
  if (name == "strict_pair") {
    w.spec = strict_pair(scale);
  } else if (name == "torus40k_sharded") {
    w.spec = torus40k_sharded(scale);
  } else if (name == "torus4k_probed") {
    w.spec = torus4k_probed(scale, out_dir);
  } else if (name == "e1_sweep") {
    w.spec = e1_sweep(scale);
    w.sweep = true;
    w.sweep_threads = 4;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  w.spec.seeds = {seed};
  return w;
}

std::vector<Task> expand_tasks(const fx::ScenarioSpec& spec) {
  std::vector<Task> tasks;
  std::vector<std::size_t> index(spec.axes.size(), 0);
  for (;;) {
    for (std::uint64_t seed : spec.seeds) {
      Task task{spec, seed};
      for (std::size_t a = 0; a < spec.axes.size(); ++a) {
        fx::apply_axis(task.spec, spec.axes[a].name,
                       spec.axes[a].values[index[a]].value);
      }
      tasks.push_back(std::move(task));
    }
    std::size_t axis = spec.axes.size();
    while (axis > 0) {
      --axis;
      if (++index[axis] < spec.axes[axis].values.size()) break;
      index[axis] = 0;
      if (axis == 0) return tasks;
    }
    if (spec.axes.empty()) return tasks;
  }
}

}  // namespace perfbench
