#include "exp/scenario.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

#include "support/assert.h"

namespace ftgcs::exp {

// ---- TopologySpec -----------------------------------------------------------

net::Graph TopologySpec::build() const {
  switch (kind) {
    case TopologyKind::kLine:
      return net::Graph::line(a);
    case TopologyKind::kRing:
      return net::Graph::ring(a);
    case TopologyKind::kStar:
      return net::Graph::star(a);
    case TopologyKind::kClique:
      return net::Graph::clique(a);
    case TopologyKind::kGrid:
      return net::Graph::grid(a, b);
    case TopologyKind::kTorus:
      return net::Graph::torus(a, b);
    case TopologyKind::kTree:
      return net::Graph::balanced_tree(a, b);
    case TopologyKind::kHypercube:
      return net::Graph::hypercube(a);
    case TopologyKind::kGnp:
      return net::Graph::gnp_connected(a, p, seed);
  }
  FTGCS_ASSERT(false);
  return net::Graph::line(1);
}

std::string TopologySpec::describe() const {
  char buf[64];
  switch (kind) {
    case TopologyKind::kGrid:
    case TopologyKind::kTorus:
      std::snprintf(buf, sizeof buf, "%s(%dx%d)", topology_kind_name(kind), a,
                    b);
      break;
    case TopologyKind::kTree:
      std::snprintf(buf, sizeof buf, "tree(b=%d,depth=%d)", a, b);
      break;
    case TopologyKind::kGnp:
      std::snprintf(buf, sizeof buf, "gnp(n=%d,p=%g)", a, p);
      break;
    default:
      std::snprintf(buf, sizeof buf, "%s(%d)", topology_kind_name(kind), a);
      break;
  }
  return buf;
}

void TopologySpec::set_diameter(int diameter) {
  FTGCS_EXPECTS(diameter >= 1);
  switch (kind) {
    case TopologyKind::kLine:
      a = diameter + 1;
      return;
    case TopologyKind::kRing:
      a = 2 * diameter;
      return;
    case TopologyKind::kGrid: {
      // Diameter of grid(w, h) is (w−1)+(h−1); split as evenly as possible.
      a = diameter / 2 + 1;
      b = diameter - (a - 1) + 1;
      return;
    }
    default:
      throw std::invalid_argument(
          "axis 'diameter' is only supported for line/ring/grid topologies");
  }
}

void TopologySpec::set_clusters(int n) {
  FTGCS_EXPECTS(n >= 1);
  switch (kind) {
    case TopologyKind::kLine:
    case TopologyKind::kRing:
    case TopologyKind::kStar:
    case TopologyKind::kClique:
    case TopologyKind::kGnp:
      a = n;
      return;
    case TopologyKind::kGrid:
    case TopologyKind::kTorus: {
      // Exact factorization w×h = n with w the largest divisor ≤ √n, so a
      // "clusters" axis row simulates exactly the labeled count (the
      // large-grid family's values 1000/5000/10000 give 25×40, 50×100,
      // 100×100). Prime n degenerates to 1×n — truthful, if elongated.
      // A torus needs both sides >= 3 (e.g. 10 = 2×5 and prime 1009 = 1×1009
      // cannot be one); w ≤ h, so checking w suffices.
      int w = static_cast<int>(std::sqrt(static_cast<double>(n)));
      while (w > 1 && n % w != 0) --w;
      if (w < 1) w = 1;
      if (kind == TopologyKind::kTorus && w < 3) {
        throw std::invalid_argument(
            "axis 'clusters' = " + std::to_string(n) +
            " cannot be a torus: no w x h factorization has both sides >= 3"
            " (closest is " + std::to_string(w) + "x" +
            std::to_string(n / w) + ")");
      }
      a = w;
      b = n / w;
      return;
    }
    default:
      throw std::invalid_argument(
          "axis 'clusters' is only supported for 1-parameter and square "
          "topologies");
  }
}

// ---- ParamsSpec -------------------------------------------------------------

core::Params ParamsSpec::build() const {
  if (U > d) {
    // The delay uncertainty is part of the delay; checked here, where U
    // and d (possibly set by two axes in either order) are both final.
    char buf[128];
    std::snprintf(buf, sizeof buf, "U = %g exceeds the maximum delay d = %g",
                  U, d);
    throw std::invalid_argument(buf);
  }
  core::Params result;
  switch (preset) {
    case Preset::kPractical:
      result = core::Params::practical(rho, d, U, f);
      break;
    case Preset::kPaperStrict:
      result = core::Params::paper_strict(rho, d, U, f);
      break;
    case Preset::kCustom:
      result = core::Params::custom(rho, d, U, f, mu, phi);
      break;
  }
  if (cluster_size > 0) {
    // The paper needs k >= 3f + 1 correct-majority copies per cluster;
    // checked here, where f and cluster_size (possibly set by two axes in
    // either order) are both final.
    const long long min_size = 3LL * f + 1;
    if (cluster_size < min_size) {
      char buf[128];
      std::snprintf(buf, sizeof buf,
                    "cluster_size = %d is below 3f + 1 = %lld (f = %d)",
                    cluster_size, min_size, f);
      throw std::invalid_argument(buf);
    }
    result = result.with_cluster_size(cluster_size);
  }
  return result;
}

// ---- RampSpec / HorizonSpec -------------------------------------------------

int RampSpec::resolve(const core::Params& params, int diameter) const {
  if (gap_band_factor > 0.0) {
    const double band = params.predicted_global_skew(diameter);
    return static_cast<int>(gap_band_factor * band / (diameter * params.T)) +
           1;
  }
  if (gap_kappa > 0.0) {
    return static_cast<int>(gap_kappa * params.kappa / params.T) + 1;
  }
  return gap_rounds;
}

double HorizonSpec::resolve(const core::Params& params, int diameter,
                            double initial_global) const {
  double rounds = base_rounds + per_diameter_rounds * diameter;
  if (drain_factor > 0.0 && params.mu > 0.0) {
    rounds += drain_factor * initial_global / (params.mu * params.T);
  }
  return rounds;
}

// ---- ScenarioSpec -----------------------------------------------------------

std::size_t ScenarioSpec::num_points() const {
  std::size_t points = 1;
  for (const auto& axis : axes) points *= axis.values.size();
  return points;
}

void apply_axis(ScenarioSpec& spec, const std::string& name, double value) {
  // Integer axes take only finite integral values in [lo, hi]; the range
  // test runs on the double, so no out-of-range value reaches a cast.
  const auto as_int = [&](int lo, int hi = std::numeric_limits<int>::max()) {
    if (!std::isfinite(value) || value != std::trunc(value) || value < lo ||
        value > hi) {
      char buf[128];
      std::snprintf(buf, sizeof buf, "%g: expected an integer in [%d, %d]",
                    value, lo, hi);
      throw std::invalid_argument("sweep axis '" + name + "' = " + buf);
    }
    return static_cast<int>(value);
  };
  // Real axes take only finite values in [lo, hi] — or (lo, hi] when
  // `open_lo`, for quantities that must be strictly positive.
  const auto as_real = [&](double lo, double hi, bool open_lo = false) {
    if (!std::isfinite(value) || value < lo || (open_lo && value == lo) ||
        value > hi) {
      char buf[128];
      std::snprintf(buf, sizeof buf,
                    "%g: expected a finite number in %c%g, %g%c", value,
                    open_lo ? '(' : '[', lo, hi, std::isinf(hi) ? ')' : ']');
      throw std::invalid_argument("sweep axis '" + name + "' = " + buf);
    }
    return value;
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (name == "diameter") {
    spec.topology.set_diameter(as_int(1));
  } else if (name == "clusters") {
    spec.topology.set_clusters(as_int(1));
  } else if (name == "gap_rounds") {
    spec.ramp = {};
    spec.ramp.gap_rounds = as_int(0);
  } else if (name == "gap_kappa") {
    spec.ramp = {};
    spec.ramp.gap_kappa = as_real(0.0, kInf);
  } else if (name == "f") {
    spec.params.f = as_int(0);
  } else if (name == "cluster_size") {
    spec.params.cluster_size = as_int(0);  // 0 = derived 3f+1
  } else if (name == "faults_per_cluster") {
    spec.faults.count = as_int(0);
  } else if (name == "strategy") {
    spec.faults.strategy = static_cast<byz::StrategyKind>(
        as_int(0, static_cast<int>(byz::StrategyKind::kDelayJitter)));
  } else if (name == "attacked") {
    spec.faults.enabled = value != 0.0;
  } else if (name == "rho") {
    spec.params.rho = as_real(0.0, kInf, /*open_lo=*/true);
  } else if (name == "d") {
    spec.params.d = as_real(0.0, kInf, /*open_lo=*/true);
  } else if (name == "U") {
    spec.params.U = as_real(0.0, kInf);
  } else if (name == "mu") {
    spec.params.mu = as_real(0.0, kInf);
  } else if (name == "phi") {
    spec.params.phi = as_real(0.0, kInf);
  } else if (name == "horizon_rounds") {
    spec.horizon = {};
    spec.horizon.base_rounds = as_real(0.0, kInf, /*open_lo=*/true);
  } else if (name == "flip_rounds") {
    spec.drift.flip_rounds = as_real(0.0, kInf);
  } else if (name == "probability") {
    spec.faults.probability = as_real(0.0, 1.0);
  } else if (name == "shards") {
    spec.shards = as_int(1);
  } else if (name == "fault_mode") {
    spec.faults.mode = static_cast<FaultMode>(
        as_int(0, static_cast<int>(FaultMode::kIid)));
    // A scenario registered without faults carries no strategy strength;
    // the per-strategy default keeps the attack meaningful.
    if (spec.faults.param_abs == 0.0 && spec.faults.param_times_E == 0.0) {
      spec.faults.default_param_for_strategy = true;
    }
  } else {
    throw std::invalid_argument("unknown sweep axis '" + name + "'");
  }
}

std::string format_axis_value(const AxisValue& v) {
  if (!v.label.empty()) return v.label;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v.value);
  return buf;
}

const char* topology_kind_name(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kLine: return "line";
    case TopologyKind::kRing: return "ring";
    case TopologyKind::kStar: return "star";
    case TopologyKind::kClique: return "clique";
    case TopologyKind::kGrid: return "grid";
    case TopologyKind::kTorus: return "torus";
    case TopologyKind::kTree: return "tree";
    case TopologyKind::kHypercube: return "hypercube";
    case TopologyKind::kGnp: return "gnp";
  }
  return "?";
}

const char* protocol_name(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kFtGcs: return "ftgcs";
    case ProtocolKind::kGcsBaseline: return "gcs";
  }
  return "?";
}

}  // namespace ftgcs::exp
