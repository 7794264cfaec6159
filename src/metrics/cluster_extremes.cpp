#include "metrics/cluster_extremes.h"

#include <limits>

#include "support/assert.h"

namespace ftgcs::metrics {

void reduce_cluster_extremes(const core::SystemColumns& columns,
                             int cluster_size, ClusterExtremes& out) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  FTGCS_EXPECTS(cluster_size > 0);
  const auto k = static_cast<std::size_t>(cluster_size);
  const auto n = static_cast<std::size_t>(columns.num_nodes());
  FTGCS_EXPECTS(n % k == 0);
  const std::size_t clusters = n / k;
  out.lo.assign(clusters, kInf);
  out.hi.assign(clusters, -kInf);
  out.correct.assign(clusters, 0);
  out.global_lo = kInf;
  out.global_hi = -kInf;
  for (std::size_t c = 0; c < clusters; ++c) {
    double lo = kInf;
    double hi = -kInf;
    std::int32_t correct = 0;
    for (std::size_t id = c * k; id < (c + 1) * k; ++id) {
      if (!columns.correct[id]) continue;
      const double logical = columns.logical[id];
      lo = std::min(lo, logical);
      hi = std::max(hi, logical);
      ++correct;
    }
    out.lo[c] = lo;
    out.hi[c] = hi;
    out.correct[c] = correct;
    out.global_lo = std::min(out.global_lo, lo);
    out.global_hi = std::max(out.global_hi, hi);
  }
}

}  // namespace ftgcs::metrics
