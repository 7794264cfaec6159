#include "obs/sampler.h"

#include <cmath>
#include <stdexcept>

#include "support/assert.h"

namespace ftgcs::obs {

LogLinearHistogram::Spec ProbeSampler::scaled_spec(double scale) {
  FTGCS_EXPECTS(scale > 0.0);
  LogLinearHistogram::Spec spec;
  spec.linear_width = scale / 1000.0;
  spec.linear_max = scale / 10.0;
  spec.growth = 1.25;
  spec.max = scale * 64.0;
  return spec;
}

ProbeSampler::ProbeSampler(Config config, exp::TopologyGraph graph)
    : path_(config.path),
      num_nodes_(graph.num_nodes()),
      cluster_size_(graph.cluster_size),
      cluster_neighbors_(exp::augmented_cluster_adjacency(graph)),
      measure_m_lag_(config.measure_m_lag) {
  FTGCS_EXPECTS(!path_.empty());
  const LogLinearHistogram::Spec spec = scaled_spec(config.hist_scale);

  // Fixed schema, registration order = serialization order. Only
  // run-invariant quantities — see the header comment.
  events_ = registry_.add_counter("events");
  messages_ = registry_.add_counter("messages");
  local_hist_ = registry_.add_histogram("local", spec);
  global_hist_ = registry_.add_histogram("global", spec);
  cluster_local_ = registry_.add_gauge("cluster_local");
  cluster_global_ = registry_.add_gauge("cluster_global");
  intra_max_ = registry_.add_gauge("intra_max");
  if (measure_m_lag_) m_lag_ = registry_.add_gauge("m_lag");
  if (config.monitors) {
    violations_ = registry_.add_counter("violations");
    // One min-margin gauge per ENABLED envelope family: margins of
    // disabled families are +inf (not JSON), so they are simply not part
    // of the schema — which stays fixed per run config.
    if (config.bounds.local_skew > 0.0) {
      margin_local_ = registry_.add_gauge("margin_local");
    }
    if (config.bounds.global_skew > 0.0) {
      margin_global_ = registry_.add_gauge("margin_global");
    }
    if (config.bounds.intra_cluster > 0.0) {
      margin_intra_ = registry_.add_gauge("margin_intra");
    }
    if (config.bounds.m_lag > 0.0) {
      margin_m_lag_ = registry_.add_gauge("margin_m_lag");
    }
  }

  file_ = std::fopen(path_.c_str(), "wb");
  if (file_ == nullptr) {
    throw std::runtime_error("obs: cannot create '" + path_ + "'");
  }
  try {
    write_header(config);
  } catch (...) {
    std::fclose(file_);  // the dtor does not run for a throwing ctor
    throw;
  }
}

ProbeSampler::~ProbeSampler() {
  // Unchecked on purpose: a destructor must not throw, and a caller that
  // wants the close checked calls finish() first (exp::run_point does).
  if (file_ != nullptr) std::fclose(file_);
}

void ProbeSampler::write_header(const Config& config) {
  // The header carries the shape + bounds a reader needs to interpret
  // the series (ftgcs_report's convergence table divides by these).
  // Writing it in the constructor also forces stdio to allocate the
  // stream buffer now, before the allocation guard engages.
  // Cliques plus bundles (the constructor checked the graph is exactly
  // that): k(k−1)/2 edges per cluster and k² per cluster edge.
  const auto k = static_cast<std::uint64_t>(cluster_size_);
  std::uint64_t cluster_edges = 0;
  for (const auto& row : cluster_neighbors_) cluster_edges += row.size();
  cluster_edges /= 2;
  const std::uint64_t undirected_edges =
      cluster_neighbors_.size() * k * (k - 1) / 2 + cluster_edges * k * k;

  line_.clear();
  line_ += "{\"schema\":\"ftgcs-metrics-v1\",\"nodes\":";
  append_json_u64(line_, static_cast<std::uint64_t>(num_nodes_));
  line_ += ",\"clusters\":";
  append_json_u64(line_, cluster_neighbors_.size());
  line_ += ",\"edges\":";
  append_json_u64(line_, undirected_edges);
  line_ += ",\"hist_scale\":";
  append_json_double(line_, config.hist_scale);
  line_ += ",\"bound_local\":";
  append_json_double(line_, config.monitors ? config.bounds.local_skew : 0.0);
  line_ += ",\"bound_global\":";
  append_json_double(line_, config.monitors ? config.bounds.global_skew : 0.0);
  line_ += ",\"bound_intra\":";
  append_json_double(line_,
                     config.monitors ? config.bounds.intra_cluster : 0.0);
  line_ += ",\"bound_m_lag\":";
  append_json_double(line_, config.monitors ? config.bounds.m_lag : 0.0);
  line_ += "}\n";
  write_row(file_, line_, path_);
  bytes_ += line_.size();
}

void ProbeSampler::prewarm() {
  line_.reserve(registry_.line_reserve_hint() + 64);
  const std::size_t clusters = cluster_neighbors_.size();
  extremes_.lo.reserve(clusters);
  extremes_.hi.reserve(clusters);
  extremes_.correct.reserve(clusters);
}

void ProbeSampler::fill_local(const core::SystemColumns& cols) {
  const metrics::ClusterExtremes& x = extremes_;
  const auto k = static_cast<std::size_t>(cluster_size_);
  // Every pair of correct members of clusters b and c (b == c: each
  // unordered pair of the clique once).
  const auto record_pairs = [&](std::size_t b, std::size_t c) {
    for (std::size_t v = b * k; v < (b + 1) * k; ++v) {
      if (!cols.correct[v]) continue;
      const double lv = cols.logical[v];
      for (std::size_t w = b == c ? v + 1 : c * k; w < (c + 1) * k; ++w) {
        if (cols.correct[w]) {
          local_hist_->record(std::fabs(lv - cols.logical[w]));
        }
      }
    }
  };
  for (std::size_t c = 0; c < cluster_neighbors_.size(); ++c) {
    const auto nc = static_cast<std::uint64_t>(x.correct[c]);
    if (nc == 0) continue;
    if (nc >= 2) {
      ++fill_stats_.local_spans;
      if (!local_hist_->record_span(0.0, x.hi[c] - x.lo[c],
                                    nc * (nc - 1) / 2)) {
        ++fill_stats_.local_split;
        record_pairs(c, c);
      }
    }
    for (const int b : cluster_neighbors_[c]) {
      const auto bi = static_cast<std::size_t>(b);
      if (bi < c || x.correct[bi] == 0) continue;
      ++fill_stats_.local_spans;
      if (!local_hist_->record_span(
              x.bundle_min(c, bi), x.bundle_max(c, bi),
              nc * static_cast<std::uint64_t>(x.correct[bi]))) {
        ++fill_stats_.local_split;
        record_pairs(c, bi);
      }
    }
  }
}

void ProbeSampler::fill_global(const core::SystemColumns& cols) {
  const metrics::ClusterExtremes& x = extremes_;
  const double min_logical = x.global_lo;
  if (!std::isfinite(min_logical)) return;
  const auto k = static_cast<std::size_t>(cluster_size_);
  for (std::size_t c = 0; c < cluster_neighbors_.size(); ++c) {
    if (x.correct[c] == 0) continue;
    ++fill_stats_.global_spans;
    if (global_hist_->record_span(
            x.lo[c] - min_logical, x.hi[c] - min_logical,
            static_cast<std::uint64_t>(x.correct[c]))) {
      continue;
    }
    ++fill_stats_.global_split;
    for (std::size_t v = c * k; v < (c + 1) * k; ++v) {
      if (cols.correct[v]) global_hist_->record(cols.logical[v] - min_logical);
    }
  }
}

void ProbeSampler::sample(const SampleContext& ctx) {
  FTGCS_EXPECTS(ctx.skews != nullptr);
  FTGCS_EXPECTS(ctx.columns != nullptr);
  FTGCS_EXPECTS(file_ != nullptr);
  registry_.clear_histograms();

  const core::SystemColumns& cols = *ctx.columns;
  FTGCS_EXPECTS(cols.num_nodes() == num_nodes_);

  // Node-local skews, one per augmented edge between correct nodes (the
  // histogram's running max is then exactly the node-local skew
  // measure_skews reports), and per-node offsets above the slowest
  // correct clock (the max offset is the node-global skew).
  metrics::reduce_cluster_extremes(cols, cluster_size_, extremes_);
  fill_local(cols);
  fill_global(cols);

  events_->value = ctx.events;
  messages_->value = ctx.messages;
  cluster_local_->value = ctx.skews->cluster_local;
  cluster_global_->value = ctx.skews->cluster_global;
  intra_max_->value = ctx.skews->intra_cluster;
  if (m_lag_ != nullptr) m_lag_->value = ctx.m_lag;
  if (ctx.monitor != nullptr && violations_ != nullptr) {
    violations_->value = ctx.monitor->stats().violations;
    if (margin_local_ != nullptr) {
      margin_local_->value = ctx.monitor->local_margin();
    }
    if (margin_global_ != nullptr) {
      margin_global_->value = ctx.monitor->global_margin();
    }
    if (margin_intra_ != nullptr) {
      margin_intra_->value = ctx.monitor->intra_margin();
    }
    if (margin_m_lag_ != nullptr) {
      margin_m_lag_->value = ctx.monitor->m_lag_margin();
    }
  }

  ++probes_;
  line_.clear();
  line_ += "{\"t\":";
  append_json_double(line_, ctx.at);
  line_ += ",\"probe\":";
  append_json_u64(line_, probes_);
  registry_.append_fields(line_);
  line_ += "}\n";
  write_row(file_, line_, path_);
  bytes_ += line_.size();
}

void ProbeSampler::finish() {
  if (file_ == nullptr) return;
  std::FILE* file = file_;
  file_ = nullptr;
  close_file(file, path_);
}

}  // namespace ftgcs::obs
