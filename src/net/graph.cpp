#include "net/graph.h"

#include <algorithm>
#include <queue>

#include "sim/rng.h"
#include "support/assert.h"

namespace ftgcs::net {

Graph::Graph(int n) : adj_(static_cast<std::size_t>(n)) {
  FTGCS_EXPECTS(n >= 0);
}

void Graph::add_edge(int u, int v) {
  FTGCS_EXPECTS(u >= 0 && u < num_vertices());
  FTGCS_EXPECTS(v >= 0 && v < num_vertices());
  FTGCS_EXPECTS(u != v);
  FTGCS_EXPECTS(!has_edge(u, v));
  adj_[u].push_back(v);
  adj_[v].push_back(u);
  ++edge_count_;
  known_diameter_ = -1;
}

bool Graph::has_edge(int u, int v) const {
  FTGCS_EXPECTS(u >= 0 && u < num_vertices());
  const auto& nb = adj_[u];
  return std::find(nb.begin(), nb.end(), v) != nb.end();
}

const std::vector<int>& Graph::neighbors(int v) const {
  FTGCS_EXPECTS(v >= 0 && v < num_vertices());
  return adj_[v];
}

std::vector<int> Graph::bfs_distances(int source) const {
  FTGCS_EXPECTS(source >= 0 && source < num_vertices());
  std::vector<int> dist(adj_.size(), -1);
  std::queue<int> frontier;
  dist[source] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    const int u = frontier.front();
    frontier.pop();
    for (int w : adj_[u]) {
      if (dist[w] < 0) {
        dist[w] = dist[u] + 1;
        frontier.push(w);
      }
    }
  }
  return dist;
}

bool Graph::connected() const {
  if (num_vertices() == 0) return true;
  const auto dist = bfs_distances(0);
  return std::all_of(dist.begin(), dist.end(), [](int d) { return d >= 0; });
}

int Graph::diameter() const {
  if (known_diameter_ >= 0) return known_diameter_;
  FTGCS_EXPECTS(connected());
  int diameter = 0;
  for (int v = 0; v < num_vertices(); ++v) {
    const auto dist = bfs_distances(v);
    diameter = std::max(diameter, *std::max_element(dist.begin(), dist.end()));
  }
  return diameter;
}

std::vector<int> Graph::bfs_tree(int root) const {
  FTGCS_EXPECTS(root >= 0 && root < num_vertices());
  std::vector<int> parent(adj_.size(), -2);
  std::queue<int> frontier;
  parent[root] = -1;
  frontier.push(root);
  while (!frontier.empty()) {
    const int u = frontier.front();
    frontier.pop();
    for (int w : adj_[u]) {
      if (parent[w] == -2) {
        parent[w] = u;
        frontier.push(w);
      }
    }
  }
  return parent;
}

Graph Graph::line(int n) {
  FTGCS_EXPECTS(n >= 1);
  Graph g(n);
  for (int i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  g.known_diameter_ = n - 1;
  return g;
}

Graph Graph::ring(int n) {
  FTGCS_EXPECTS(n >= 3);
  Graph g(n);
  for (int i = 0; i < n; ++i) g.add_edge(i, (i + 1) % n);
  g.known_diameter_ = n / 2;
  return g;
}

Graph Graph::star(int n) {
  FTGCS_EXPECTS(n >= 2);
  Graph g(n);
  for (int i = 1; i < n; ++i) g.add_edge(0, i);
  g.known_diameter_ = n == 2 ? 1 : 2;
  return g;
}

Graph Graph::clique(int n) {
  FTGCS_EXPECTS(n >= 1);
  Graph g(n);
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j) g.add_edge(i, j);
  g.known_diameter_ = n == 1 ? 0 : 1;
  return g;
}

Graph Graph::grid(int width, int height) {
  FTGCS_EXPECTS(width >= 1 && height >= 1);
  Graph g(width * height);
  auto id = [width](int x, int y) { return y * width + x; };
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      if (x + 1 < width) g.add_edge(id(x, y), id(x + 1, y));
      if (y + 1 < height) g.add_edge(id(x, y), id(x, y + 1));
    }
  }
  g.known_diameter_ = (width - 1) + (height - 1);
  return g;
}

Graph Graph::torus(int width, int height) {
  FTGCS_EXPECTS(width >= 3 && height >= 3);
  Graph g(width * height);
  auto id = [width](int x, int y) { return y * width + x; };
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      g.add_edge(id(x, y), id((x + 1) % width, y));
      g.add_edge(id(x, y), id(x, (y + 1) % height));
    }
  }
  g.known_diameter_ = width / 2 + height / 2;
  return g;
}

Graph Graph::balanced_tree(int branching, int depth) {
  FTGCS_EXPECTS(branching >= 1 && depth >= 0);
  // Number of vertices: (b^(depth+1) - 1) / (b - 1), or depth+1 for b == 1.
  std::size_t n = 1;
  std::size_t level_size = 1;
  for (int level = 0; level < depth; ++level) {
    level_size *= static_cast<std::size_t>(branching);
    n += level_size;
  }
  Graph g(static_cast<int>(n));
  // Children of vertex v are b*v + 1 ... b*v + b (heap layout).
  for (int v = 0; v < g.num_vertices(); ++v) {
    for (int c = 1; c <= branching; ++c) {
      const long long child = static_cast<long long>(branching) * v + c;
      if (child < g.num_vertices()) g.add_edge(v, static_cast<int>(child));
    }
  }
  g.known_diameter_ = branching == 1 ? depth : 2 * depth;
  return g;
}

Graph Graph::hypercube(int dim) {
  FTGCS_EXPECTS(dim >= 0 && dim <= 20);
  const int n = 1 << dim;
  Graph g(n);
  for (int v = 0; v < n; ++v) {
    for (int b = 0; b < dim; ++b) {
      const int w = v ^ (1 << b);
      if (v < w) g.add_edge(v, w);
    }
  }
  g.known_diameter_ = dim;
  return g;
}

Graph Graph::gnp_connected(int n, double p, std::uint64_t seed) {
  FTGCS_EXPECTS(n >= 1);
  FTGCS_EXPECTS(p > 0.0 && p <= 1.0);
  sim::Rng rng(seed);
  for (int attempt = 0; attempt < 10000; ++attempt) {
    Graph g(n);
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j)
        if (rng.chance(p)) g.add_edge(i, j);
    if (g.connected()) return g;
  }
  FTGCS_ASSERT(false && "gnp_connected: could not sample a connected graph");
  return Graph(0);
}

}  // namespace ftgcs::net
