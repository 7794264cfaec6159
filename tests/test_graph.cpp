#include "net/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

namespace ftgcs::net {
namespace {

/// Reference hop diameter: max BFS distance over every source, computed
/// here rather than through Graph::diameter() so the generators' closed
/// forms are checked against an independent oracle.
int oracle_diameter(const Graph& g) {
  int diameter = 0;
  for (int v = 0; v < g.num_vertices(); ++v) {
    for (int d : g.bfs_distances(v)) {
      EXPECT_GE(d, 0) << "disconnected graph";
      diameter = std::max(diameter, d);
    }
  }
  return diameter;
}

void expect_oracle_diameter(const Graph& g, const std::string& label) {
  EXPECT_EQ(g.diameter(), oracle_diameter(g)) << label;
}

TEST(Graph, LineBasics) {
  const Graph g = Graph::line(5);
  EXPECT_EQ(g.num_vertices(), 5);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_TRUE(g.connected());
  EXPECT_EQ(g.diameter(), 4);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(Graph, SingleVertexLine) {
  const Graph g = Graph::line(1);
  EXPECT_EQ(g.num_vertices(), 1);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.connected());
  EXPECT_EQ(g.diameter(), 0);
}

TEST(Graph, RingBasics) {
  const Graph g = Graph::ring(6);
  EXPECT_EQ(g.num_edges(), 6u);
  EXPECT_EQ(g.diameter(), 3);
  for (int v = 0; v < 6; ++v) EXPECT_EQ(g.neighbors(v).size(), 2u);
}

TEST(Graph, StarBasics) {
  const Graph g = Graph::star(7);
  EXPECT_EQ(g.num_edges(), 6u);
  EXPECT_EQ(g.diameter(), 2);
  EXPECT_EQ(g.neighbors(0).size(), 6u);
}

TEST(Graph, CliqueBasics) {
  const Graph g = Graph::clique(5);
  EXPECT_EQ(g.num_edges(), 10u);
  EXPECT_EQ(g.diameter(), 1);
}

TEST(Graph, GridBasics) {
  const Graph g = Graph::grid(4, 3);
  EXPECT_EQ(g.num_vertices(), 12);
  EXPECT_EQ(g.num_edges(), static_cast<std::size_t>(3 * 3 + 4 * 2));
  EXPECT_EQ(g.diameter(), 3 + 2);
}

TEST(Graph, TorusBasics) {
  const Graph g = Graph::torus(4, 4);
  EXPECT_EQ(g.num_vertices(), 16);
  EXPECT_EQ(g.num_edges(), 32u);  // 2 edges per vertex
  EXPECT_EQ(g.diameter(), 4);     // 2 + 2
}

TEST(Graph, BalancedTreeBasics) {
  const Graph g = Graph::balanced_tree(2, 3);  // 1+2+4+8 = 15 vertices
  EXPECT_EQ(g.num_vertices(), 15);
  EXPECT_EQ(g.num_edges(), 14u);
  EXPECT_TRUE(g.connected());
  EXPECT_EQ(g.diameter(), 6);
}

TEST(Graph, HypercubeBasics) {
  const Graph g = Graph::hypercube(4);
  EXPECT_EQ(g.num_vertices(), 16);
  EXPECT_EQ(g.num_edges(), 32u);  // n·dim/2
  EXPECT_EQ(g.diameter(), 4);
}

TEST(Graph, GnpIsConnectedAndDeterministic) {
  const Graph a = Graph::gnp_connected(20, 0.2, 7);
  const Graph b = Graph::gnp_connected(20, 0.2, 7);
  EXPECT_TRUE(a.connected());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  for (int v = 0; v < 20; ++v) {
    EXPECT_EQ(a.neighbors(v), b.neighbors(v));
  }
}

TEST(Graph, BfsDistances) {
  const Graph g = Graph::line(5);
  const auto dist = g.bfs_distances(2);
  EXPECT_EQ(dist, (std::vector<int>{2, 1, 0, 1, 2}));
}

TEST(Graph, BfsTreeParents) {
  const Graph g = Graph::line(4);
  const auto parent = g.bfs_tree(0);
  EXPECT_EQ(parent, (std::vector<int>{-1, 0, 1, 2}));
}

TEST(Graph, DisconnectedDetected) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(g.connected());
}

TEST(Graph, AdjacencyIsSymmetric) {
  const Graph g = Graph::gnp_connected(15, 0.3, 3);
  for (int v = 0; v < g.num_vertices(); ++v) {
    for (int w : g.neighbors(v)) {
      EXPECT_TRUE(g.has_edge(w, v));
    }
  }
}

TEST(Graph, GeneratorDiametersMatchBfsOracle) {
  for (int n = 1; n <= 40; ++n) {
    expect_oracle_diameter(Graph::line(n), "line " + std::to_string(n));
    expect_oracle_diameter(Graph::clique(n), "clique " + std::to_string(n));
    if (n >= 3) {
      expect_oracle_diameter(Graph::ring(n), "ring " + std::to_string(n));
    }
    if (n >= 2) {
      expect_oracle_diameter(Graph::star(n), "star " + std::to_string(n));
    }
  }
  for (int w = 1; w <= 9; ++w) {
    for (int h = 1; h <= 9; ++h) {
      const std::string size = std::to_string(w) + "x" + std::to_string(h);
      expect_oracle_diameter(Graph::grid(w, h), "grid " + size);
      if (w >= 3 && h >= 3) {
        expect_oracle_diameter(Graph::torus(w, h), "torus " + size);
      }
    }
  }
  for (int b = 1; b <= 4; ++b) {
    for (int depth = 0; depth <= 5; ++depth) {
      expect_oracle_diameter(
          Graph::balanced_tree(b, depth),
          "tree b=" + std::to_string(b) + " depth=" + std::to_string(depth));
    }
  }
  for (int dim = 0; dim <= 9; ++dim) {
    expect_oracle_diameter(Graph::hypercube(dim),
                           "hypercube " + std::to_string(dim));
  }
}

TEST(Graph, AddEdgeAfterGenerationFallsBackToBfs) {
  Graph g = Graph::line(10);
  ASSERT_EQ(g.diameter(), 9);
  g.add_edge(0, 9);  // now a 10-ring
  EXPECT_EQ(g.diameter(), 5);
  expect_oracle_diameter(g, "line 10 + {0,9}");
}

TEST(Graph, GnpDiameterComesFromBfs) {
  // G(n, p) has no closed form: across densities the diameter varies and
  // must track the oracle exactly.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (double p : {0.08, 0.2, 0.5, 1.0}) {
      expect_oracle_diameter(Graph::gnp_connected(30, p, seed),
                             "gnp p=" + std::to_string(p) +
                                 " seed=" + std::to_string(seed));
    }
  }
}

}  // namespace
}  // namespace ftgcs::net
