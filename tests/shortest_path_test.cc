// Tests for BFS and Dijkstra searches.
#include <gtest/gtest.h>

#include <optional>

#include "graph/shortest_path.h"
#include "topology/builders.h"

namespace dcn {
namespace {

Graph diamond() {
  // 0 -> 1 -> 3 (weights 1 + 1) and 0 -> 2 -> 3 (weights 3 + 0.5).
  Graph g(4);
  g.add_edge(0, 1);  // e0
  g.add_edge(1, 3);  // e1
  g.add_edge(0, 2);  // e2
  g.add_edge(2, 3);  // e3
  return g;
}

TEST(BfsShortestPath, FindsFewestHops) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 4);
  g.add_edge(0, 3);
  g.add_edge(3, 4);
  const auto p = bfs_shortest_path(g, 0, 4);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->length(), 2u);
  EXPECT_TRUE(is_valid_path(g, *p));
}

TEST(BfsShortestPath, UnreachableReturnsNullopt) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_FALSE(bfs_shortest_path(g, 0, 2).has_value());
  // Directed: 1 cannot reach 0.
  EXPECT_FALSE(bfs_shortest_path(g, 1, 0).has_value());
}

TEST(BfsShortestPath, SrcEqualsDst) {
  Graph g(2);
  g.add_edge(0, 1);
  const auto p = bfs_shortest_path(g, 0, 0);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->empty());
}

TEST(Dijkstra, PrefersCheaperLongerRoute) {
  const Graph g = diamond();
  const std::vector<double> w{1.0, 1.0, 3.0, 0.5};
  const auto p = dijkstra_shortest_path(g, 0, 3, w);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->edges, (std::vector<EdgeId>{0, 1}));  // cost 2 < 3.5

  const std::vector<double> w2{5.0, 5.0, 3.0, 0.5};
  const auto p2 = dijkstra_shortest_path(g, 0, 3, w2);
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(p2->edges, (std::vector<EdgeId>{2, 3}));  // cost 3.5 < 10
}

TEST(Dijkstra, RejectsNegativeWeights) {
  const Graph g = diamond();
  const std::vector<double> w{1.0, -1.0, 3.0, 0.5};
  EXPECT_THROW((void)dijkstra_shortest_path(g, 0, 3, w), ContractViolation);
}

TEST(Dijkstra, TreeDistancesMatchPathWeights) {
  const Graph g = diamond();
  const std::vector<double> w{1.0, 1.0, 3.0, 0.5};
  const ShortestPathTree tree = dijkstra_tree(g, 0, w);
  EXPECT_DOUBLE_EQ(tree.distance[0], 0.0);
  EXPECT_DOUBLE_EQ(tree.distance[1], 1.0);
  EXPECT_DOUBLE_EQ(tree.distance[2], 3.0);
  EXPECT_DOUBLE_EQ(tree.distance[3], 2.0);
  const auto p = tree_path(g, tree, 0, 3);
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(path_weight(*p, w), tree.distance[3]);
}

TEST(DijkstraWorkspaceSweep, FullSweepMatchesTree) {
  const Graph g = diamond();
  const std::vector<double> w{1.0, 1.0, 3.0, 0.5};
  CsrAdjacency adj;
  adj.build(g);
  DijkstraWorkspace ws;
  dijkstra_sweep(adj, 0, w, {}, ws);
  const ShortestPathTree tree = dijkstra_tree(g, 0, w);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_DOUBLE_EQ(ws.distance(v), tree.distance[static_cast<std::size_t>(v)]);
    EXPECT_EQ(ws.parent_edge(v), tree.parent_edge[static_cast<std::size_t>(v)]);
  }
  const auto p = workspace_path(g, ws, 0, 3);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->edges, (std::vector<EdgeId>{0, 1}));
}

TEST(DijkstraWorkspaceSweep, EarlyExitSettledTargetsMatchFullSweep) {
  const Topology topo = fat_tree(4);
  const Graph& g = topo.graph();
  std::vector<double> w(static_cast<std::size_t>(g.num_edges()));
  for (std::size_t e = 0; e < w.size(); ++e) {
    w[e] = 1.0 + 0.01 * static_cast<double>(e % 7);
  }
  const NodeId src = topo.hosts()[0];
  const std::vector<NodeId> targets{topo.hosts()[3], topo.hosts()[9],
                                    topo.hosts()[9], topo.hosts()[14]};
  CsrAdjacency adj;
  adj.build(g);
  DijkstraWorkspace ws;
  dijkstra_sweep(adj, src, w, targets, ws);
  const ShortestPathTree full = dijkstra_tree(g, src, w);
  for (const NodeId t : targets) {
    EXPECT_DOUBLE_EQ(ws.distance(t), full.distance[static_cast<std::size_t>(t)]);
    const auto p = workspace_path(g, ws, src, t);
    const auto q = tree_path(g, full, src, t);
    ASSERT_TRUE(p.has_value());
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(p->edges, q->edges);
  }
}

TEST(DijkstraWorkspaceSweep, GenerationStampsInvalidateOldSweeps) {
  const Graph g = diamond();
  const std::vector<double> w{1.0, 1.0, 3.0, 0.5};
  CsrAdjacency adj;
  adj.build(g);
  DijkstraWorkspace ws;
  dijkstra_sweep(adj, 0, w, {}, ws);
  EXPECT_DOUBLE_EQ(ws.distance(3), 2.0);
  // A sweep from node 2 reaches only node 3; stale node-1 state from the
  // previous sweep must read as unreached.
  dijkstra_sweep(adj, 2, w, {}, ws);
  EXPECT_DOUBLE_EQ(ws.distance(2), 0.0);
  EXPECT_DOUBLE_EQ(ws.distance(3), 0.5);
  EXPECT_EQ(ws.distance(1), kInfiniteDistance);
  EXPECT_EQ(ws.parent_edge(1), kInvalidEdge);
  EXPECT_FALSE(workspace_path(g, ws, 2, 1).has_value());
}

TEST(DijkstraWorkspaceSweep, EarlyExitWhenSourceIsTheTarget) {
  const Graph g = diamond();
  const std::vector<double> w{1.0, 1.0, 3.0, 0.5};
  CsrAdjacency adj;
  adj.build(g);
  DijkstraWorkspace ws;
  const std::vector<NodeId> targets{0};
  dijkstra_sweep(adj, 0, w, targets, ws);
  const auto p = workspace_path(g, ws, 0, 0);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->empty());
}

TEST(DijkstraWorkspaceSweep, AdaptsToGraphSizeChanges) {
  DijkstraWorkspace ws;
  const Graph small = diamond();
  CsrAdjacency small_adj;
  small_adj.build(small);
  dijkstra_sweep(small_adj, 0, {1.0, 1.0, 3.0, 0.5}, {}, ws);
  EXPECT_DOUBLE_EQ(ws.distance(3), 2.0);

  const Topology topo = fat_tree(4);
  const Graph& big = topo.graph();
  CsrAdjacency big_adj;
  big_adj.build(big);
  const std::vector<double> w(static_cast<std::size_t>(big.num_edges()), 1.0);
  dijkstra_sweep(big_adj, topo.hosts()[0], w, {}, ws);
  EXPECT_DOUBLE_EQ(ws.distance(topo.hosts()[0]), 0.0);
  EXPECT_DOUBLE_EQ(ws.distance(topo.hosts()[15]), 6.0);
}

TEST(DijkstraWorkspaceSweep, LeafSkipOnlyAppliesToTargetedSweeps) {
  // Full sweeps must still settle leaves (hosts); targeted sweeps skip
  // non-target leaves and report them unreached.
  const Topology topo = fat_tree(4);
  const Graph& g = topo.graph();
  CsrAdjacency adj;
  adj.build(g);
  const std::vector<double> w(static_cast<std::size_t>(g.num_edges()), 1.0);
  const NodeId src = topo.hosts()[0];
  const NodeId other_host = topo.hosts()[7];
  const NodeId target = topo.hosts()[15];
  DijkstraWorkspace ws;
  dijkstra_sweep(adj, src, w, {}, ws);
  EXPECT_LT(ws.distance(other_host), kInfiniteDistance);
  const std::vector<NodeId> targets{target};
  dijkstra_sweep(adj, src, w, targets, ws);
  EXPECT_DOUBLE_EQ(ws.distance(target), 6.0);
  EXPECT_EQ(ws.distance(other_host), kInfiniteDistance);  // skipped leaf
}

TEST(BfsDistances, LineGraphDistances) {
  const Topology topo = line_network(5);
  const auto dist = bfs_distances(topo.graph(), 0);
  EXPECT_EQ(dist, (std::vector<std::int32_t>{0, 1, 2, 3, 4}));
}

TEST(StrongConnectivity, BidirectionalTopologiesAreStronglyConnected) {
  EXPECT_TRUE(is_strongly_connected(fat_tree(4).graph()));
  EXPECT_TRUE(is_strongly_connected(line_network(6).graph()));
  EXPECT_TRUE(is_strongly_connected(bcube(2, 1).graph()));
}

TEST(StrongConnectivity, DirectedChainIsNot) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_FALSE(is_strongly_connected(g));
}

// Property sweep: on fat-tree(k), BFS host-to-host distances follow the
// standard pattern (2 hops same edge switch, 4 same pod, 6 across pods),
// counting the two host links.
class FatTreePathTest : public ::testing::TestWithParam<int> {};

TEST_P(FatTreePathTest, HostDistancesFollowFatTreeStructure) {
  const int k = GetParam();
  const Topology topo = fat_tree(k);
  const Graph& g = topo.graph();
  const auto& hosts = topo.hosts();
  const int half = k / 2;
  const int hosts_per_pod = half * half;
  // Sample a few representative pairs.
  const NodeId h0 = hosts[0];
  const NodeId same_edge = hosts[1];
  const NodeId same_pod = hosts[static_cast<std::size_t>(half)];
  const NodeId other_pod = hosts[static_cast<std::size_t>(hosts_per_pod)];

  const auto d_edge = bfs_shortest_path(g, h0, same_edge);
  const auto d_pod = bfs_shortest_path(g, h0, same_pod);
  const auto d_cross = bfs_shortest_path(g, h0, other_pod);
  ASSERT_TRUE(d_edge && d_pod && d_cross);
  EXPECT_EQ(d_edge->length(), 2u);
  EXPECT_EQ(d_pod->length(), 4u);
  EXPECT_EQ(d_cross->length(), 6u);
}

INSTANTIATE_TEST_SUITE_P(Ks, FatTreePathTest, ::testing::Values(4, 6, 8));

TEST(CsrAdjacency, SyncFollowsGraphRevisionNotAddress) {
  // One snapshot synced against one graph address holding, in turn,
  // the diamond, a differently wired graph with the same node and edge
  // counts, and the diamond grown by add_edge: after each sync the
  // snapshot's out-adjacency is the current graph's.
  auto expect_snapshot_of = [](const CsrAdjacency& adj, const Graph& g) {
    ASSERT_EQ(adj.num_nodes(), g.num_nodes());
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      const auto out = adj.out(u);
      ASSERT_EQ(out.size(), g.out_edges(u).size()) << "node " << u;
      for (std::size_t k = 0; k < out.size(); ++k) {
        EXPECT_EQ(out[k].edge, g.out_edges(u)[k]);
        EXPECT_EQ(out[k].dst, g.edge(out[k].edge).dst);
      }
    }
  };
  const Graph a = diamond();
  Graph rewired(a.num_nodes());
  for (const Edge& e : a.edges()) {
    rewired.add_edge((e.src + 1) % a.num_nodes(), (e.dst + 1) % a.num_nodes());
  }
  std::optional<Graph> slot;
  CsrAdjacency adj;
  slot.emplace(a);
  const Graph* address = &*slot;
  adj.sync(*slot);
  expect_snapshot_of(adj, *slot);
  slot.emplace(rewired);
  ASSERT_EQ(&*slot, address);
  adj.sync(*slot);
  expect_snapshot_of(adj, *slot);
  slot.emplace(a);
  adj.sync(*slot);
  expect_snapshot_of(adj, *slot);
  slot->add_edge(3, 0);
  adj.sync(*slot);
  expect_snapshot_of(adj, *slot);
  // An unchanged graph, or an unmodified copy, keeps its revision.
  const Graph copy = *slot;
  EXPECT_EQ(copy.revision(), slot->revision());
  EXPECT_NE(a.revision(), slot->revision());
}

}  // namespace
}  // namespace dcn
