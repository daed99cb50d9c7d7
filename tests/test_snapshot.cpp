// Unit tests for snapshots and the fixed/scripted dynamic graphs.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/fixed_graphs.hpp"
#include "core/snapshot.hpp"
#include "graph/builders.hpp"

namespace megflood {
namespace {

TEST(Snapshot, StartsEmpty) {
  Snapshot s(4);
  EXPECT_EQ(s.num_nodes(), 4u);
  EXPECT_EQ(s.num_edges(), 0u);
  EXPECT_FALSE(s.has_edge(0, 1));
}

TEST(Snapshot, AddEdgeBothDirections) {
  Snapshot s(3);
  s.add_edge(0, 2);
  EXPECT_TRUE(s.has_edge(0, 2));
  EXPECT_TRUE(s.has_edge(2, 0));
  EXPECT_EQ(s.degree(0), 1u);
  EXPECT_EQ(s.degree(2), 1u);
  EXPECT_EQ(s.num_edges(), 1u);
}

TEST(Snapshot, ClearKeepsNodeCount) {
  Snapshot s(3);
  s.add_edge(0, 1);
  s.clear();
  EXPECT_EQ(s.num_nodes(), 3u);
  EXPECT_EQ(s.num_edges(), 0u);
  EXPECT_FALSE(s.has_edge(0, 1));
}

TEST(Snapshot, ResetChangesNodeCount) {
  Snapshot s(2);
  s.add_edge(0, 1);
  s.reset(5);
  EXPECT_EQ(s.num_nodes(), 5u);
  EXPECT_EQ(s.num_edges(), 0u);
}

TEST(Snapshot, EdgesCanonical) {
  Snapshot s(4);
  s.add_edge(3, 1);
  s.add_edge(0, 2);
  const auto edges = s.edges();
  EXPECT_EQ(edges.size(), 2u);
  for (const auto& [u, v] : edges) EXPECT_LT(u, v);
}

TEST(Snapshot, CopiesAndMovesGetNewIdentities) {
  Snapshot a(4);
  a.add_edge(0, 1);
  EXPECT_NE(a.identity(), 0u);
  const std::uint64_t id = a.identity();

  const Snapshot copy(a);
  EXPECT_NE(copy.identity(), id);
  EXPECT_EQ(copy.version(), a.version());  // a copy carries the count
  EXPECT_EQ(a.identity(), id);             // copying leaves the source

  Snapshot assigned(4);
  const std::uint64_t assigned_id = assigned.identity();
  assigned = a;
  EXPECT_NE(assigned.identity(), assigned_id);
  EXPECT_NE(assigned.identity(), id);
  EXPECT_EQ(assigned.edge_buffer(), a.edge_buffer());

  // Both sides of a move get new identities: the source's edges changed.
  Snapshot source(a);
  std::uint64_t source_id = source.identity();
  const Snapshot moved(std::move(source));
  EXPECT_NE(moved.identity(), source_id);
  EXPECT_NE(source.identity(), source_id);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved.edge_buffer(), a.edge_buffer());

  Snapshot move_assigned(4);
  const std::uint64_t move_assigned_id = move_assigned.identity();
  source = a;
  source_id = source.identity();
  move_assigned = std::move(source);
  EXPECT_NE(move_assigned.identity(), move_assigned_id);
  EXPECT_NE(move_assigned.identity(), source_id);
  EXPECT_NE(source.identity(), source_id);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(move_assigned.edge_buffer(), a.edge_buffer());

  // Self-assignment renews the identity too.  (Through a reference, so
  // the compiler does not flag the self-assignment itself.)
  Snapshot& self = a;
  a = self;
  EXPECT_NE(a.identity(), id);
  EXPECT_EQ(a.num_edges(), 1u);
  const std::uint64_t before_move = a.identity();
  a = std::move(self);
  EXPECT_NE(a.identity(), before_move);

  // Freshly constructed snapshots never share an identity.
  EXPECT_NE(Snapshot(4).identity(), Snapshot(4).identity());
}

TEST(Snapshot, MutatorsKeepIdentityAndBumpVersion) {
  Snapshot s(4);
  const std::uint64_t id = s.identity();
  std::uint64_t version = s.version();
  const auto expect_bumped = [&](const char* mutator) {
    EXPECT_EQ(s.identity(), id) << mutator;
    EXPECT_GT(s.version(), version) << mutator;
    version = s.version();
  };
  s.add_edge(0, 1);
  expect_bumped("add_edge");
  std::vector<std::pair<NodeId, NodeId>> edges = {{1, 2}, {3, 0}};
  s.swap_edges(edges);
  expect_bumped("swap_edges");
  s.clear();
  expect_bumped("clear");
  s.reset(6);
  expect_bumped("reset");
}

TEST(Snapshot, HeldSnapshotKeepsIdentityAndVersion) {
  // Reads, including the lazy CSR build, are not mutations.
  Snapshot s(4);
  s.add_edge(0, 1);
  s.add_edge(2, 1);
  const std::uint64_t id = s.identity();
  const std::uint64_t version = s.version();
  EXPECT_TRUE(s.has_edge(1, 2));
  EXPECT_EQ(s.degree(1), 2u);
  (void)s.csr();
  (void)s.edges();
  EXPECT_EQ(s.identity(), id);
  EXPECT_EQ(s.version(), version);

  FixedDynamicGraph d(path_graph(4));
  const std::uint64_t fixed_id = d.snapshot().identity();
  const std::uint64_t fixed_version = d.snapshot().version();
  d.step();
  d.step();
  d.reset(7);
  EXPECT_EQ(d.snapshot().identity(), fixed_id);
  EXPECT_EQ(d.snapshot().version(), fixed_version);
}

TEST(FixedDynamicGraph, MirrorsGraph) {
  const Graph g = cycle_graph(5);
  FixedDynamicGraph d(g);
  EXPECT_EQ(d.num_nodes(), 5u);
  EXPECT_EQ(d.snapshot().num_edges(), 5u);
  EXPECT_TRUE(d.snapshot().has_edge(0, 4));
}

TEST(FixedDynamicGraph, StepKeepsTopologyAdvancesClock) {
  FixedDynamicGraph d(path_graph(4));
  const std::size_t before = d.snapshot().num_edges();
  d.step();
  d.step();
  EXPECT_EQ(d.snapshot().num_edges(), before);
  EXPECT_EQ(d.time(), 2u);
  d.reset(0);
  EXPECT_EQ(d.time(), 0u);
}

Snapshot single_edge_snapshot(std::size_t n, NodeId u, NodeId v) {
  Snapshot s(n);
  s.add_edge(u, v);
  return s;
}

TEST(ScriptedDynamicGraph, PlaysSequenceAndHolds) {
  std::vector<Snapshot> script;
  script.push_back(single_edge_snapshot(3, 0, 1));
  script.push_back(single_edge_snapshot(3, 1, 2));
  ScriptedDynamicGraph d(std::move(script));
  EXPECT_TRUE(d.snapshot().has_edge(0, 1));
  d.step();
  EXPECT_TRUE(d.snapshot().has_edge(1, 2));
  d.step();  // holds final snapshot
  EXPECT_TRUE(d.snapshot().has_edge(1, 2));
}

TEST(ScriptedDynamicGraph, CyclesWhenRequested) {
  std::vector<Snapshot> script;
  script.push_back(single_edge_snapshot(3, 0, 1));
  script.push_back(single_edge_snapshot(3, 1, 2));
  ScriptedDynamicGraph d(std::move(script), /*cycle=*/true);
  d.step();
  d.step();
  EXPECT_TRUE(d.snapshot().has_edge(0, 1));
}

TEST(ScriptedDynamicGraph, ResetRewinds) {
  std::vector<Snapshot> script;
  script.push_back(single_edge_snapshot(2, 0, 1));
  script.push_back(Snapshot(2));
  ScriptedDynamicGraph d(std::move(script));
  d.step();
  EXPECT_EQ(d.snapshot().num_edges(), 0u);
  d.reset(0);
  EXPECT_EQ(d.snapshot().num_edges(), 1u);
}

TEST(ScriptedDynamicGraph, RejectsBadScripts) {
  EXPECT_THROW(ScriptedDynamicGraph({}), std::invalid_argument);
  std::vector<Snapshot> bad;
  bad.emplace_back(2);
  bad.emplace_back(3);
  EXPECT_THROW(ScriptedDynamicGraph(std::move(bad)), std::invalid_argument);
}

}  // namespace
}  // namespace megflood
