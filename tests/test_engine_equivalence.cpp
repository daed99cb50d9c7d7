// Same-seed equivalence suite: the CSR/bitset engine must produce
// bit-for-bit identical model states and flood trajectories to the
// retained reference implementation (tests/reference_engine.hpp), which
// is a faithful copy of the historical vector<vector> / byte-array /
// unordered_set data path.  Any divergence is an engine bug, not noise:
// every layer below the RNG is deterministic.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/bitwords.hpp"
#include "core/fixed_graphs.hpp"
#include "core/flooding.hpp"
#include "core/trace.hpp"
#include "graph/builders.hpp"
#include "markov/chain.hpp"
#include "meg/edge_meg.hpp"
#include "meg/node_meg.hpp"
#include "mobility/random_walk.hpp"
#include "reference_engine.hpp"

namespace megflood {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 2, 3, 7, 11};
constexpr std::size_t kSteps = 64;

std::vector<reference::RefSnapshot> to_reference(
    const std::vector<Snapshot>& trace) {
  std::vector<reference::RefSnapshot> ref;
  ref.reserve(trace.size());
  for (const Snapshot& snap : trace) {
    ref.push_back(reference::RefSnapshot::from(snap));
  }
  return ref;
}

// Records a trace from the production model and checks the production
// flood() and flood_all_sources() trajectories against the reference
// scalar engine replaying the exact same snapshots.
void expect_flood_equivalence(DynamicGraph& model, std::uint64_t seed) {
  model.reset(seed);
  const std::vector<Snapshot> trace = record_trace(model, kSteps);
  const auto ref_trace = to_reference(trace);
  const std::size_t n = model.num_nodes();

  ScriptedDynamicGraph scripted(trace);
  for (NodeId source : {NodeId{0}, static_cast<NodeId>(n / 2)}) {
    scripted.reset(0);
    const FloodResult got = flood(scripted, source, kSteps);
    const auto want = reference::ref_flood_counts(ref_trace, source, n, kSteps);
    EXPECT_EQ(got.informed_counts, want)
        << "seed " << seed << " source " << source;
  }

  scripted.reset(0);
  const AllSourcesResult all = flood_all_sources(scripted, kSteps);
  const auto want_all = reference::ref_all_sources_counts(ref_trace, n, kSteps);
  ASSERT_EQ(all.per_source.size(), want_all.size());
  for (NodeId s = 0; s < n; ++s) {
    EXPECT_EQ(all.per_source[s].informed_counts, want_all[s])
        << "seed " << seed << " source " << s;
  }
}

TEST(EngineEquivalence, EdgeMegSparseStateAndStreams) {
  // The incremental sorted on-set must consume the RNG identically to the
  // historical unordered_set + re-sort step, so the *states* match
  // edge-for-edge at every step — not just statistically.
  constexpr std::size_t n = 64;
  const TwoStateParams params{2.0 / (n * n), 0.25};
  for (std::uint64_t seed : kSeeds) {
    TwoStateEdgeMEG meg(n, params, seed);
    reference::RefTwoStateEdgeMEG ref(n, params, seed);
    for (std::size_t t = 0; t < kSteps; ++t) {
      ASSERT_EQ(meg.snapshot().edges(), ref.edges())
          << "seed " << seed << " step " << t;
      meg.step();
      ref.step();
    }
  }
}

TEST(EngineEquivalence, EdgeMegDenseStateAndStreams) {
  constexpr std::size_t n = 48;
  const TwoStateParams params{0.2, 0.2};
  for (std::uint64_t seed : kSeeds) {
    TwoStateEdgeMEG meg(n, params, seed);
    reference::RefTwoStateEdgeMEG ref(n, params, seed);
    for (std::size_t t = 0; t < kSteps; ++t) {
      ASSERT_EQ(meg.snapshot().edges(), ref.edges())
          << "seed " << seed << " step " << t;
      meg.step();
      ref.step();
    }
  }
}

TEST(EngineEquivalence, EdgeMegSparseFloodTrajectories) {
  constexpr std::size_t n = 64;
  TwoStateEdgeMEG meg(n, {3.0 / n, 0.3}, 1);
  for (std::uint64_t seed : kSeeds) expect_flood_equivalence(meg, seed);
}

TEST(EngineEquivalence, EdgeMegDenseFloodTrajectories) {
  constexpr std::size_t n = 48;
  TwoStateEdgeMEG meg(n, {0.2, 0.2}, 1);
  for (std::uint64_t seed : kSeeds) expect_flood_equivalence(meg, seed);
}

TEST(EngineEquivalence, NodeMegFloodTrajectories) {
  ExplicitNodeMEG meg(64, lazy_random_walk_chain(cycle_graph(12)),
                      cycle_proximity_connection(12, 1), 1);
  for (std::uint64_t seed : kSeeds) expect_flood_equivalence(meg, seed);
}

TEST(EngineEquivalence, RandomWalkFloodTrajectories) {
  const auto g = std::make_shared<const Graph>(grid_2d(8));
  RandomWalkModel model(g, 64, {}, 1);
  for (std::uint64_t seed : kSeeds) expect_flood_equivalence(model, seed);
}

// One word round over the whole informed set `cur`: the edge scan, or
// the row scan with nothing excluded.
std::size_t full_word_round(bool rows, const Snapshot& snap,
                            const std::vector<std::uint64_t>& cur,
                            std::vector<std::uint64_t>& next) {
  const std::size_t n = snap.num_nodes();
  if (!rows) return flood_round_edges(snap, cur.data(), next.data(), n);
  const std::vector<std::uint64_t> none(cur.size(), 0);
  return flood_round_rows(snap, none.data(), cur.data(), next.data(), n);
}

TEST(EngineEquivalence, WordRoundMatchesByteRound) {
  // Both word rounds against the byte-array flood_round on one snapshot.
  TwoStateEdgeMEG meg(96, {0.05, 0.2}, 5);
  const Snapshot& snap = meg.snapshot();
  std::vector<char> informed(96, 0);
  for (NodeId u = 0; u < 96; u += 7) informed[u] = 1;
  std::vector<std::uint64_t> cur(bit_words(96), 0);
  for (NodeId u = 0; u < 96; u += 7) set_bit(cur.data(), u);
  std::vector<NodeId> scratch;
  const std::size_t newly_bytes = flood_round(snap, informed, scratch);
  for (const bool rows : {false, true}) {
    std::vector<std::uint64_t> next = cur;
    EXPECT_EQ(full_word_round(rows, snap, cur, next), newly_bytes);
    for (NodeId v = 0; v < 96; ++v) {
      EXPECT_EQ(test_bit(next.data(), v), informed[v] != 0) << "node " << v;
    }
  }
}

// A snapshot of `edges` distinct random pairs, each added in the order
// its endpoints were drawn, so about half are non-canonical (u > v) — the
// orientation node-MEG and mobility producers emit.  Precondition:
// edges <= n(n-1)/2.
Snapshot random_snapshot(std::size_t n, std::size_t edges, Rng& rng) {
  Snapshot snap(n);
  std::set<std::pair<NodeId, NodeId>> seen;
  while (seen.size() < edges) {
    const auto u = static_cast<NodeId>(rng.uniform_int(n));
    const auto v = static_cast<NodeId>(rng.uniform_int(n));
    if (u == v || !seen.insert(std::minmax(u, v)).second) continue;
    snap.add_edge(u, v);
  }
  return snap;
}

// The path 0 - 1 - ... - (n-1), every edge added as (i + 1, i).
Snapshot reversed_path(std::size_t n) {
  Snapshot snap(n);
  for (NodeId i = 0; i + 1 < n; ++i) snap.add_edge(i + 1, i);
  return snap;
}

// A producer with one snapshot member that, step by step, holds it,
// mutates it in place, or replaces it by copy assignment, move assignment
// or re-construction at the same address with a different edge set of the
// same mutation count.  A replacement leaves the member at the same
// address and version() over other edges: flood() must read it as a
// changed topology, never as a held one.
class ReplacingDynamicGraph final : public DynamicGraph {
 public:
  enum class Op {
    kHold,
    kAddEdge,
    kSwapEdges,
    kCopyAssign,
    kMoveAssign,
    kRecreate
  };

  ReplacingDynamicGraph(std::size_t n, std::vector<Op> ops)
      : n_(n), ops_(std::move(ops)), rng_(0) {
    reset(0);
  }

  std::size_t num_nodes() const override { return n_; }
  const Snapshot& snapshot() const override { return *snap_; }

  void step() override {
    const std::uint64_t version = snap_->version();
    switch (ops_[time() % ops_.size()]) {
      case Op::kHold:
        break;
      case Op::kAddEdge: {
        NodeId u = 0;
        NodeId v = 0;
        do {
          u = static_cast<NodeId>(rng_.uniform_int(n_));
          v = static_cast<NodeId>(rng_.uniform_int(n_));
        } while (u == v || snap_->has_edge(u, v));
        snap_->add_edge(u, v);
        break;
      }
      case Op::kSwapEdges: {
        auto edges = random_snapshot(n_, kEdges, rng_).edge_buffer();
        snap_->swap_edges(edges);
        break;
      }
      case Op::kCopyAssign: {
        const Snapshot other = replacement(version);
        *snap_ = other;
        break;
      }
      case Op::kMoveAssign: {
        Snapshot other = replacement(version);
        *snap_ = std::move(other);
        break;
      }
      case Op::kRecreate:
        snap_.emplace(replacement(version));
        break;
    }
    advance_clock();
  }

  void reset(std::uint64_t seed) override {
    rng_ = Rng(seed);
    snap_.emplace(reversed_path(n_));
    reset_clock();
  }

 private:
  static constexpr std::size_t kEdges = 60;

  // kEdges random pairs at exactly `version` mutations (clear() pads the
  // count); a copy or move carries the count into the member.
  Snapshot replacement(std::uint64_t version) {
    Snapshot snap(n_);
    while (snap.version() + kEdges < version) snap.clear();
    const Snapshot edges = random_snapshot(n_, kEdges, rng_);
    for (const auto& [u, v] : edges.edge_buffer()) snap.add_edge(u, v);
    if (snap.version() != version) {
      throw std::logic_error("replacement: version below kEdges");
    }
    return snap;
  }

  std::size_t n_;
  std::vector<Op> ops_;
  Rng rng_;
  std::optional<Snapshot> snap_;
};

TEST(EngineEquivalence, FloodKernelsAgreeOnNonCanonicalSnapshots) {
  // The edge scan, the CSR row scan, the byte-array round and the
  // reference round on random informed sets, then the frontier row scan
  // on the round after, for n on and off a multiple of 64.
  Rng rng(41);
  for (const std::size_t n : {2, 3, 63, 64, 65, 100, 130}) {
    for (int rep = 0; rep < 20; ++rep) {
      const std::size_t edges =
          rng.uniform_int(std::min(n * 3 / 2, n * (n - 1) / 2) + 1);
      const Snapshot snap = random_snapshot(n, edges, rng);
      const auto ref = reference::RefSnapshot::from(snap);
      std::vector<char> informed(n, 0), ref_informed(n, 0);
      std::vector<std::uint64_t> cur(bit_words(n), 0);
      for (NodeId u = 0; u < n; ++u) {
        if (rng.bernoulli(0.2)) {
          informed[u] = ref_informed[u] = 1;
          set_bit(cur.data(), u);
        }
      }
      std::vector<NodeId> scratch;
      const std::size_t want = reference::ref_flood_round(ref, ref_informed);
      ASSERT_EQ(flood_round(snap, informed, scratch), want);
      ASSERT_EQ(informed, ref_informed);
      for (const bool rows : {false, true}) {
        std::vector<std::uint64_t> next = cur;
        ASSERT_EQ(full_word_round(rows, snap, cur, next), want) << "n " << n;
        for (NodeId v = 0; v < n; ++v) {
          ASSERT_EQ(test_bit(next.data(), v), ref_informed[v] != 0)
              << "n " << n << " node " << v;
        }
        // No bit past n is ever set.
        for (std::size_t v = n; v < bit_words(n) * kBitWordBits; ++v) {
          ASSERT_FALSE(test_bit(next.data(), v)) << "n " << n;
        }
      }
      // The frontier round: from I_1 = I_0 u N(I_0) on the same edges,
      // scanning the rows of I_1 \ I_0 alone gives I_2.
      std::vector<std::uint64_t> mid = cur;
      flood_round_edges(snap, cur.data(), mid.data(), n);
      std::vector<std::uint64_t> next = mid;
      const std::size_t want2 = reference::ref_flood_round(ref, ref_informed);
      ASSERT_EQ(flood_round_rows(snap, cur.data(), mid.data(), next.data(), n),
                want2)
          << "n " << n;
      for (NodeId v = 0; v < n; ++v) {
        ASSERT_EQ(test_bit(next.data(), v), ref_informed[v] != 0)
            << "n " << n << " node " << v;
      }
    }
  }
}

TEST(EngineEquivalence, FloodSwitchesToRowScanWhenScriptHolds) {
  // Four fresh random snapshots (edge scan), then the script holds a
  // reversed path, the same unmodified object every round (frontier row
  // scan): the trajectory must match the reference across the switch.
  constexpr std::size_t n = 100;
  Rng rng(43);
  std::vector<Snapshot> script;
  for (int t = 0; t < 4; ++t) script.push_back(random_snapshot(n, 30, rng));
  script.push_back(reversed_path(n));
  const auto ref_trace = to_reference(script);
  ScriptedDynamicGraph scripted(script);
  for (const NodeId source : {NodeId{0}, NodeId{37}, NodeId{99}}) {
    scripted.reset(0);
    const FloodResult got = flood(scripted, source, 3 * n);
    EXPECT_TRUE(got.completed) << "source " << source;
    EXPECT_GT(got.rounds, script.size()) << "source " << source;
    EXPECT_EQ(got.informed_counts,
              reference::ref_flood_counts(ref_trace, source, n, 3 * n))
        << "source " << source;
  }
}

TEST(EngineEquivalence, FloodOnFixedGraphMatchesReference) {
  // A fixed topology: the first round scans edges, every later one the
  // cached CSR rows of the frontier.
  for (const std::size_t n : {65, 100}) {
    FixedDynamicGraph fixed(cycle_graph(n));
    const std::vector<reference::RefSnapshot> ref_trace = {
        reference::RefSnapshot::from(fixed.snapshot())};
    for (const NodeId source : {NodeId{0}, static_cast<NodeId>(n - 1)}) {
      fixed.reset(0);
      const FloodResult got = flood(fixed, source, n);
      EXPECT_TRUE(got.completed);
      EXPECT_EQ(got.rounds, n / 2);
      EXPECT_EQ(got.informed_counts,
                reference::ref_flood_counts(ref_trace, source, n, n))
          << "n " << n << " source " << source;
    }
  }
}


TEST(EngineEquivalence, FloodTellsHeldFromReplacedSnapshots) {
  // Held rounds around every kind of change, so flood() alternates
  // between frontier rounds and edge scans; the trajectory must match the
  // reference replaying the same snapshots.
  using Op = ReplacingDynamicGraph::Op;
  constexpr std::size_t n = 100;
  constexpr std::uint64_t kRounds = 2 * n;
  ReplacingDynamicGraph graph(
      n, {Op::kHold, Op::kHold, Op::kCopyAssign, Op::kHold, Op::kHold,
          Op::kAddEdge, Op::kHold, Op::kMoveAssign, Op::kHold, Op::kHold,
          Op::kSwapEdges, Op::kHold, Op::kRecreate, Op::kHold});
  for (const std::uint64_t seed : kSeeds) {
    graph.reset(seed);
    std::vector<reference::RefSnapshot> trace;
    for (std::uint64_t t = 0; t <= kRounds; ++t) {
      trace.push_back(reference::RefSnapshot::from(graph.snapshot()));
      graph.step();
    }
    for (const NodeId source : {NodeId{0}, NodeId{37}, NodeId{99}}) {
      graph.reset(seed);
      EXPECT_EQ(flood(graph, source, kRounds).informed_counts,
                reference::ref_flood_counts(trace, source, n, kRounds))
          << "seed " << seed << " source " << source;
    }
  }
}

}  // namespace
}  // namespace megflood
