// Tests for the clique-flicker graph (the beta-independence ablation).

#include <gtest/gtest.h>

#include <cmath>

#include "core/flooding.hpp"
#include "meg/clique_flicker.hpp"
#include "meg/edge_meg.hpp"

namespace megflood {
namespace {

TEST(CliqueFlicker, ValidationErrors) {
  EXPECT_THROW(CliqueFlickerGraph(1, 2, 0.5, 0), std::invalid_argument);
  EXPECT_THROW(CliqueFlickerGraph(8, 1, 0.5, 0), std::invalid_argument);
  EXPECT_THROW(CliqueFlickerGraph(8, 9, 0.5, 0), std::invalid_argument);
  EXPECT_THROW(CliqueFlickerGraph(8, 4, 0.0, 0), std::invalid_argument);
  EXPECT_THROW(CliqueFlickerGraph(8, 4, 1.5, 0), std::invalid_argument);
}

TEST(CliqueFlicker, SnapshotIsCliqueOrEmpty) {
  CliqueFlickerGraph g(16, 5, 0.6, 3);
  for (int t = 0; t < 50; ++t) {
    const std::size_t edges = g.snapshot().num_edges();
    EXPECT_TRUE(edges == 0 || edges == 10u) << "edges=" << edges;
    if (edges == 10) {
      // The edges form a clique: every participating node has degree 4.
      for (NodeId v = 0; v < 16; ++v) {
        const std::size_t d = g.snapshot().degree(v);
        EXPECT_TRUE(d == 0 || d == 4u);
      }
    }
    g.step();
  }
}

TEST(CliqueFlicker, EdgeProbabilityMatchesFormula) {
  CliqueFlickerGraph g(20, 6, 0.5, 7);
  const double expected = g.edge_probability();
  EXPECT_NEAR(expected, 0.5 * 6.0 * 5.0 / (20.0 * 19.0), 1e-12);
  std::size_t hits = 0;
  constexpr int kSamples = 20000;
  for (int t = 0; t < kSamples; ++t) {
    if (g.snapshot().has_edge(0, 1)) ++hits;
    g.step();
  }
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, expected, 0.01);
}

TEST(CliqueFlicker, IncidentBetaLarge) {
  // Incident edges are maximally correlated: beta ~ n/(rho m) >> 1.
  CliqueFlickerGraph g(64, 8, 0.25, 5);
  EXPECT_GT(g.incident_beta(), 10.0);
  // And the formula matches the definition numerically.
  const double m = 8, n = 64, rho = 0.25;
  const double p_both = rho * m * (m - 1) * (m - 2) / (n * (n - 1) * (n - 2));
  const double p_one = g.edge_probability();
  EXPECT_NEAR(g.incident_beta(), p_both / (p_one * p_one), 1e-9);
}

TEST(CliqueFlicker, ResetReproduces) {
  CliqueFlickerGraph g(16, 4, 0.5, 9);
  std::vector<std::size_t> first;
  for (int t = 0; t < 12; ++t) {
    g.step();
    first.push_back(g.snapshot().num_edges());
  }
  g.reset(9);
  for (int t = 0; t < 12; ++t) {
    g.step();
    EXPECT_EQ(g.snapshot().num_edges(), first[static_cast<std::size_t>(t)]);
  }
}

TEST(CliqueFlicker, BadGammaThrows) {
  EXPECT_THROW(CliqueFlickerGraph(8, 4, 0.5, 0, 0.0), std::invalid_argument);
  EXPECT_THROW(CliqueFlickerGraph(8, 4, 0.5, 0, 1.5), std::invalid_argument);
}

TEST(CliqueFlicker, StickySubsetPersists) {
  // gamma = tiny: the clique membership set stays fixed across rounds.
  CliqueFlickerGraph g(32, 5, 1.0, 13, 1e-12);
  std::vector<std::pair<NodeId, NodeId>> first = g.snapshot().edges();
  for (int t = 0; t < 20; ++t) {
    g.step();
    EXPECT_EQ(g.snapshot().edges(), first) << "t=" << t;
  }
}

TEST(CliqueFlicker, IidCliquesFloodLikeMatchedIndependent) {
  // Finding (ablation A2): beta is enormous here (~n/(rho m) ~ 21), yet with
  // i.i.d. clique placement flooding stays within a small constant factor
  // of the independent edge-MEG at the same per-pair alpha (the
  // correlation only taxes the saturation tail) — far from the beta^2
  // penalty a naive reading of Theorem 1's bound would suggest.
  const std::size_t n = 64;
  CliqueFlickerGraph correlated(n, 6, 0.5, 11);
  const double alpha = correlated.edge_probability();
  TwoStateEdgeMEG independent(n, {alpha, 1.0 - alpha}, 11);

  double corr_total = 0.0, ind_total = 0.0;
  constexpr int kTrials = 8;
  for (std::uint64_t trial = 0; trial < kTrials; ++trial) {
    correlated.reset(trial * 17 + 1);
    independent.reset(trial * 17 + 1);
    const FloodResult rc = flood(correlated, 0, 1'000'000);
    const FloodResult ri = flood(independent, 0, 1'000'000);
    ASSERT_TRUE(rc.completed);
    ASSERT_TRUE(ri.completed);
    corr_total += static_cast<double>(rc.rounds);
    ind_total += static_cast<double>(ri.rounds);
  }
  EXPECT_LT(corr_total, 8.0 * ind_total);
  EXPECT_GT(corr_total, ind_total / 8.0);
}

TEST(CliqueFlicker, StickyCliquesFloodMuchSlower) {
  // Same snapshot distribution (same alpha, same beta), but the subset
  // chain mixes in ~1/gamma steps instead of 1: flooding slows by about
  // that epoch factor, exactly the M-dependence of Theorem 1.
  const std::size_t n = 64;
  const double gamma = 0.02;
  double sticky_total = 0.0, iid_total = 0.0;
  constexpr int kTrials = 6;
  for (std::uint64_t trial = 0; trial < kTrials; ++trial) {
    CliqueFlickerGraph sticky(n, 6, 0.5, trial * 31 + 7, gamma);
    CliqueFlickerGraph iid(n, 6, 0.5, trial * 31 + 7, 1.0);
    const FloodResult rs = flood(sticky, 0, 10'000'000);
    const FloodResult ri = flood(iid, 0, 10'000'000);
    ASSERT_TRUE(rs.completed);
    ASSERT_TRUE(ri.completed);
    sticky_total += static_cast<double>(rs.rounds);
    iid_total += static_cast<double>(ri.rounds);
  }
  EXPECT_GT(sticky_total, 5.0 * iid_total);
}

}  // namespace
}  // namespace megflood
