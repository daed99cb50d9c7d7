#pragma once

// Clique-flicker dynamic graph: the beta-independence ablation model.
//
// At every step, with probability `rho` the snapshot is a clique over a
// subset of `clique_size` nodes, otherwise it is empty; the subset itself
// is re-drawn uniformly with probability `resample_probability` per step
// and kept otherwise.  Per-pair snapshot probability is
// alpha = rho * m(m-1) / (n(n-1)) regardless of stickiness, but incident
// edges are *maximally positively correlated*: if one clique edge exists,
// all of them do — Theorem 1's beta is ~ n/(rho m), enormous.
//
// Purpose (ablation A2, `megflood_fit a2`), two findings:
//  * resample_probability = 1 (i.i.d. cliques): beta is huge yet flooding
//    matches the matched-alpha independent edge-MEG — the beta^2 factor
//    in Theorem 1's bound is sufficient-side slack, not a lower bound;
//  * resample_probability small (sticky cliques): the same snapshot
//    distribution floods far slower — consistent with Theorem 1, whose
//    conditional (M, alpha, beta)-stationarity forces the epoch length up
//    to the subset chain's mixing time ~ 1/resample_probability.

#include <cstdint>
#include <vector>

#include "core/dynamic_graph.hpp"
#include "util/rng.hpp"

namespace megflood {

class CliqueFlickerGraph final : public DynamicGraph {
 public:
  // Requires 2 <= clique_size <= num_nodes, rho in (0, 1], and
  // resample_probability in (0, 1].
  CliqueFlickerGraph(std::size_t num_nodes, std::size_t clique_size,
                     double rho, std::uint64_t seed,
                     double resample_probability = 1.0);

  std::size_t num_nodes() const override { return n_; }
  const Snapshot& snapshot() const override { return snapshot_; }
  void step() override;
  void reset(std::uint64_t seed) override;

  // Exact per-pair edge probability in a snapshot:
  // rho * C(m,2) / C(n,2) restated per fixed pair:
  // P(both endpoints in the clique) = m(m-1) / (n(n-1)).
  double edge_probability() const;

  // Exact beta for incident pairs: P(e1 & e2) / (P(e1) P(e2)) for two
  // incident edges {i,j}, {i,k}.
  double incident_beta() const;

  double resample_probability() const noexcept { return gamma_; }

 private:
  void resample_subset();
  void rebuild();

  std::size_t n_;
  std::size_t clique_size_;
  double rho_;
  double gamma_;
  Rng rng_;
  std::vector<NodeId> scratch_;  // first clique_size_ entries = subset
  Snapshot snapshot_;
};

}  // namespace megflood
