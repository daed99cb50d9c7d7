#include "meg/edge_meg.hpp"

#include <stdexcept>

#include "meg/pair_index.hpp"

namespace megflood {

TwoStateEdgeMEG::TwoStateEdgeMEG(std::size_t num_nodes, TwoStateParams params,
                                 std::uint64_t seed, EdgeMegInit init)
    : n_(num_nodes),
      chain_(params),
      init_(init),
      rng_(seed),
      total_pairs_(pair_count(num_nodes)) {
  if (num_nodes < 2) {
    throw std::invalid_argument("TwoStateEdgeMEG: need at least 2 nodes");
  }
  snapshot_.reset(n_);
  initialize();
}

void TwoStateEdgeMEG::initialize() {
  next_edges_.clear();
  switch (init_) {
    case EdgeMegInit::kAllOff:
      break;
    case EdgeMegInit::kAllOn:
      next_edges_.reserve(total_pairs_);
      for (NodeId i = 0; i + 1 < n_; ++i) {
        for (NodeId j = i + 1; j < n_; ++j) next_edges_.emplace_back(i, j);
      }
      break;
    case EdgeMegInit::kStationary: {
      // Geometric skipping over the pair enumeration; indices arrive
      // strictly increasing, so the on-set is sorted by construction.
      PairRowCursor pair_of(n_);
      geometric_select(rng_, total_pairs_, chain_.stationary_on(),
                       [&](std::uint64_t e) {
                         next_edges_.push_back(pair_of(e));
                       });
      break;
    }
  }
  snapshot_.swap_edges(next_edges_);
}

void TwoStateEdgeMEG::step() {
  const double p = chain_.birth_rate();
  const double q = chain_.death_rate();

  // Deaths: each edge that is on at the start of the step dies with
  // probability q.  The on-set is walked in sorted order (it is stored
  // sorted), so the RNG consumption sequence is a pure function of the
  // seed and the state.  The dead are collected and applied together
  // with the births in one merge.
  killed_.clear();
  if (q > 0.0) {
    for (const auto& [i, j] : snapshot_.edge_buffer()) {
      if (rng_.bernoulli(q)) killed_.push_back(pack_pair(i, j));
    }
  }

  // Births: mark every pair with probability p via geometric skipping over
  // the linear pair enumeration.  The merge decides each mark against the
  // pre-step state: a mark on a surviving on-pair is a no-op (kept once)
  // and a mark on a killed pair is dropped with it, which restricts
  // births to exactly the pre-step off edges.
  born_.clear();
  if (p > 0.0) {
    PairRowCursor pair_of(n_);
    geometric_select(rng_, total_pairs_, p, [&](std::uint64_t e) {
      const auto [i, j] = pair_of(e);
      born_.push_back(pack_pair(i, j));
    });
  }

  merge_on_set(snapshot_, killed_, born_, next_edges_);
  advance_clock();
}

void TwoStateEdgeMEG::reset(std::uint64_t seed) {
  rng_.reseed(seed);
  reset_clock();
  initialize();
}

}  // namespace megflood
