#include "meg/edge_meg.hpp"

#include <algorithm>
#include <array>
#include <bit>
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
      // As in step(), indices are drawn first and converted to pairs in
      // a separate pass, here a fixed chunk at a time.
      PairRowCursor pair_of(n_);
      std::array<std::uint64_t, 512> chunk{};
      std::size_t filled = 0;
      const auto convert = [&] {
        for (std::size_t k = 0; k < filled; ++k) {
          next_edges_.push_back(pair_of(chunk[k]));
        }
        filled = 0;
      };
      geometric_select(rng_, total_pairs_, chain_.stationary_on(),
                       [&](std::uint64_t e) {
                         chunk[filled++] = e;
                         if (filled == chunk.size()) convert();
                       });
      convert();
      break;
    }
  }
  snapshot_.swap_edges(next_edges_);
}

std::size_t TwoStateEdgeMEG::draw_deaths(double q) {
  const std::size_t on = snapshot_.num_edges();
  dead_.assign((on + 63) / 64, 0);
  if (q <= 0.0) return 0;
  // One coin per on-edge, in buffer order, folded into the edge's mask
  // bit; the walk needs only the count of on-edges, not the edges.
  const BernoulliSampler dies(q);
  std::size_t deaths = 0;
  for (std::size_t pos = 0; pos < on; pos += 64) {
    const std::size_t bits = std::min<std::size_t>(64, on - pos);
    std::uint64_t word = 0;
    for (std::size_t k = 0; k < bits; ++k) {
      word |= static_cast<std::uint64_t>(dies(rng_)) << k;
    }
    dead_[pos / 64] = word;
    deaths += static_cast<std::size_t>(std::popcount(word));
  }
  return deaths;
}

void TwoStateEdgeMEG::step() {
  const double p = chain_.birth_rate();
  const double q = chain_.death_rate();

  // Deaths: each edge that is on at the start of the step dies with
  // probability q.  The on-set is walked in sorted order (it is stored
  // sorted), so the RNG consumption sequence is a pure function of the
  // seed and the state.
  const std::size_t deaths = draw_deaths(q);

  // Births: mark every pair with probability p via geometric skipping over
  // the linear pair enumeration, then convert the marks to packed keys in
  // a second pass (the cursor's row hops would otherwise share a loop with
  // the draws' log()).  The merge decides each mark against the pre-step
  // state: a mark on a surviving on-pair is a no-op (kept once) and a mark
  // on a dying pair is dropped with it, which restricts births to exactly
  // the pre-step off edges.
  born_.clear();
  if (p > 0.0) {
    geometric_select(rng_, total_pairs_, p,
                     [&](std::uint64_t e) { born_.push_back(e); });
    PairRowCursor pair_of(n_);
    for (std::uint64_t& mark : born_) {
      const auto [i, j] = pair_of(mark);
      mark = pack_pair(i, j);
    }
  }

  merge_on_set(snapshot_, DeathMask(dead_, deaths), born_, next_edges_);
  advance_clock();
}

void TwoStateEdgeMEG::reset(std::uint64_t seed) {
  rng_.reseed(seed);
  reset_clock();
  initialize();
}

}  // namespace megflood
