#pragma once

// The classic edge-Markovian evolving graph (paper Appendix A, reference
// [10]): every one of the n(n-1)/2 potential edges evolves independently
// by the two-state chain with birth rate p and death rate q.
//
// The implementation is output-sensitive: per step it touches only the
// edges currently on plus the O(p * n^2) newly-born candidates, via
// geometric skipping — so sparse regimes (p = c/n^2 .. c/n) scale to
// thousands of nodes.
//
// The on-edge set is the snapshot's edge buffer itself — canonical
// (i, j) pairs in ascending order — updated per step by one sorted merge
// (meg/on_set.hpp), so a step performs no hashing, no re-sort, and (after
// warmup) no allocation.  A step runs in three phases, every RNG draw in
// the same order as a plain per-edge loop:
//   1. deaths: one integer coin (BernoulliSampler, util/rng.hpp) per
//      on-edge in buffer order, folded into a bitmask by position — the
//      walk needs only |E_t|, never the edges;
//   2. births: geometric skipping collects the marks as linear pair
//      indices, and a second pass converts them in place to packed keys
//      with a row cursor (meg/pair_index.hpp), keeping the cursor's
//      unpredictable row hops out of the loop that computes log();
//   3. the merge reads the mask as its death source (DeathMask) and
//      discards the birth marks that land on edges already on.
//
// In the storage-mode taxonomy of meg/storage.hpp this engine is
// *always* sparse: the two-state chain needs no per-pair hidden state,
// so the on-set is the entire representation (memory O(#on)) and the
// off majority is implicit.  The general and heterogeneous engines gain
// the same property via their minority-state maps; there is no dense
// mode to select here.

#include <cstdint>
#include <vector>

#include "core/dynamic_graph.hpp"
#include "markov/two_state.hpp"
#include "meg/on_set.hpp"
#include "util/rng.hpp"

namespace megflood {

enum class EdgeMegInit {
  kStationary,  // each edge on with probability p/(p+q)
  kAllOff,      // worst-case empty start
  kAllOn,
};

class TwoStateEdgeMEG final : public DynamicGraph {
 public:
  TwoStateEdgeMEG(std::size_t num_nodes, TwoStateParams params,
                  std::uint64_t seed,
                  EdgeMegInit init = EdgeMegInit::kStationary);

  std::size_t num_nodes() const override { return n_; }
  const Snapshot& snapshot() const override { return snapshot_; }
  void step() override;
  void reset(std::uint64_t seed) override;

  const TwoStateChain& chain() const noexcept { return chain_; }

  // Number of potential edges, n(n-1)/2.
  std::uint64_t num_pairs() const noexcept { return total_pairs_; }

 private:
  void initialize();
  // Fills dead_ for the current on-set and returns the number of deaths.
  std::size_t draw_deaths(double q);

  std::size_t n_;
  TwoStateChain chain_;
  EdgeMegInit init_;
  Rng rng_;
  std::uint64_t total_pairs_;
  // Step scratch.  dead_: one bit per on-edge position (a DeathMask).
  // born_: birth marks, drawn as linear pair indices and converted in
  // place to packed keys (meg/pair_index.hpp), ascending either way.
  std::vector<std::uint64_t> dead_;
  std::vector<std::uint64_t> born_;
  OnSet next_edges_;  // the next on-set, swapped into the snapshot
  Snapshot snapshot_;
};

}  // namespace megflood
