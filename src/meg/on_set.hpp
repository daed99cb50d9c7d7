#pragma once

// Shared incremental maintenance of an edge-MEG on-set for the
// geometric-skip engines.  The on-set *is* the snapshot edge buffer:
// canonical (i < j) node pairs in ascending order, which is also packed
// key order and linear pair-index order (meg/pair_index.hpp).  Per step
// only the flipped edges are known, as sorted packed keys, and one merge
// pass writes the next buffer — no O(n^2) rebuild and no second copy of
// E_t.
//
// Also the shared machinery of the *sparse* storage mode (minority-state
// maps): batched subset sampling over an implicit complement population
// and the sorted-merge delta that keeps a minority map (parallel key /
// state vectors) ordered without ever materializing the majority.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/snapshot.hpp"
#include "meg/pair_index.hpp"
#include "util/rng.hpp"

namespace megflood {

using OnSet = std::vector<std::pair<NodeId, NodeId>>;

// Linear pair index of an entry of a sorted pair population: a packed
// key (minority maps) or a canonical edge (on-sets).
inline std::uint64_t entry_pair_index(std::uint64_t n,
                                      std::uint64_t key) noexcept {
  return pair_index_from_key(n, key);
}

inline std::uint64_t entry_pair_index(
    std::uint64_t n, const std::pair<NodeId, NodeId>& edge) noexcept {
  return pair_index_of(n, edge.first, edge.second);
}

// Replaces the snapshot's on-set by (on \ died) ∪ (born \ on) in one
// linear pass into `scratch`, which is then swapped in (and receives the
// old buffer's capacity for the next step).  `died` and `born` are sorted
// packed keys with died ⊆ on.  A born key that is already on adds
// nothing: a surviving edge is kept once and a dying one still dies
// (TwoStateEdgeMEG's birth marks may land on any on-pair; a birth decided
// against the pre-step state needs exactly this).  With no flips the
// snapshot is left untouched.  Deaths are dropped without a branch:
// whether an edge died is as unpredictable as the coin that killed it.
inline void merge_on_set(Snapshot& snapshot,
                         const std::vector<std::uint64_t>& died,
                         const std::vector<std::uint64_t>& born,
                         OnSet& scratch) {
  if (died.empty() && born.empty()) return;
  // No pair (i < j) packs to this key, so it ends both delta streams.
  constexpr std::uint64_t kEnd = ~std::uint64_t{0};
  const OnSet& on = snapshot.edge_buffer();
  // The output fits in on - died + born slots, plus one: a dead edge is
  // written one past the survivors before `out` skips over it.  Growing
  // by reallocation would copy stale edges into the new buffer while a
  // third one is alive; start it empty instead.
  const std::size_t bound = on.size() - died.size() + born.size() + 1;
  if (scratch.capacity() < bound) scratch = OnSet();
  scratch.resize(bound);
  auto out = scratch.begin();
  auto d = died.begin();
  auto b = born.begin();
  std::uint64_t next_dead = d != died.end() ? *d : kEnd;
  std::uint64_t next_born = b != born.end() ? *b : kEnd;
  const auto advance_born = [&] {
    next_born = ++b != born.end() ? *b : kEnd;
  };
  for (const auto& edge : on) {
    const std::uint64_t key = pack_pair(edge.first, edge.second);
    for (; next_born < key; advance_born()) {
      *out++ = {pair_key_i(next_born), pair_key_j(next_born)};
    }
    if (next_born == key) advance_born();
    *out = edge;
    const bool dead = key == next_dead;
    out += !dead;
    d += dead;
    next_dead = d != died.end() ? *d : kEnd;
  }
  for (; next_born != kEnd; advance_born()) {
    *out++ = {pair_key_i(next_born), pair_key_j(next_born)};
  }
  assert(d == died.end());
  scratch.erase(out, scratch.end());
  snapshot.swap_edges(scratch);
}

// Draws a uniform random k-subset of [0, bound) into `out`, sorted
// ascending, by rejection against the already-drawn set.  The rejection
// stream depends only on set *membership*, so the dedup structure is a
// pure space/time choice: a flat bound-sized bitmap when the subset is a
// meaningful fraction of the range (the dense initializers — one byte
// per slot beats ~40 B per hash node), a transient hash set when it is
// vanishingly small (the sparse engines, where an O(bound) buffer is the
// very allocation being avoided).  Both produce the identical draw
// sequence, so the sampled subset is bit-for-bit the same either way.
// Expected < 2 draws per slot while k <= bound / 2.  Precondition:
// k <= bound.
inline void sample_distinct_positions(Rng& rng, std::uint64_t k,
                                      std::uint64_t bound,
                                      std::vector<std::uint64_t>& out) {
  assert(k <= bound);
  out.clear();
  if (k == 0) return;
  out.reserve(k);
  if (k >= bound / 32) {
    std::vector<std::uint8_t> taken(bound, 0);
    for (std::uint64_t drawn = 0; drawn < k; ++drawn) {
      std::uint64_t pos = rng.uniform_int(bound);
      while (taken[pos]) pos = rng.uniform_int(bound);
      taken[pos] = 1;
      out.push_back(pos);
    }
  } else {
    std::unordered_set<std::uint64_t> taken;
    taken.reserve(static_cast<std::size_t>(2 * k));
    for (std::uint64_t drawn = 0; drawn < k; ++drawn) {
      std::uint64_t pos = rng.uniform_int(bound);
      while (!taken.insert(pos).second) pos = rng.uniform_int(bound);
      out.push_back(pos);
    }
  }
  std::sort(out.begin(), out.end());
}

// Selects an iid Bernoulli(p) subset of the *complement* of `minority`
// (sorted packed keys or an on-set) within the n-node pair population
// and calls visit(key) in ascending key order.  The implicit-majority sampling
// primitive of the sparse engines: a Binomial(count, p) size plus a
// uniform distinct placement is exactly an iid per-pair selection, so the
// law matches geometric-skipping a dense majority bucket — without ever
// materializing it.  `rank_scratch` is reused capacity.
//
// The rank -> pair-index translation is a single two-pointer merge: the
// r-th complement element is r + j where j counts the minority entries
// below it (minority keys sort like linear pair indices, so the walk is
// one pass over the map).
template <typename Entry, typename Visit>
inline void bernoulli_complement_select(Rng& rng, std::uint64_t n,
                                        const std::vector<Entry>& minority,
                                        double p,
                                        std::vector<std::uint64_t>& rank_scratch,
                                        Visit&& visit) {
  const std::uint64_t total = pair_count(n);
  assert(minority.size() <= total);
  const std::uint64_t count = total - minority.size();
  if (count == 0 || p <= 0.0) return;
  const std::uint64_t k = rng.binomial(count, p);
  if (k == 0) return;
  sample_distinct_positions(rng, k, count, rank_scratch);
  std::size_t j = 0;
  std::uint64_t next_minority_index =
      j < minority.size() ? entry_pair_index(n, minority[j]) : 0;
  for (const std::uint64_t rank : rank_scratch) {
    while (j < minority.size() && next_minority_index <= rank + j) {
      ++j;
      if (j < minority.size()) {
        next_minority_index = entry_pair_index(n, minority[j]);
      }
    }
    visit(pair_key_from_index(n, rank + j));
  }
}

// Applies one step's delta to a minority map (sorted `keys` with a
// parallel `states` vector): drops the entries at `removed_positions`
// (sorted, positions into the pre-delta map) and merges in the new
// `inserted_keys` / `inserted_states` (sorted by key, disjoint from the
// surviving keys).  In-place state changes are the caller's business (a
// state overwrite does not move an entry).  One linear pass, reused
// scratch capacity — the minority-map analogue of merge_on_set.
inline void apply_minority_delta(std::vector<std::uint64_t>& keys,
                                 std::vector<std::uint8_t>& states,
                                 const std::vector<std::uint64_t>& removed_positions,
                                 const std::vector<std::uint64_t>& inserted_keys,
                                 const std::vector<std::uint8_t>& inserted_states,
                                 std::vector<std::uint64_t>& key_scratch,
                                 std::vector<std::uint8_t>& state_scratch) {
  assert(inserted_keys.size() == inserted_states.size());
  if (removed_positions.empty() && inserted_keys.empty()) return;
  key_scratch.clear();
  state_scratch.clear();
  const std::size_t final_size =
      keys.size() - removed_positions.size() + inserted_keys.size();
  key_scratch.reserve(final_size);
  state_scratch.reserve(final_size);
  std::size_t r = 0;
  std::size_t ins = 0;
  for (std::size_t pos = 0; pos < keys.size(); ++pos) {
    if (r < removed_positions.size() && removed_positions[r] == pos) {
      ++r;
      continue;
    }
    const std::uint64_t key = keys[pos];
    while (ins < inserted_keys.size() && inserted_keys[ins] < key) {
      key_scratch.push_back(inserted_keys[ins]);
      state_scratch.push_back(inserted_states[ins]);
      ++ins;
    }
    key_scratch.push_back(key);
    state_scratch.push_back(states[pos]);
  }
  for (; ins < inserted_keys.size(); ++ins) {
    key_scratch.push_back(inserted_keys[ins]);
    state_scratch.push_back(inserted_states[ins]);
  }
  assert(key_scratch.size() == final_size);
  std::swap(keys, key_scratch);
  std::swap(states, state_scratch);
}

}  // namespace megflood
