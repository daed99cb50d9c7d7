#pragma once

// Shared incremental maintenance of an edge-MEG on-set for the
// geometric-skip engines.  The on-set *is* the snapshot edge buffer:
// canonical (i < j) node pairs in ascending order, which is also packed
// key order and linear pair-index order (meg/pair_index.hpp).  Per step
// only the flipped edges are known, and one branch-free merge pass,
// merge_on_set, writes the next buffer — no O(n^2) rebuild and no second
// copy of E_t.  Births arrive as sorted packed keys; deaths through a
// seam, the merge's death source: TwoStateEdgeMEG marks them by buffer
// position in a bitmask (DeathMask), the general and heterogeneous
// engines list them as sorted packed keys (DeathKeys).
//
// Also the shared machinery of the *sparse* storage mode (minority-state
// maps): batched subset sampling over an implicit complement population
// and the sorted-merge delta that keeps a minority map (parallel key /
// state vectors) ordered without ever materializing the majority.

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/snapshot.hpp"
#include "meg/pair_index.hpp"
#include "util/rng.hpp"

namespace megflood {

using Edge = std::pair<NodeId, NodeId>;
using OnSet = std::vector<Edge>;

// Linear pair index of an entry of a sorted pair population: a packed
// key (minority maps) or a canonical edge (on-sets).
inline std::uint64_t entry_pair_index(std::uint64_t n,
                                      std::uint64_t key) noexcept {
  return pair_index_from_key(n, key);
}

inline std::uint64_t entry_pair_index(std::uint64_t n,
                                      const Edge& edge) noexcept {
  return pair_index_of(n, edge.first, edge.second);
}

// Death sources of merge_on_set: how the merge learns which on-edges
// died.  For the on-edge it is looking at (buffer position `pos`, packed
// key `key`) it asks dead(pos, key), and once per step past an on-edge it
// calls advance(dead) with that edge's answer.  count() is the number of
// deaths, which sizes the output on the survivors.

// Deaths as one bit per buffer position: bit pos % 64 of word pos / 64,
// as TwoStateEdgeMEG's death walk writes them.  `words` covers every
// on-edge, and `count` is the number of set bits, all of them below
// on.size().
class DeathMask {
 public:
  DeathMask(const std::vector<std::uint64_t>& words, std::size_t count) noexcept
      : words_(words.data()), count_(count) {}

  std::size_t count() const noexcept { return count_; }
  bool dead(std::size_t pos, std::uint64_t /*key*/) const noexcept {
    return (words_[pos >> 6] >> (pos & 63)) & 1;
  }
  void advance(bool /*dead*/) noexcept {}

 private:
  const std::uint64_t* words_;
  std::size_t count_;
};

// Deaths as sorted packed keys, a subset of the on-set, as the general
// and heterogeneous engines collect them.
class DeathKeys {
 public:
  explicit DeathKeys(const std::vector<std::uint64_t>& keys) noexcept
      : next_(keys.data()), end_(keys.data() + keys.size()),
        count_(keys.size()) {}

  std::size_t count() const noexcept { return count_; }
  bool dead(std::size_t /*pos*/, std::uint64_t key) const noexcept {
    return next_ != end_ && key == *next_;
  }
  void advance(bool dead) noexcept { next_ += dead; }

 private:
  const std::uint64_t* next_;
  const std::uint64_t* end_;
  std::size_t count_;
};

// An on-set entry as its packed key and back, each one 8-byte move: on
// a little-endian host the pair's object representation is the key
// rotated by 32 bits (`first` in the low half).
static_assert(std::endian::native == std::endian::little &&
              sizeof(Edge) == sizeof(std::uint64_t) &&
              std::is_standard_layout_v<Edge>);

inline std::uint64_t edge_key(const Edge& edge) noexcept {
  std::uint64_t word = 0;
  std::memcpy(&word, reinterpret_cast<const std::byte*>(&edge), sizeof word);
  return std::rotl(word, 32);
}

inline void store_edge_key(Edge* edge, std::uint64_t key) noexcept {
  const std::uint64_t word = std::rotl(key, 32);
  std::memcpy(reinterpret_cast<std::byte*>(edge), &word, sizeof word);
}

// Replaces the snapshot's on-set by (on \ died) ∪ (born \ on) in one
// linear pass into `scratch`, which is then swapped in (and receives the
// old buffer's capacity for the next step).  `deaths` is a DeathMask or
// a DeathKeys; `born` holds sorted packed keys.  A born key that is
// already on adds nothing: a surviving edge is kept once and a dying one
// still dies (TwoStateEdgeMEG's birth marks may land on any on-pair; a
// birth decided against the pre-step state needs exactly this).  With no
// flips the snapshot is left untouched.
//
// The pass is a two-pointer merge of the on-edges (a) and the born keys
// (b) without a data-dependent branch: each round writes the smaller key
// (a on a tie), advances a if it wrote a, advances b if b's key was not
// larger, and keeps the write unless it was a dead on-edge.  Which stream
// is smaller, and whether an edge died, are as unpredictable as the coins
// behind them.  Once one stream ends, the rest of the other is copied.
template <typename Deaths>
inline void merge_on_set(Snapshot& snapshot, Deaths deaths,
                         const std::vector<std::uint64_t>& born,
                         OnSet& scratch) {
  if (deaths.count() == 0 && born.empty()) return;
  const OnSet& on = snapshot.edge_buffer();
  const std::size_t on_size = on.size();
  const std::size_t born_size = born.size();
  // The output fits in the survivors and births, plus one: a dead edge
  // is written one past them before `out` skips over it.  Growing by
  // reallocation would copy stale edges into the new buffer while a third
  // one is alive; start it empty instead, with slack so that the size's
  // step-to-step jitter does not regrow it every few steps (capacity that
  // is never written is never resident).
  assert(deaths.count() <= on_size);
  const std::size_t bound = on_size - deaths.count() + born_size + 1;
  if (scratch.capacity() < bound) {
    scratch = OnSet();
    scratch.reserve(bound + bound / 16);
  }
  scratch.resize(bound);
  const Edge* const on_data = on.data();
  const std::uint64_t* const born_data = born.data();
  Edge* out = scratch.data();
  std::size_t a = 0;
  std::size_t b = 0;
  [[maybe_unused]] std::size_t dropped = 0;
  const auto keep_unless_dead = [&](bool dead) {
    out += 1 - static_cast<std::size_t>(dead);
    deaths.advance(dead);
    dropped += dead;
  };
  while (a < on_size && b < born_size) {
    const std::uint64_t ka = edge_key(on_data[a]);
    const std::uint64_t kb = born_data[b];
    const bool take_a = ka <= kb;
    // take_a ? ka : kb, written so that it compiles to no branch.
    const std::uint64_t key =
        kb ^ ((ka ^ kb) & (0 - static_cast<std::uint64_t>(take_a)));
    store_edge_key(out, key);
    keep_unless_dead(take_a & deaths.dead(a, ka));
    a += take_a;
    b += kb <= ka;
  }
  for (; a < on_size; ++a) {
    *out = on_data[a];
    keep_unless_dead(deaths.dead(a, edge_key(on_data[a])));
  }
  for (; b < born_size; ++b) store_edge_key(out++, born_data[b]);
  assert(out < scratch.data() + bound);
  assert(dropped == deaths.count());
  scratch.resize(static_cast<std::size_t>(out - scratch.data()));
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
