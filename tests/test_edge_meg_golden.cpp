// Golden streams for the edge-MEG engines: a hash of the snapshot edge
// buffer over construction, 50 steps, a reset and 5 more steps, for fixed
// seeds.  The generalized and heterogeneous engines are pinned in both
// storage modes and for every ready-made link chain and rate sampler;
// their values were recorded when the on-set was a separate packed-key
// vector copied into the snapshot every step.  The two-state engine is
// pinned across its birth regimes (sparse births many rows apart, dense
// births several per row, no deaths) and its initializers; its values
// were recorded when births were converted by pair_from_index and
// filtered by a binary search over the step's deaths, except the q = 1,
// p-and-q-near-1 and mask-word rows, recorded when deaths were collected
// as packed keys by rng.bernoulli(q).  Any change to the
// RNG draw order, the transition law or the edge order shows up as a
// mismatch.
//
// The same file checks the canonical-order invariant every edge-MEG
// engine promises: the edge buffer is strictly ascending with i < j after
// construction, after every step and after reset.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "markov/chain.hpp"
#include "meg/edge_meg.hpp"
#include "meg/general_edge_meg.hpp"
#include "meg/heterogeneous_edge_meg.hpp"

namespace megflood {
namespace {

constexpr std::size_t kN = 40;
constexpr std::uint64_t kSeed = 17;
constexpr std::uint64_t kResetSeed = 91;
constexpr std::size_t kSteps = 50;
constexpr std::size_t kStepsAfterReset = 5;

using Factory = std::function<std::unique_ptr<DynamicGraph>()>;

// FNV-1a over (edge count, endpoints...) of every snapshot in turn.
void fold(std::uint64_t& h, std::uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    h ^= (word >> (8 * b)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
}

void fold_snapshot(std::uint64_t& h, const Snapshot& snap) {
  const auto& edges = snap.edge_buffer();
  fold(h, edges.size());
  for (const auto& [i, j] : edges) fold(h, (std::uint64_t{i} << 32) | j);
}

std::uint64_t stream_hash(DynamicGraph& model) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  fold_snapshot(h, model.snapshot());
  for (std::size_t t = 0; t < kSteps; ++t) {
    model.step();
    fold_snapshot(h, model.snapshot());
  }
  model.reset(kResetSeed);
  fold_snapshot(h, model.snapshot());
  for (std::size_t t = 0; t < kStepsAfterReset; ++t) {
    model.step();
    fold_snapshot(h, model.snapshot());
  }
  return h;
}

void expect_canonical(const Snapshot& snap, const std::string& where) {
  const auto& edges = snap.edge_buffer();
  for (std::size_t k = 0; k < edges.size(); ++k) {
    ASSERT_LT(edges[k].first, edges[k].second) << where << " edge " << k;
    if (k > 0) {
      ASSERT_LT(edges[k - 1], edges[k]) << where << " edge " << k;
    }
  }
}

struct Case {
  std::string name;
  Factory make;
  std::uint64_t golden;
};

// The model types are neither copyable nor movable, so every case holds
// a factory over its constructor arguments.
template <typename Model, typename... Args>
Factory factory(Args... args) {
  return [=]() -> std::unique_ptr<DynamicGraph> {
    return std::make_unique<Model>(args...);
  };
}

Factory general(const BurstyLink& link, MegStorage storage) {
  return factory<GeneralEdgeMEG>(kN, link.chain, link.chi, kSeed, storage);
}

BurstyLink two_state_link(double p, double q) {
  return {DenseChain({{1.0 - p, p}, {q, 1.0 - q}}), {false, true}};
}

std::vector<Case> general_cases() {
  const BurstyLink bursty = make_bursty_link(0.05, 0.4, 0.3);
  const BurstyLink four_state = make_four_state_link({});
  const BurstyLink two_state = two_state_link(0.04, 0.3);
  // pi_max < 1/2: the per-pair initializer (dense only).
  const BurstyLink duty = make_duty_cycle_link(4, 2, 0.5);
  // Dominant state maps to "on": the generic bucket fill (dense only).
  const BurstyLink on_majority = make_bursty_link(0.5, 0.5, 0.01);
  std::vector<Case> cases;
  for (const MegStorage storage : {MegStorage::kDense, MegStorage::kSparse}) {
    const std::string mode = storage == MegStorage::kDense ? "dense" : "sparse";
    cases.push_back({"general/bursty/" + mode,
                     general(bursty, storage), 0});
    cases.push_back({"general/four_state/" + mode,
                     general(four_state, storage), 0});
    cases.push_back({"general/two_state/" + mode,
                     general(two_state, storage), 0});
  }
  cases.push_back({"general/duty_cycle/dense",
                   general(duty, MegStorage::kDense),
                   0});
  cases.push_back(
      {"general/on_majority/dense",
       general(on_majority, MegStorage::kDense), 0});
  return cases;
}

std::vector<Case> het_cases() {
  // Continuous rates (> kMaxExactClasses distinct pairs): one
  // envelope-thinned class in dense mode.
  const auto uniform = uniform_alpha_rates(0.2, 0.6, 0.05, 0.3);
  const auto uniform_b = uniform_alpha_bounds(0.2, 0.6, 0.05, 0.3);
  // Two exact rate classes in dense mode.
  const TwoStateParams base{0.08, 0.4};
  const auto two_speed = two_speed_rates(base, 0.3, 0.25);
  const auto two_speed_b = two_speed_bounds(base, 0.3, 0.25);
  std::vector<Case> cases;
  for (const MegStorage storage : {MegStorage::kDense, MegStorage::kSparse}) {
    const std::string mode = storage == MegStorage::kDense ? "dense" : "sparse";
    cases.push_back({"het/uniform_alpha/" + mode,
                     factory<HeterogeneousEdgeMEG>(kN, uniform, kSeed, storage,
                                                   uniform_b),
                     0});
    cases.push_back({"het/two_speed/" + mode,
                     factory<HeterogeneousEdgeMEG>(kN, two_speed, kSeed,
                                                   storage, two_speed_b),
                     0});
  }
  return cases;
}

Factory two_state(std::size_t n, double p, double q,
                  EdgeMegInit init = EdgeMegInit::kStationary) {
  return factory<TwoStateEdgeMEG>(n, TwoStateParams{p, q}, kSeed, init);
}

std::vector<Case> two_state_cases() {
  return {
      // About one birth per step among 499500 pairs: consecutive births
      // lie hundreds of rows apart.
      {"two_state/sparse_jumps", two_state(1000, 2e-6, 0.3), 0},
      // Several births per row of 39 pairs.
      {"two_state/dense_rows", two_state(kN, 0.3, 0.2), 0},
      // No deaths: edges accumulate from the empty start (the stationary
      // start would be the complete graph).
      {"two_state/q0", two_state(kN, 0.01, 0.0, EdgeMegInit::kAllOff), 0},
      {"two_state/init_off",
       two_state(kN, 0.05, 0.3, EdgeMegInit::kAllOff), 0},
      {"two_state/init_on", two_state(kN, 0.05, 0.3, EdgeMegInit::kAllOn),
       0},
      // Every on-edge dies every step.
      {"two_state/q1", two_state(kN, 0.05, 1.0), 0},
      // Most pairs flip every step, so most birth marks land on pairs
      // that are on and dying.
      {"two_state/p_q_near_1", two_state(kN, 0.9, 0.95), 0},
      // On-sets around the 64-bit word boundaries of the death mask:
      // a single pair, and slow decay from the complete graph on 12
      // (66 pairs) and 17 nodes (136 pairs) through 65, 64, 63 and 128
      // (EdgeMegGolden.WordCasesCrossMaskBoundaries checks the sizes).
      {"two_state/words_1", two_state(2, 0.5, 0.5, EdgeMegInit::kAllOn), 0},
      {"two_state/words_66",
       two_state(12, 0.001, 0.01, EdgeMegInit::kAllOn), 0},
      {"two_state/words_136",
       two_state(17, 0.001, 0.003, EdgeMegInit::kAllOn), 0},
  };
}

std::vector<Case> golden_cases() {
  std::vector<Case> cases = general_cases();
  for (Case& c : het_cases()) cases.push_back(std::move(c));
  for (Case& c : two_state_cases()) cases.push_back(std::move(c));
  // In case order (see general_cases / het_cases).
  const std::uint64_t golden[] = {
      0x80b07cf029d5cbc7,  // general/bursty/dense
      0x95294bc38230cd93,  // general/four_state/dense
      0x36f7dbc195aaf8b5,  // general/two_state/dense
      0x88e50a3ff3dbc21f,  // general/bursty/sparse
      0xd2eebbdc21e0bce4,  // general/four_state/sparse
      0x3acbf7122cc344a1,  // general/two_state/sparse
      0x40aa3221afeef568,  // general/duty_cycle/dense
      0x8e9d2ccfcdc73f8f,  // general/on_majority/dense
      0x20c0d06b343bef1c,  // het/uniform_alpha/dense
      0x5dae655a9b263975,  // het/two_speed/dense
      0xa8ca113c7b0e9f78,  // het/uniform_alpha/sparse
      0xfba2822e6edd9101,  // het/two_speed/sparse
      0x76e56be932fcb6b0,  // two_state/sparse_jumps
      0xd002b04627c6fad9,  // two_state/dense_rows
      0x6c5261168b15804c,  // two_state/q0
      0xc44fb104477b5404,  // two_state/init_off
      0x7c3d3caf62b7924f,  // two_state/init_on
      0xec5c50a8b4f22269,  // two_state/q1
      0xd2213ff4d6808e9a,  // two_state/p_q_near_1
      0x322939415685a7c5,  // two_state/words_1
      0x367947bcb4241c4b,  // two_state/words_66
      0xab579d05ea5dc582,  // two_state/words_136
  };
  EXPECT_EQ(cases.size(), std::size(golden));
  for (std::size_t k = 0; k < cases.size() && k < std::size(golden); ++k) {
    cases[k].golden = golden[k];
  }
  return cases;
}

TEST(EdgeMegGolden, EdgeBufferStreamsMatchPinnedHashes) {
  for (const Case& c : golden_cases()) {
    const auto model = c.make();
    const std::uint64_t h = stream_hash(*model);
    EXPECT_EQ(h, c.golden) << c.name << ": got 0x" << std::hex << h;
  }
}

TEST(EdgeMegGolden, WordCasesCrossMaskBoundaries) {
  // Guards the golden table: the words_* streams must really pass through
  // on-set sizes at the 64-bit mask word boundaries.
  std::set<std::size_t> seen;
  for (const Case& c : golden_cases()) {
    if (!c.name.starts_with("two_state/words_")) continue;
    const auto model = c.make();
    seen.insert(model->snapshot().num_edges());
    for (std::size_t t = 0; t < kSteps; ++t) {
      model->step();
      seen.insert(model->snapshot().num_edges());
    }
  }
  for (const std::size_t size : {1, 63, 64, 65, 127, 128, 129}) {
    EXPECT_TRUE(seen.contains(size)) << "no step with " << size << " edges";
  }
}

TEST(EdgeMegGolden, StorageModesResolveAsRequested) {
  // Guards the golden table: a sparse case that silently fell back to
  // dense would pin the wrong engine.  (The two-state engine has no
  // storage mode.)
  for (const Case& c : golden_cases()) {
    if (c.name.starts_with("two_state/")) continue;
    const auto model = c.make();
    const bool want_sparse = c.name.ends_with("/sparse");
    if (const auto* g = dynamic_cast<const GeneralEdgeMEG*>(model.get())) {
      EXPECT_EQ(g->storage() == MegStorage::kSparse, want_sparse) << c.name;
    } else {
      const auto* h = dynamic_cast<const HeterogeneousEdgeMEG*>(model.get());
      ASSERT_NE(h, nullptr) << c.name;
      EXPECT_EQ(h->storage() == MegStorage::kSparse, want_sparse) << c.name;
    }
  }
}

TEST(EdgeMegGolden, EdgeBufferIsCanonicalAfterInitStepAndReset) {
  std::vector<Case> cases = golden_cases();
  for (const EdgeMegInit init :
       {EdgeMegInit::kStationary, EdgeMegInit::kAllOff, EdgeMegInit::kAllOn}) {
    cases.push_back({"two_state/init" + std::to_string(static_cast<int>(init)),
                     factory<TwoStateEdgeMEG>(kN, TwoStateParams{0.05, 0.3},
                                              kSeed, init),
                     0});
  }
  for (const Case& c : cases) {
    const auto model = c.make();
    expect_canonical(model->snapshot(), c.name + " init");
    for (std::size_t t = 0; t < 20; ++t) {
      model->step();
      expect_canonical(model->snapshot(),
                       c.name + " step " + std::to_string(t));
    }
    model->reset(kResetSeed);
    expect_canonical(model->snapshot(), c.name + " reset");
    model->step();
    expect_canonical(model->snapshot(), c.name + " step after reset");
  }
}

}  // namespace
}  // namespace megflood
