#pragma once

// A snapshot is the edge set E_t of the dynamic graph at one time step.
//
// Storage is a flat edge buffer plus a CSR (compressed sparse row)
// adjacency view — one `offsets` array and one flat `neighbors` array —
// instead of per-node vectors.  Producers append edges in O(1); the CSR
// view is built lazily in two passes on first neighbor query and all
// buffers reuse their capacity across clear()/add_edge cycles, so a model
// stepping in a loop performs no per-step allocation after warmup.
//
// Flooding reads the edge buffer directly (core/flooding.hpp), so a
// model that changes E_t every step never pays for the CSR under a
// flood.  The CSR serves the neighbour-list consumers (gossip, k-push,
// radio) and topologies that stay unchanged over many rounds, where one
// build is amortised; identity() and version() tell a consumer whether
// that is the case.
//
// The CSR fill pass walks the edge buffer in insertion order, so each
// node's neighbor list is exactly the sequence of push_backs the old
// per-node-vector layout produced — downstream consumers that sample from
// neighbor lists (e.g. k-push) see bit-for-bit identical streams.

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace megflood {

using NodeId = std::uint32_t;

class Snapshot {
 public:
  Snapshot() = default;
  explicit Snapshot(std::size_t num_nodes) : num_nodes_(num_nodes) {}

  std::size_t num_nodes() const noexcept { return num_nodes_; }
  std::size_t num_edges() const noexcept { return edges_.size(); }

  // Drops all edges, keeps capacity.  Inline: clear()/add_edge() are the
  // producer side of every model's per-step snapshot rebuild.
  void clear() noexcept {
    edges_.clear();
    touch();
  }

  // Resize to `num_nodes` and drop all edges.
  void reset(std::size_t num_nodes);

  // Adds undirected {u, v}; caller guarantees no duplicates within a step
  // (models generate each pair at most once per snapshot).
  void add_edge(NodeId u, NodeId v) {
    check_node(u);
    check_node(v);
    edges_.emplace_back(u, v);
    touch();
  }

  // Replaces the edge set wholesale by swapping buffers: `edges` receives
  // the previous edge list (its capacity gets reused by the producer next
  // step).  Caller guarantees the add_edge contract for every entry
  // (endpoints < num_nodes(), no duplicates); producers that already own
  // a validated pair list (NeighborIndex::collect_pairs) skip the
  // per-edge bounds checks this way.
  void swap_edges(std::vector<std::pair<NodeId, NodeId>>& edges) noexcept {
    edges_.swap(edges);
    touch();
  }

  // Together, identity() and version() name the edge set: a snapshot
  // whose (identity(), version()) pair is unchanged holds the same edges.
  // identity() is drawn fresh from a process-wide counter (never 0) when
  // the snapshot is constructed, copied or moved — constructor or
  // assignment, both sides of a move, self-assignment included — and
  // never by a mutator.  version() counts mutations: every clear()/
  // reset()/add_edge()/swap_edges() bumps it, and a copy carries its
  // source's count.  flood() relies on this guarantee: on a held edge set
  // it scans only the newly informed nodes.
  std::uint64_t identity() const noexcept { return identity_.value(); }
  std::uint64_t version() const noexcept { return version_; }

  // Neighbor list of v in insertion order.  The span is invalidated by the
  // next clear()/reset()/add_edge().
  std::span<const NodeId> neighbors(NodeId v) const;

  std::size_t degree(NodeId v) const;

  bool has_edge(NodeId u, NodeId v) const;

  // Canonical (u < v) edge list, ordered by u then by adjacency position.
  std::vector<std::pair<NodeId, NodeId>> edges() const;

  // The raw edge buffer in insertion order (endpoints as added, not
  // canonicalized).  Lets edge-centric consumers (the word-parallel
  // all-sources flood) iterate E_t without materializing the CSR view.
  const std::vector<std::pair<NodeId, NodeId>>& edge_buffer() const noexcept {
    return edges_;
  }

  // Raw CSR view for hot loops that scan many nodes per round: node v's
  // neighbors are neighbors[offsets[v] .. offsets[v + 1]).  `offsets` has
  // num_nodes() + 1 entries; pointers are invalidated by the next
  // mutation.
  struct CsrView {
    const std::uint32_t* offsets;
    const NodeId* neighbors;
  };
  CsrView csr() const {
    ensure_csr();
    return {offsets_.data(), neighbors_.data()};
  }

 private:
  // A value renewed on every construction, copy and move of its owner, so
  // Snapshot's defaulted copy and move members renew identity().
  class Identity {
   public:
    Identity() noexcept : value_(draw()) {}
    Identity(const Identity&) noexcept : value_(draw()) {}
    Identity(Identity&& other) noexcept : value_(draw()) {
      other.value_ = draw();
    }
    Identity& operator=(const Identity&) noexcept {
      value_ = draw();
      return *this;
    }
    Identity& operator=(Identity&& other) noexcept {
      value_ = draw();
      other.value_ = draw();
      return *this;
    }
    std::uint64_t value() const noexcept { return value_; }

   private:
    static std::uint64_t draw() noexcept;
    std::uint64_t value_;
  };

  void ensure_csr() const;
  void touch() noexcept {
    ++version_;
    csr_valid_ = false;
  }
  void check_node(NodeId v) const {
    if (v >= num_nodes_) {
      throw std::out_of_range("Snapshot: node id out of range");
    }
  }

  std::size_t num_nodes_ = 0;
  std::vector<std::pair<NodeId, NodeId>> edges_;
  Identity identity_;
  std::uint64_t version_ = 0;

  // Lazily built CSR view; mutable because building it on first query is
  // not an observable state change (single-threaded use assumed).
  mutable std::vector<std::uint32_t> offsets_;  // num_nodes_ + 1 entries
  mutable std::vector<std::uint32_t> cursor_;   // fill scratch
  mutable std::vector<NodeId> neighbors_;       // 2 * num_edges entries
  mutable bool csr_valid_ = false;
};

}  // namespace megflood
