#include "core/snapshot.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <stdexcept>

namespace megflood {

std::uint64_t Snapshot::Identity::draw() noexcept {
  // A deliberate process-wide counter: snapshots are built on many
  // threads and an identity must never repeat, so it cannot be passed
  // in.  Identities never reach results or campaign keys.
  // megflood-lint: allow(mutable-global)
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1);
}

void Snapshot::reset(std::size_t num_nodes) {
  num_nodes_ = num_nodes;
  clear();
}

void Snapshot::ensure_csr() const {
  if (csr_valid_) return;
  // offsets_ entries are uint32 directed-edge counts; 2 * |E| past that
  // range would wrap the prefix sums into corrupt adjacency.
  if (edges_.size() > (std::numeric_limits<std::uint32_t>::max)() / 2) {
    throw std::length_error("Snapshot: edge count overflows CSR offsets");
  }
  // Two-pass counting build: degree histogram, exclusive prefix sum, fill.
  offsets_.assign(num_nodes_ + 1, 0);
  for (const auto& [u, v] : edges_) {
    ++offsets_[u + 1];
    ++offsets_[v + 1];
  }
  for (std::size_t i = 0; i < num_nodes_; ++i) offsets_[i + 1] += offsets_[i];
  neighbors_.resize(2 * edges_.size());
  cursor_.assign(offsets_.begin(), offsets_.end() - 1);
  for (const auto& [u, v] : edges_) {
    neighbors_[cursor_[u]++] = v;
    neighbors_[cursor_[v]++] = u;
  }
  csr_valid_ = true;
}

std::span<const NodeId> Snapshot::neighbors(NodeId v) const {
  check_node(v);
  ensure_csr();
  return {neighbors_.data() + offsets_[v],
          neighbors_.data() + offsets_[v + 1]};
}

std::size_t Snapshot::degree(NodeId v) const {
  check_node(v);
  ensure_csr();
  return offsets_[v + 1] - offsets_[v];
}

bool Snapshot::has_edge(NodeId u, NodeId v) const {
  check_node(u);
  check_node(v);
  ensure_csr();
  const std::size_t du = offsets_[u + 1] - offsets_[u];
  const std::size_t dv = offsets_[v + 1] - offsets_[v];
  const NodeId probe = du <= dv ? u : v;
  const NodeId target = du <= dv ? v : u;
  const auto row = neighbors(probe);
  return std::find(row.begin(), row.end(), target) != row.end();
}

std::vector<std::pair<NodeId, NodeId>> Snapshot::edges() const {
  ensure_csr();
  std::vector<std::pair<NodeId, NodeId>> result;
  result.reserve(edges_.size());
  for (NodeId u = 0; u < num_nodes_; ++u) {
    for (NodeId v : neighbors(u)) {
      if (u < v) result.emplace_back(u, v);
    }
  }
  return result;
}

}  // namespace megflood
