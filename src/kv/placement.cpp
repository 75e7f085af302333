#include "kv/placement.hpp"

#include <algorithm>
#include <stdexcept>

#include "kv/types.hpp"
#include "util/rng.hpp"

namespace qopt::kv {

Placement::Placement(std::uint32_t num_storage_nodes, int replication_degree,
                     std::uint64_t seed)
    : num_nodes_(num_storage_nodes),
      replication_(replication_degree),
      seed_(seed) {
  if (replication_degree <= 0 ||
      static_cast<std::uint32_t>(replication_degree) > num_storage_nodes) {
    throw std::invalid_argument(
        "Placement: replication degree must be in [1, num_storage_nodes]");
  }
}

std::vector<std::uint32_t> Placement::replicas(ObjectId oid) const {
  std::vector<std::uint32_t> out;
  replicas_into(oid, out);
  return out;
}

void Placement::memoize(ObjectId limit) {
  limit = std::min(limit, kMaxMemoized);
  if (limit <= memoized_) return;
  const auto k = static_cast<std::size_t>(replication_);
  memo_.reserve(static_cast<std::size_t>(limit) * k);
  std::vector<std::uint32_t> row;
  for (ObjectId oid = memoized_; oid < limit; ++oid) {
    rendezvous_into(oid, row);
    memo_.insert(memo_.end(), row.begin(), row.end());
  }
  memoized_ = limit;
}

void Placement::replicas_into(ObjectId oid,
                              std::vector<std::uint32_t>& out) const {
  if (oid < memoized_) {
    const auto k = static_cast<std::size_t>(replication_);
    const auto first = memo_.begin() + static_cast<long>(oid * k);
    out.assign(first, first + static_cast<long>(k));
    return;
  }
  rendezvous_into(oid, out);
}

void Placement::rendezvous_into(ObjectId oid,
                                std::vector<std::uint32_t>& out) const {
  weights_.clear();
  weights_.reserve(num_nodes_);
  for (std::uint32_t node = 0; node < num_nodes_; ++node) {
    const std::uint64_t w =
        mix64(oid ^ (static_cast<std::uint64_t>(node) * 0x9E3779B97F4A7C15ULL) ^
              seed_);
    weights_.push_back(Weighted{w, node});
  }
  const auto k = static_cast<std::size_t>(replication_);
  std::partial_sort(weights_.begin(), weights_.begin() + static_cast<long>(k),
                    weights_.end(), [](const Weighted& a, const Weighted& b) {
                      if (a.weight != b.weight) return a.weight > b.weight;
                      return a.node < b.node;
                    });
  out.clear();
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) out.push_back(weights_[i].node);
}

}  // namespace qopt::kv
