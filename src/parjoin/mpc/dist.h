// Dist<T>: data partitioned across (virtual) servers.
//
// parts()[s] is the local data of server s. A Dist usually has exactly
// cluster.p() parts, but algorithms that allocate virtual server groups
// (see Cluster) create Dists with more parts; part v lives on physical
// server v mod p.

#ifndef PARJOIN_MPC_DIST_H_
#define PARJOIN_MPC_DIST_H_

#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "parjoin/common/logging.h"

namespace parjoin {
namespace mpc {

template <typename T>
class Dist {
 public:
  Dist() = default;
  explicit Dist(int num_parts)
      : parts_(static_cast<size_t>(num_parts)) {}
  explicit Dist(std::vector<std::vector<T>> parts)
      : parts_(std::move(parts)) {}

  int num_parts() const { return static_cast<int>(parts_.size()); }

  std::vector<T>& part(int i) { return parts_[static_cast<size_t>(i)]; }
  const std::vector<T>& part(int i) const {
    return parts_[static_cast<size_t>(i)];
  }

  std::vector<std::vector<T>>& parts() { return parts_; }
  const std::vector<std::vector<T>>& parts() const { return parts_; }

  std::int64_t TotalSize() const {
    std::int64_t total = 0;
    for (const auto& part : parts_) {
      total += static_cast<std::int64_t>(part.size());
    }
    return total;
  }

  // Concatenates all parts into one vector (simulation-side helper; does not
  // model communication — data that must reach a server travels through a
  // charged round of mpc/exchange.h or mpc/primitives.h).
  std::vector<T> Flatten() const {
    std::vector<T> out;
    out.reserve(static_cast<size_t>(TotalSize()));
    for (const auto& part : parts_) {
      out.insert(out.end(), part.begin(), part.end());
    }
    return out;
  }

  // Applies fn to every element of every part (read-only).
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const auto& part : parts_) {
      for (const auto& item : part) fn(item);
    }
  }

 private:
  std::vector<std::vector<T>> parts_;
};

// Splits `items` into `num_parts` nearly equal contiguous chunks. This is
// the canonical "initially, data is evenly distributed" placement (§1.3);
// it models input residency and charges nothing. Elements are moved out
// of `items` (the parameter is by-value: pass std::move to avoid a copy).
template <typename T>
Dist<T> ScatterEvenly(std::vector<T> items, int num_parts) {
  CHECK_GT(num_parts, 0);
  Dist<T> out(num_parts);
  const std::int64_t n = static_cast<std::int64_t>(items.size());
  const std::int64_t chunk = (n + num_parts - 1) / num_parts;
  std::int64_t pos = 0;
  for (int s = 0; s < num_parts && pos < n; ++s) {
    const std::int64_t end = std::min(n, pos + chunk);
    out.part(s).assign(std::make_move_iterator(items.begin() + pos),
                       std::make_move_iterator(items.begin() + end));
    pos = end;
  }
  return out;
}

}  // namespace mpc
}  // namespace parjoin

#endif  // PARJOIN_MPC_DIST_H_
