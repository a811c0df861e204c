// Annotated relations (local and distributed).
//
// A Tuple<S> is a row of attribute values plus an annotation from semiring
// S. Relation<S> is a local (single-server) annotated relation;
// DistRelation<S> is partitioned across the cluster's servers and is what
// the MPC algorithms operate on.

#ifndef PARJOIN_RELATION_RELATION_H_
#define PARJOIN_RELATION_RELATION_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "parjoin/common/logging.h"
#include "parjoin/common/row.h"
#include "parjoin/mpc/cluster.h"
#include "parjoin/mpc/dist.h"
#include "parjoin/relation/schema.h"
#include "parjoin/semiring/semiring.h"

namespace parjoin {

template <SemiringC S>
struct Tuple {
  Row row;
  typename S::ValueType w = S::One();

  friend bool operator==(const Tuple& a, const Tuple& b) {
    return a.row == b.row && a.w == b.w;
  }
};

// A local annotated relation. Tuples are not required to be unique; a
// relation is interpreted as the ⊕-aggregation of its tuples per row
// (Normalize() makes that explicit).
template <SemiringC S>
class Relation {
 public:
  using W = typename S::ValueType;

  Relation() = default;
  explicit Relation(Schema schema) : schema_(std::move(schema)) {}
  Relation(Schema schema, std::vector<Tuple<S>> tuples)
      : schema_(std::move(schema)), tuples_(std::move(tuples)) {}

  const Schema& schema() const { return schema_; }
  std::vector<Tuple<S>>& tuples() { return tuples_; }
  const std::vector<Tuple<S>>& tuples() const { return tuples_; }
  std::int64_t size() const {
    return static_cast<std::int64_t>(tuples_.size());
  }

  void Add(Row row, W w) {
    CHECK_EQ(row.size(), schema_.size());
    tuples_.push_back(Tuple<S>{std::move(row), w});
  }

  // Collapses duplicate rows by ⊕ (in input order), drops Zero()
  // annotations, and sorts rows lexicographically. Two relations are
  // semantically equal iff their normalized forms are equal — this is the
  // comparison tests use.
  void Normalize() {
    const auto by_row = [](const Tuple<S>& a, const Tuple<S>& b) {
      return a.row < b.row;
    };
    // Most served results arrive sorted (a final ReduceByRow emits its
    // merged order), and std::stable_sort still runs every merge pass on
    // sorted input.
    if (!std::is_sorted(tuples_.begin(), tuples_.end(), by_row)) {
      std::stable_sort(tuples_.begin(), tuples_.end(), by_row);
    }
    size_t kept = 0;
    for (size_t i = 0; i < tuples_.size();) {
      W w = tuples_[i].w;
      size_t j = i + 1;
      for (; j < tuples_.size() && tuples_[j].row == tuples_[i].row; ++j) {
        w = S::Plus(w, tuples_[j].w);
      }
      if (!(w == S::Zero())) {
        if (kept != i) tuples_[kept].row = std::move(tuples_[i].row);
        tuples_[kept++].w = w;
      }
      i = j;
    }
    tuples_.erase(tuples_.begin() + static_cast<std::ptrdiff_t>(kept),
                  tuples_.end());
  }

  friend bool operator==(const Relation& a, const Relation& b) {
    return a.schema_ == b.schema_ && a.tuples_ == b.tuples_;
  }

 private:
  Schema schema_;
  std::vector<Tuple<S>> tuples_;
};

// A relation partitioned across (virtual) servers.
template <SemiringC S>
struct DistRelation {
  Schema schema;
  mpc::Dist<Tuple<S>> data;

  std::int64_t TotalSize() const { return data.TotalSize(); }

  // Materializes all partitions into one local relation (simulation-side;
  // charges nothing — use for test assertions and final output inspection).
  Relation<S> ToLocal() const {
    return Relation<S>(schema, data.Flatten());
  }
};

// Distributes a local relation evenly across the cluster's p servers (the
// model's initial placement; charges nothing).
template <SemiringC S>
DistRelation<S> Distribute(const mpc::Cluster& cluster, Relation<S> rel) {
  DistRelation<S> out;
  out.schema = rel.schema();
  out.data = mpc::ScatterEvenly(std::move(rel.tuples()), cluster.p());
  return out;
}

}  // namespace parjoin

#endif  // PARJOIN_RELATION_RELATION_H_
