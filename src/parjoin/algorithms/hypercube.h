// HyperCube full-join + aggregate — the third approach discussed in §1.4.
//
// Worst-case optimal MPC algorithms [Ketsman & Suciu '17; Tao '20; Koutris
// et al. '16] compute the FULL join in one round by arranging the p
// servers into a grid with one dimension ("share") per attribute: server
// coordinates are (h_1(x_1 bucket), ..., h_m(x_m bucket)); every tuple is
// replicated to all servers that agree with it on its own attributes.
// For join-aggregate queries one then aggregates the materialized full
// join — the paper notes that this aggregation costs O(OUT_f / p) for
// OUT_f = |full join| >= J, making the naive composition "no better than
// the Yannakakis algorithm". This implementation aggregates each grid
// cell LOCALLY before the global reduce (any sane implementation would),
// which blunts the OUT_f bottleneck on benign data — but the replication
// load of the shares themselves still loses decisively to Theorem 1 on
// small-OUT instances, which is what the tests/benches demonstrate.
//
// Shares: equal shares p_x = floor(p^{1/m}) per attribute (the textbook
// configuration; optimizing shares per relation sizes does not change the
// aggregation bottleneck that the comparison targets).

#ifndef PARJOIN_ALGORITHMS_HYPERCUBE_H_
#define PARJOIN_ALGORITHMS_HYPERCUBE_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "parjoin/common/hash.h"
#include "parjoin/common/logging.h"
#include "parjoin/common/parallel_for.h"
#include "parjoin/common/sorted_view.h"
#include "parjoin/mpc/cluster.h"
#include "parjoin/mpc/exchange.h"
#include "parjoin/query/dangling.h"
#include "parjoin/query/instance.h"
#include "parjoin/relation/ops.h"

namespace parjoin {

// Computes Q_y(R) by materializing the full join on a HyperCube grid and
// aggregating. Correct for any tree instance; load is dominated by
// O(OUT_f / p) in the aggregation (plus the replication load of the
// one-round join itself).
template <SemiringC S>
DistRelation<S> HyperCubeJoinAggregate(mpc::Cluster& cluster,
                                       TreeInstance<S> instance) {
  instance.Validate();
  RemoveDangling(cluster, &instance);
  const JoinTree& q = instance.query;
  const std::vector<AttrId>& attrs = q.attrs();
  const int m = static_cast<int>(attrs.size());
  const int p = cluster.p();

  if (q.num_edges() == 1) {
    return AggregateByAttrs(cluster, instance.relations[0],
                            q.output_attrs());
  }

  // Equal shares: share >= 1 per attribute, grid size <= p... but never
  // below 1 per dimension. The grid uses share^m virtual servers
  // (<= p after flooring; at least 1).
  const int share = std::max(
      1, static_cast<int>(std::floor(std::pow(static_cast<double>(p),
                                              1.0 / m))));
  int grid_size = 1;
  for (int i = 0; i < m; ++i) grid_size *= share;
  const SeededHash bucket_hash(cluster.rng().Next());
  auto bucket_of = [&](Value v) {
    return static_cast<int>(bucket_hash(static_cast<std::uint64_t>(v)) %
                            static_cast<std::uint64_t>(share));
  };
  // Attribute -> grid dimension stride.
  std::vector<int> stride(static_cast<size_t>(m), 1);
  for (int i = 1; i < m; ++i) {
    stride[static_cast<size_t>(i)] = stride[static_cast<size_t>(i) - 1] * share;
  }
  auto dim_of = [&](AttrId a) {
    for (int i = 0; i < m; ++i) {
      if (attrs[static_cast<size_t>(i)] == a) return i;
    }
    LOG(FATAL) << "unknown attribute " << a;
    return -1;
  };

  // Route every relation: a tuple fixes its own attributes' coordinates
  // and is replicated across all remaining dimensions.
  std::vector<mpc::Dist<Tuple<S>>> routed;
  routed.reserve(instance.relations.size());
  for (const auto& rel : instance.relations) {
    const int dim_u = dim_of(rel.schema.attr(0));
    const int dim_v = dim_of(rel.schema.attr(1));
    routed.push_back(mpc::ExchangeMulti(
        cluster, rel.data, grid_size,
        [&](const Tuple<S>& t, std::vector<int>* dests) {
          const int cu = bucket_of(t.row[0]);
          const int cv = bucket_of(t.row[1]);
          // Enumerate all grid cells with coordinates cu, cv fixed.
          const int free_dims = m - 2;
          int combos = 1;
          for (int i = 0; i < free_dims; ++i) combos *= share;
          for (int c = 0; c < combos; ++c) {
            int cell = cu * stride[static_cast<size_t>(dim_u)] +
                       cv * stride[static_cast<size_t>(dim_v)];
            int rest = c;
            for (int dim = 0; dim < m; ++dim) {
              if (dim == dim_u || dim == dim_v) continue;
              cell += (rest % share) * stride[static_cast<size_t>(dim)];
              rest /= share;
            }
            dests->push_back(cell);
          }
        }));
  }

  // Local full join per grid cell, in the root-outward edge order so each
  // step shares an attribute with the accumulated join; then local
  // aggregation by the output attributes (free), and a global
  // reduce-by-key whose input is the materialized full join's aggregated
  // shards — the OUT_f-driven bottleneck.
  const AttrId root = q.attrs().front();
  const auto order = q.BottomUpOrder(root);
  mpc::Dist<Tuple<S>> partials(grid_size);
  const std::vector<AttrId> outputs = q.output_attrs();
  ParallelFor(grid_size, [&](int cell) {
    Relation<S> acc;
    bool first = true;
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const auto& part = routed[static_cast<size_t>(it->edge_index)];
      const Schema& schema =
          instance.relations[static_cast<size_t>(it->edge_index)].schema;
      if (first) {
        acc = Relation<S>(schema, part.part(cell));
        first = false;
      } else {
        Relation<S> next(JoinedSchema(acc.schema(), schema));
        LocalJoinInto(acc.schema(), acc.tuples(), schema, part.part(cell),
                      &next.tuples());
        acc = std::move(next);
      }
      if (acc.size() == 0) return;
    }
    // Local aggregation onto the output attributes.
    const auto positions = acc.schema().PositionsOf(outputs);
    std::unordered_map<Row, typename S::ValueType, RowHash> agg;
    for (const auto& t : acc.tuples()) {
      Row key = t.row.Select(positions);
      auto [slot, inserted] = agg.emplace(std::move(key), t.w);
      if (!inserted) slot->second = S::Plus(slot->second, t.w);
    }
    auto& sink = partials.part(cell);
    sink.reserve(agg.size());
    // Sorted so the partial order each cell emits (and hence the merge
    // order in the reduce) is a function of the data alone.
    for (auto& [row, w] : SortedEntries(agg)) {
      sink.push_back(Tuple<S>{std::move(row), w});
    }
  });

  // A grid cell may double-count a join result when the hash buckets of
  // two different cells coincide on every attribute of the result — they
  // cannot: a full join result fixes a bucket per attribute, hence
  // exactly one cell produces it. The reduce below only merges partial
  // groups split across cells by non-output attribute coordinates.
  DistRelation<S> out;
  out.schema = Schema(outputs);
  out.data = ReduceByRow(cluster, std::move(partials));
  return out;
}

}  // namespace parjoin

#endif  // PARJOIN_ALGORITHMS_HYPERCUBE_H_
