// The optimal MPC two-way join [Beame, Koutris, Suciu '14; Hu, Tao, Yi '17]
// with load O(N/p + sqrt(J/p)) where J = |R ⋈ S|, used as the join kernel
// of the distributed Yannakakis baseline (§1.4).
//
// Skew handling: for each join value b, let d_r(b), d_s(b) be its degrees.
// Values with d_r(b)*d_s(b) > J/p are heavy: each gets its own grid of
// virtual servers (R-tuples partitioned over grid rows and replicated
// across columns, S-tuples the reverse), sized so every grid server
// receives O(sqrt(J/p)) tuples. Light values are hash-partitioned. All
// routing decisions come from broadcast degree statistics; the whole join
// takes O(1) rounds.

#ifndef PARJOIN_ALGORITHMS_TWO_WAY_JOIN_H_
#define PARJOIN_ALGORITHMS_TWO_WAY_JOIN_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "parjoin/common/checked_math.h"
#include "parjoin/common/logging.h"
#include "parjoin/common/parallel_for.h"
#include "parjoin/mpc/cluster.h"
#include "parjoin/mpc/exchange.h"
#include "parjoin/relation/ops.h"
#include "parjoin/relation/relation.h"

namespace parjoin {

namespace internal_join {

// Grid placement of one heavy join value.
struct HeavyGrid {
  int base = 0;    // first virtual server of the grid
  int rows = 1;    // R-side partitions
  int cols = 1;    // S-side partitions
};

}  // namespace internal_join

struct TwoWayJoinOptions {
  // Ablation switch: when false, heavy join values are NOT given grids and
  // everything is hash-partitioned — the naive join whose load degrades to
  // the maximum degree product. Used by bench_ablation to quantify what
  // the skew handling buys; never disable in real use.
  bool handle_skew = true;
};

// Joins r and s on their (single) common attribute. The result is spread
// over p + (heavy virtual servers) parts; annotations are ⊗-multiplied.
template <SemiringC S>
DistRelation<S> TwoWayJoin(mpc::Cluster& cluster, const DistRelation<S>& r,
                           const DistRelation<S>& s,
                           const TwoWayJoinOptions& options = {}) {
  const std::vector<AttrId> key = r.schema.CommonAttrs(s.schema);
  CHECK_EQ(key.size(), 1u)
      << "TwoWayJoin expects a single shared attribute; combine attributes "
         "first (AttrCombiner) for wider keys";
  const AttrId attr = key[0];
  const int r_pos = r.schema.IndexOf(attr);
  const int s_pos = s.schema.IndexOf(attr);
  const int p = cluster.p();

  // Degree statistics for both sides, co-partitioned by value.
  mpc::Dist<ValueCount> dr = DegreesByAttr(cluster, r, attr);
  mpc::Dist<ValueCount> ds = DegreesByAttr(cluster, s, attr);
  auto route_value = [&](Value v) { return HashPart(v, 0x2b7e, p); };
  mpc::Dist<ValueCount> dr_parted = mpc::Exchange(
      cluster, dr, p, [&](const ValueCount& vc) { return route_value(vc.value); });
  mpc::Dist<ValueCount> ds_parted = mpc::Exchange(
      cluster, ds, p, [&](const ValueCount& vc) { return route_value(vc.value); });

  // J = Σ_b d_r(b) * d_s(b); candidate heavy pairs collected per part.
  std::int64_t join_size = 0;
  std::vector<std::pair<Value, std::pair<std::int64_t, std::int64_t>>> pairs;
  for (int part = 0; part < p; ++part) {
    std::unordered_map<Value, std::int64_t> dr_map;
    for (const auto& vc : dr_parted.part(part)) dr_map[vc.value] = vc.count;
    for (const auto& vc : ds_parted.part(part)) {
      auto it = dr_map.find(vc.value);
      if (it == dr_map.end()) continue;
      // Degree products on skewed instances can exceed int64; a wrapped J
      // would corrupt the heavy threshold, so overflow aborts loudly.
      join_size = CheckedAdd(join_size, CheckedMul(it->second, vc.count));
      pairs.push_back({vc.value, {it->second, vc.count}});
    }
  }
  // The scalar J and the (at most p) heavy entries are made known to every
  // server: one small broadcast round.
  const std::int64_t heavy_threshold =
      std::max<std::int64_t>(1, join_size / std::max(1, p));
  std::unordered_map<Value, internal_join::HeavyGrid> heavy;
  int next_virtual = p;  // virtual servers [0, p) host the light region
  if (!options.handle_skew) pairs.clear();  // ablation: no grids
  for (const auto& [value, degs] : pairs) {
    const auto [deg_r, deg_s] = degs;
    const std::int64_t prod = CheckedMul(deg_r, deg_s);
    if (prod <= heavy_threshold) continue;
    // ceil(prod / threshold) without the `prod + threshold - 1` overflow.
    const std::int64_t pb =
        prod / heavy_threshold + (prod % heavy_threshold != 0 ? 1 : 0);
    internal_join::HeavyGrid grid;
    const double ratio = static_cast<double>(deg_r) /
                         std::max<double>(1.0, static_cast<double>(deg_s));
    grid.rows = std::clamp<int>(
        static_cast<int>(std::llround(
            std::sqrt(static_cast<double>(pb) * ratio))),
        1, static_cast<int>(pb));
    grid.cols = static_cast<int>((pb + grid.rows - 1) / grid.rows);
    grid.base = next_virtual;
    next_virtual += grid.rows * grid.cols;
    heavy[value] = grid;
  }
  cluster.ChargeUniformRound(static_cast<std::int64_t>(heavy.size()) + 1);

  // Route both relations: light values hash; heavy values replicate into
  // their grid (rows for R, columns for S).
  const int num_virtual = next_virtual;
  auto r_routed = mpc::ExchangeMulti(
      cluster, r.data, num_virtual,
      [&](const Tuple<S>& t, std::vector<int>* dests) {
        const Value v = t.row[r_pos];
        auto it = heavy.find(v);
        if (it == heavy.end()) {
          dests->push_back(route_value(v));
          return;
        }
        const auto& g = it->second;
        const int row = static_cast<int>(
            t.row.Hash(0x9d2c) % static_cast<std::uint64_t>(g.rows));
        for (int col = 0; col < g.cols; ++col) {
          dests->push_back(g.base + row * g.cols + col);
        }
      });
  auto s_routed = mpc::ExchangeMulti(
      cluster, s.data, num_virtual,
      [&](const Tuple<S>& t, std::vector<int>* dests) {
        const Value v = t.row[s_pos];
        auto it = heavy.find(v);
        if (it == heavy.end()) {
          dests->push_back(route_value(v));
          return;
        }
        const auto& g = it->second;
        const int col = static_cast<int>(
            t.row.Hash(0x77f1) % static_cast<std::uint64_t>(g.cols));
        for (int row = 0; row < g.rows; ++row) {
          dests->push_back(g.base + row * g.cols + col);
        }
      });

  // Local joins on every (virtual) server.
  DistRelation<S> out;
  out.schema = JoinedSchema(r.schema, s.schema);
  out.data = mpc::Dist<Tuple<S>>(num_virtual);
  ParallelFor(num_virtual, [&](int part) {
    LocalJoinInto(r.schema, r_routed.part(part), s.schema,
                  s_routed.part(part), &out.data.part(part));
  });
  return out;
}

// Left-deep fold make(items[0]) ⋈ make(items[1]) ⋈ ... by TwoWayJoin.
// Operands are made lazily and in order: make(items[k]) runs after the
// join with the operand before it, so whatever charged work making it
// takes (e.g. shrinking an arm) keeps its place among the rounds.
template <SemiringC S, typename Item, typename MakeOperand>
DistRelation<S> JoinFold(mpc::Cluster& cluster, const std::vector<Item>& items,
                         MakeOperand make) {
  CHECK(!items.empty());
  DistRelation<S> acc = make(items[0]);
  for (size_t k = 1; k < items.size(); ++k) {
    acc = TwoWayJoin(cluster, acc, make(items[k]));
  }
  return acc;
}

// One Yannakakis step: join then ⊕-aggregate onto `group_attrs`
// ("replace R_e' by the aggregate of R_e ⋈ R_e'", §1.2).
template <SemiringC S>
DistRelation<S> JoinAggregate(mpc::Cluster& cluster, const DistRelation<S>& r,
                              const DistRelation<S>& s,
                              const std::vector<AttrId>& group_attrs) {
  DistRelation<S> joined = TwoWayJoin(cluster, r, s);
  return AggregateByAttrs(cluster, joined, group_attrs);
}

// Folds the path R(path[0], path[1]) ⋈ ... ⋈ R(path[n-1], path[n]) into
// R(path[0], path[n]) by Yannakakis steps from the far end (the §4 heavy
// fold and the §6 arm shrink). rels[k] holds path[k] and path[k + 1].
template <SemiringC S>
DistRelation<S> FoldPath(mpc::Cluster& cluster,
                         std::vector<DistRelation<S>> rels,
                         const std::vector<AttrId>& path) {
  CHECK(!rels.empty());
  CHECK_EQ(path.size(), rels.size() + 1);
  DistRelation<S> fold = std::move(rels.back());
  for (size_t k = rels.size() - 1; k-- > 0;) {
    fold = JoinAggregate(cluster, rels[k], fold, {path[k], path.back()});
  }
  return fold;
}

}  // namespace parjoin

#endif  // PARJOIN_ALGORITHMS_TWO_WAY_JOIN_H_
