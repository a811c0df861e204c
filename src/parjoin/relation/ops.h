// Relational MPC operations built on the §2.1 primitives: hash
// partitioning, local projection and splitting, aggregation
// (reduce-by-key over annotations), degree statistics, semijoins, and the
// local join kernel.

#ifndef PARJOIN_RELATION_OPS_H_
#define PARJOIN_RELATION_OPS_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "parjoin/common/hash.h"
#include "parjoin/common/logging.h"
#include "parjoin/common/row.h"
#include "parjoin/mpc/cluster.h"
#include "parjoin/mpc/exchange.h"
#include "parjoin/mpc/primitives.h"
#include "parjoin/relation/relation.h"
#include "parjoin/relation/schema.h"

namespace parjoin {

struct RowHash {
  std::size_t operator()(const Row& r) const {
    return static_cast<std::size_t>(r.Hash());
  }
};

// A (value, count) statistic, e.g. the degree of a value in a relation.
struct ValueCount {
  Value value = 0;
  std::int64_t count = 0;
};

// --- Partitioning -----------------------------------------------------------

// The server in [0, parts) that value v hashes to. Every value route goes
// through here; `salt` picks the hash function, so two sides routed with
// the same salt are co-partitioned.
inline int HashPart(Value v, std::uint64_t salt, int parts) {
  return static_cast<int>(Mix64(static_cast<std::uint64_t>(v) ^ salt) %
                          static_cast<std::uint64_t>(parts));
}

// Partitions tuples by HashPart of their column `pos`: one exchange round
// into p parts.
template <SemiringC S>
mpc::Dist<Tuple<S>> PartitionByColumn(mpc::Cluster& cluster,
                                      const mpc::Dist<Tuple<S>>& data,
                                      int pos, std::uint64_t salt) {
  const int p = cluster.p();
  return mpc::Exchange(cluster, data, p, [&](const Tuple<S>& t) {
    return HashPart(t.row[pos], salt, p);
  });
}

// Hash-partitions a relation by the given attributes. One exchange round;
// load O(N/p) w.h.p. for non-pathological key distributions (heavy keys are
// handled by the *callers*, which split heavy values off first, exactly as
// the paper's algorithms do).
template <SemiringC S>
DistRelation<S> HashPartitionByAttrs(mpc::Cluster& cluster,
                                     const DistRelation<S>& rel,
                                     const std::vector<AttrId>& attrs,
                                     std::uint64_t seed = 0) {
  const std::vector<int> positions = rel.schema.PositionsOf(attrs);
  const int p = cluster.p();
  DistRelation<S> out;
  out.schema = rel.schema;
  out.data = mpc::Exchange(cluster, rel.data, p, [&](const Tuple<S>& t) {
    return static_cast<int>(t.row.Select(positions).Hash(seed ^ 0x7c6e) %
                            static_cast<std::uint64_t>(p));
  });
  return out;
}

// --- Local (free) reshaping -------------------------------------------------

// Projects every tuple onto `target` (a subset of the schema) without
// aggregating: purely local, so the result keeps rel's part count and
// tuple order.
template <SemiringC S>
DistRelation<S> ProjectLocal(const DistRelation<S>& rel,
                             const std::vector<AttrId>& target) {
  const std::vector<int> positions = rel.schema.PositionsOf(target);
  DistRelation<S> out;
  out.schema = Schema(target);
  out.data = mpc::Dist<Tuple<S>>(rel.data.num_parts());
  for (int s = 0; s < rel.data.num_parts(); ++s) {
    out.data.part(s).reserve(rel.data.part(s).size());
    for (const auto& t : rel.data.part(s)) {
      out.data.part(s).push_back(Tuple<S>{t.row.Select(positions), t.w});
    }
  }
  return out;
}

// Splits `rel` by a per-tuple class of its column `pos`: tuple t goes to
// class class_of(t.row[pos]) in [0, num_classes), or is dropped when that
// is negative (a filter is one class). Purely local: every class keeps
// rel's schema and part count, and tuples keep their part and order.
template <SemiringC S, typename ClassOf>
std::vector<DistRelation<S>> SplitByAttr(DistRelation<S> rel, int pos,
                                         int num_classes, ClassOf class_of) {
  std::vector<DistRelation<S>> out(static_cast<size_t>(num_classes));
  for (auto& cls : out) {
    cls.schema = rel.schema;
    cls.data = mpc::Dist<Tuple<S>>(rel.data.num_parts());
  }
  for (int s = 0; s < rel.data.num_parts(); ++s) {
    for (auto& t : rel.data.part(s)) {
      const int cls = class_of(t.row[pos]);
      if (cls >= 0) {
        out[static_cast<size_t>(cls)].data.part(s).push_back(std::move(t));
      }
    }
  }
  return out;
}

// --- Aggregation ------------------------------------------------------------

// ⊕-sums the annotations of equal rows into p parts: the paper's
// "aggregation computed as reduce-by-key" (§2.1). As-executed load:
// O(M/p) for M locally-distinct rows.
template <SemiringC S>
mpc::Dist<Tuple<S>> ReduceByRow(mpc::Cluster& cluster, mpc::Dist<Tuple<S>> in) {
  return mpc::ReduceByKey(
      cluster, std::move(in),
      [](const Tuple<S>& t) -> const Row& { return t.row; },
      [](Tuple<S>* acc, const Tuple<S>& t) { acc->w = S::Plus(acc->w, t.w); });
}

// Q_y-style aggregation: projects every tuple to `group_attrs` and ⊕-sums
// annotations per projected row.
template <SemiringC S>
DistRelation<S> AggregateByAttrs(mpc::Cluster& cluster,
                                 const DistRelation<S>& rel,
                                 const std::vector<AttrId>& group_attrs) {
  DistRelation<S> out = ProjectLocal(rel, group_attrs);
  out.data = ReduceByRow(cluster, std::move(out.data));
  return out;
}

// Unions same-schema result fragments and ⊕-sums equal rows into p parts
// (the "aggregate all subqueries" step). The union itself is free: the
// fragments' parts are concatenated in order, so every tuple stays on the
// server that produced it; only the reduce is charged.
template <SemiringC S>
DistRelation<S> ReduceUnion(mpc::Cluster& cluster,
                            std::vector<DistRelation<S>> results,
                            const Schema& schema) {
  mpc::Dist<Tuple<S>> merged(0);
  for (auto& r : results) {
    CHECK(r.schema == schema);
    for (auto& part : r.data.parts()) {
      merged.parts().push_back(std::move(part));
    }
  }
  if (merged.num_parts() == 0) merged = mpc::Dist<Tuple<S>>(cluster.p());
  DistRelation<S> out;
  out.schema = schema;
  out.data = ReduceByRow(cluster, std::move(merged));
  return out;
}

// --- Degree statistics ------------------------------------------------------

// Computes |σ_{attr=v} R| for every value v of `attr` (paper §2.1,
// "reduce-by-key ... to compute the degree information").
template <SemiringC S>
mpc::Dist<ValueCount> DegreesByAttr(mpc::Cluster& cluster,
                                    const DistRelation<S>& rel, AttrId attr) {
  const int pos = rel.schema.IndexOf(attr);
  CHECK_GE(pos, 0);
  mpc::Dist<ValueCount> counts(rel.data.num_parts());
  for (int s = 0; s < rel.data.num_parts(); ++s) {
    auto& out_part = counts.part(s);
    out_part.reserve(rel.data.part(s).size());
    for (const auto& t : rel.data.part(s)) {
      out_part.push_back(ValueCount{t.row[pos], 1});
    }
  }
  return mpc::ReduceByKey(
      cluster, std::move(counts),
      [](const ValueCount& vc) { return vc.value; },
      [](ValueCount* acc, const ValueCount& vc) { acc->count += vc.count; });
}

// Gathers and broadcasts the (value, count) entries with count >= threshold
// as a lookup map. Charged as one small broadcast round; callers rely on
// the paper's guarantee that the set is small (<= N/threshold).
std::unordered_map<Value, std::int64_t> CollectStatsAtLeast(
    mpc::Cluster& cluster, const mpc::Dist<ValueCount>& degrees,
    std::int64_t threshold);

// --- Semijoin ---------------------------------------------------------------

// R ⋉ S on the attributes common to both schemas: keeps the tuples of R
// whose key appears in S. As-executed: S is projected and locally
// deduplicated (free), then both sides are hash-partitioned by the key
// (load O((|R| + |distinct keys of S|)/p) w.h.p.). The result stays
// hash-partitioned by the key.
template <SemiringC S>
DistRelation<S> Semijoin(mpc::Cluster& cluster, const DistRelation<S>& r,
                         const DistRelation<S>& s) {
  const std::vector<AttrId> key = r.schema.CommonAttrs(s.schema);
  CHECK(!key.empty()) << "semijoin with no common attributes";
  const std::vector<int> r_pos = r.schema.PositionsOf(key);
  const std::vector<int> s_pos = s.schema.PositionsOf(key);
  const int p = cluster.p();
  const std::uint64_t seed = 0x3ba1;

  // Locally deduplicated key projection of S.
  mpc::Dist<Row> s_keys(s.data.num_parts());
  for (int i = 0; i < s.data.num_parts(); ++i) {
    std::unordered_set<Row, RowHash> seen;
    for (const auto& t : s.data.part(i)) {
      Row k = t.row.Select(s_pos);
      if (seen.insert(k).second) s_keys.part(i).push_back(std::move(k));
    }
  }
  // HashPartitionByAttrs hashes with seed ^ 0x7c6e; route the S keys with
  // the same function so matching rows collide on the same server.
  mpc::Dist<Row> s_keys_final =
      mpc::Exchange(cluster, s_keys, p, [&](const Row& k) {
        return static_cast<int>(k.Hash(seed ^ 0x7c6e) %
                                static_cast<std::uint64_t>(p));
      });
  DistRelation<S> r_parted = HashPartitionByAttrs(cluster, r, key, seed);

  DistRelation<S> out;
  out.schema = r.schema;
  out.data = mpc::Dist<Tuple<S>>(p);
  for (int i = 0; i < p; ++i) {
    std::unordered_set<Row, RowHash> keys(s_keys_final.part(i).begin(),
                                          s_keys_final.part(i).end());
    for (const auto& t : r_parted.data.part(i)) {
      if (keys.count(t.row.Select(r_pos)) > 0) out.data.part(i).push_back(t);
    }
  }
  return out;
}

// Annotation push-down: multiplies into every tuple of `rel` the annotation
// that `factors` (a relation with schema exactly {attr}, unique rows)
// assigns to the tuple's `attr` value; tuples without a factor are dangling
// and dropped. Used by the §7 query reduction ("attach annotations of R_e
// to R_e'"). As-executed: both sides co-partitioned by attr (one exchange
// round each), then a local hash join.
template <SemiringC S>
DistRelation<S> MultiplyIntoByAttr(mpc::Cluster& cluster,
                                   const DistRelation<S>& rel,
                                   const DistRelation<S>& factors,
                                   AttrId attr) {
  CHECK_EQ(factors.schema.size(), 1);
  CHECK_EQ(factors.schema.attr(0), attr);
  const int pos = rel.schema.IndexOf(attr);
  CHECK_GE(pos, 0);
  const int p = cluster.p();
  mpc::Dist<Tuple<S>> rel_parted =
      PartitionByColumn(cluster, rel.data, pos, 0xf00d);
  mpc::Dist<Tuple<S>> fac_parted =
      PartitionByColumn(cluster, factors.data, 0, 0xf00d);

  DistRelation<S> out;
  out.schema = rel.schema;
  out.data = mpc::Dist<Tuple<S>>(p);
  for (int s = 0; s < p; ++s) {
    std::unordered_map<Value, typename S::ValueType> lookup;
    lookup.reserve(fac_parted.part(s).size());
    for (const auto& f : fac_parted.part(s)) lookup[f.row[0]] = f.w;
    for (const auto& t : rel_parted.part(s)) {
      auto it = lookup.find(t.row[pos]);
      if (it == lookup.end()) continue;
      Tuple<S> copy = t;
      copy.w = S::Times(copy.w, it->second);
      out.data.part(s).push_back(std::move(copy));
    }
  }
  return out;
}

// --- Local join kernel ------------------------------------------------------

// Joins two co-located tuple sets on the attributes common to their
// schemas, producing rows over schema_a ++ (schema_b \ common) with
// annotations multiplied. Purely local (free in the ledger); used inside
// every distributed join after the data movement has been charged.
template <SemiringC S>
void LocalJoinInto(const Schema& schema_a, const std::vector<Tuple<S>>& a,
                   const Schema& schema_b, const std::vector<Tuple<S>>& b,
                   std::vector<Tuple<S>>* out) {
  const std::vector<AttrId> key = schema_a.CommonAttrs(schema_b);
  const std::vector<int> a_pos = schema_a.PositionsOf(key);
  const std::vector<int> b_pos = schema_b.PositionsOf(key);
  std::vector<int> b_keep;  // positions of B attrs not in the key
  for (int i = 0; i < schema_b.size(); ++i) {
    if (!schema_a.Contains(schema_b.attr(i))) b_keep.push_back(i);
  }

  std::unordered_map<Row, std::vector<const Tuple<S>*>, RowHash> index;
  index.reserve(b.size());
  for (const auto& tb : b) index[tb.row.Select(b_pos)].push_back(&tb);

  for (const auto& ta : a) {
    auto it = index.find(ta.row.Select(a_pos));
    if (it == index.end()) continue;
    for (const Tuple<S>* tb : it->second) {
      Tuple<S> joined;
      joined.row = ta.row;
      joined.row.Reserve(ta.row.size() + static_cast<int>(b_keep.size()));
      for (int pos : b_keep) joined.row.PushBack(tb->row[pos]);
      joined.w = S::Times(ta.w, tb->w);
      out->push_back(std::move(joined));
    }
  }
}

// The schema produced by LocalJoinInto.
inline Schema JoinedSchema(const Schema& a, const Schema& b) {
  std::vector<AttrId> attrs = a.attrs();
  for (AttrId attr : b.attrs()) {
    if (!a.Contains(attr)) attrs.push_back(attr);
  }
  return Schema(std::move(attrs));
}

}  // namespace parjoin

#endif  // PARJOIN_RELATION_OPS_H_
