// Combined attributes.
//
// The paper's reductions repeatedly "regard A^odd (a set of attributes) as
// a combined attribute" so that a multi-attribute relation can be fed to
// the binary matrix-multiplication algorithm. CombineAttrs interns each
// distinct combination of values as a fresh dense id and returns (a) the
// binary relation over (combined, kept) and (b) a dictionary relation
// mapping combined ids back to the original rows. ExpandAttrs joins the
// dictionary back (hash co-partitioned, as-executed) to restore the
// original attributes.
//
// Interning assigns ids consistently across servers by the distributed
// sort-based ranking (as-executed): the distinct combinations are sorted
// (load O(D/p) for D distinct combinations), each part assigns dense ids
// from its global prefix offset (a constant-size prefix-sum round), and
// the ids are joined back onto the tuples by hash co-partitioning.

#ifndef PARJOIN_RELATION_ATTR_COMBINER_H_
#define PARJOIN_RELATION_ATTR_COMBINER_H_

#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "parjoin/common/logging.h"
#include "parjoin/mpc/cluster.h"
#include "parjoin/relation/ops.h"
#include "parjoin/relation/relation.h"

namespace parjoin {

template <SemiringC S>
struct CombinedRelation {
  DistRelation<S> binary;      // schema (combined_attr, kept...)
  DistRelation<S> dictionary;  // schema (combined_attr, combined attrs...)
  AttrId combined_attr = -1;
};

// Replaces the attributes `combine` of `rel` by a single fresh attribute
// `combined_attr` (caller-chosen, must not collide with existing ids).
// Attributes not listed in `combine` are kept as-is.
template <SemiringC S>
CombinedRelation<S> CombineAttrs(mpc::Cluster& cluster,
                                 const DistRelation<S>& rel,
                                 const std::vector<AttrId>& combine,
                                 AttrId combined_attr) {
  CHECK_GE(combine.size(), 1u);
  const std::vector<int> combine_pos = rel.schema.PositionsOf(combine);
  std::vector<int> keep_pos;
  std::vector<AttrId> keep_attrs;
  for (int i = 0; i < rel.schema.size(); ++i) {
    const AttrId a = rel.schema.attr(i);
    bool combined = false;
    for (AttrId c : combine) {
      if (c == a) combined = true;
    }
    if (!combined) {
      keep_pos.push_back(i);
      keep_attrs.push_back(a);
    }
  }

  const int p = cluster.p();

  // Step 1: locally deduplicated combination keys, globally sorted so that
  // ranks can be assigned from per-part prefix offsets (as-executed sort;
  // the offsets themselves are a constant-size prefix-sum round).
  mpc::Dist<Row> keys(rel.data.num_parts());
  for (int s = 0; s < rel.data.num_parts(); ++s) {
    std::unordered_set<Row, RowHash> seen;
    for (const auto& t : rel.data.part(s)) {
      Row key = t.row.Select(combine_pos);
      if (seen.insert(key).second) keys.part(s).push_back(std::move(key));
    }
  }
  mpc::Dist<Row> sorted =
      mpc::Sort(cluster, std::move(keys),
                [](const Row& a, const Row& b) { return a < b; });
  cluster.ChargeUniformRound(1);  // prefix-sum of per-part distinct counts

  // Per-part: drop duplicates across parts (the sort may split a run) and
  // assign ids from the global prefix offset.
  mpc::Dist<Tuple<S>> dict_parts(p);
  std::unordered_map<Row, Value, RowHash> ids;  // global view for routing
  {
    Value next_id = 0;
    const Row* prev = nullptr;
    for (int s = 0; s < p; ++s) {
      for (const Row& key : sorted.part(s)) {
        if (prev != nullptr && *prev == key) continue;
        Tuple<S> dt;
        dt.row.Reserve(1 + key.size());
        dt.row.PushBack(next_id);
        for (Value v : key) dt.row.PushBack(v);
        dt.w = S::One();
        dict_parts.part(s).push_back(std::move(dt));
        ids.emplace(key, next_id);
        prev = &ids.find(key)->first;
        ++next_id;
      }
    }
  }

  // Step 2: attach ids to the tuples. In the distributed realization this
  // is a hash co-partition of tuples and dictionary entries on the key
  // (one exchange round each side); charged accordingly.
  const std::int64_t n = rel.TotalSize();
  cluster.ChargeUniformRound((n + p - 1) / p);
  cluster.ChargeUniformRound(
      (static_cast<std::int64_t>(ids.size()) + p - 1) / p);

  CombinedRelation<S> out;
  out.combined_attr = combined_attr;
  std::vector<AttrId> binary_schema = {combined_attr};
  binary_schema.insert(binary_schema.end(), keep_attrs.begin(),
                       keep_attrs.end());
  out.binary.schema = Schema(binary_schema);
  out.binary.data = mpc::Dist<Tuple<S>>(rel.data.num_parts());
  for (int s = 0; s < rel.data.num_parts(); ++s) {
    for (const auto& t : rel.data.part(s)) {
      Tuple<S> bt;
      bt.row.Reserve(1 + static_cast<int>(keep_pos.size()));
      bt.row.PushBack(ids.at(t.row.Select(combine_pos)));
      for (int pos : keep_pos) bt.row.PushBack(t.row[pos]);
      bt.w = t.w;
      out.binary.data.part(s).push_back(std::move(bt));
    }
  }

  std::vector<AttrId> dict_schema = {combined_attr};
  dict_schema.insert(dict_schema.end(), combine.begin(), combine.end());
  out.dictionary.schema = Schema(dict_schema);
  out.dictionary.data = std::move(dict_parts);
  return out;
}

// Restores the original attributes of a combined column: joins `rel`
// (containing `combined_attr`) with the dictionary and drops the id.
// As-executed: both sides hash co-partitioned by the id, local join.
template <SemiringC S>
DistRelation<S> ExpandAttrs(mpc::Cluster& cluster, const DistRelation<S>& rel,
                            const DistRelation<S>& dictionary,
                            AttrId combined_attr) {
  const int id_pos = rel.schema.IndexOf(combined_attr);
  CHECK_GE(id_pos, 0);
  const int p = cluster.p();
  auto rel_parted = PartitionByColumn(cluster, rel.data, id_pos, 0xd1c7);
  auto dict_parted = PartitionByColumn(cluster, dictionary.data, 0, 0xd1c7);

  DistRelation<S> joined;
  joined.schema = JoinedSchema(rel.schema, dictionary.schema);
  joined.data = mpc::Dist<Tuple<S>>(p);
  for (int s = 0; s < p; ++s) {
    LocalJoinInto(rel.schema, rel_parted.part(s), dictionary.schema,
                  dict_parted.part(s), &joined.data.part(s));
  }

  // Drop the combined id (pure local projection, free).
  std::vector<AttrId> final_attrs;
  for (AttrId a : joined.schema.attrs()) {
    if (a != combined_attr) final_attrs.push_back(a);
  }
  return ProjectLocal(joined, final_attrs);
}

}  // namespace parjoin

#endif  // PARJOIN_RELATION_ATTR_COMBINER_H_
