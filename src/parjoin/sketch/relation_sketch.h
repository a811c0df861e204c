// Registration-time relation statistics for the serving runtime: the
// relation's size plus one KMV distinct sketch per column, all computed
// under a FIXED hash seed. Equal relation contents therefore produce equal
// sketches — and equal Fingerprint()s — across queries, processes, and
// runs, which is what lets parjoind's plan cache key on (query shape,
// sketch signature): a repeat query over unchanged registered relations
// maps to the same cache entry without re-running estimation.

#ifndef PARJOIN_SKETCH_RELATION_SKETCH_H_
#define PARJOIN_SKETCH_RELATION_SKETCH_H_

#include <cstdint>
#include <vector>

#include "parjoin/common/hash.h"
#include "parjoin/relation/relation.h"
#include "parjoin/sketch/kmv.h"

namespace parjoin {

// The fixed seed behind every RelationSketch. Registration happens once
// per relation; a per-run seed would make fingerprints run-dependent and
// defeat cross-query cache hits.
inline constexpr std::uint64_t kRelationSketchSeed = 0x5e7c8f51a3d90b26ULL;

struct RelationSketch {
  std::int64_t size = 0;
  std::vector<Kmv> columns;  // one sketch per schema position

  // A 64-bit digest of (size, retained sketch hashes). Two relations with
  // equal contents fingerprint equally; differing contents collide only if
  // size AND every retained minimum agree — vanishingly unlikely and, for
  // the plan cache, merely a stale-plan risk, never a correctness one
  // (cached plans are re-executed, not replayed).
  std::uint64_t Fingerprint() const {
    std::uint64_t h =
        HashCombine(0x9d3f1c6ab5e82074ULL, static_cast<std::uint64_t>(size));
    for (const Kmv& col : columns) {
      h = HashCombine(h, static_cast<std::uint64_t>(col.size()));
      for (int i = 0; i < col.size(); ++i) h = HashCombine(h, col.hash(i));
    }
    return h;
  }
};

// One pass over the partitions; charges nothing (sketching is part of
// registration, not of any measured query).
template <SemiringC S>
RelationSketch SketchRelation(const DistRelation<S>& rel) {
  const SeededHash hash(kRelationSketchSeed);
  RelationSketch sketch;
  sketch.size = rel.TotalSize();
  sketch.columns.resize(static_cast<std::size_t>(rel.schema.size()));
  rel.data.ForEach([&](const Tuple<S>& t) {
    for (int i = 0; i < rel.schema.size(); ++i) {
      sketch.columns[static_cast<std::size_t>(i)].AddHash(
          hash(static_cast<std::uint64_t>(t.row[i])));
    }
  });
  return sketch;
}

}  // namespace parjoin

#endif  // PARJOIN_SKETCH_RELATION_SKETCH_H_
