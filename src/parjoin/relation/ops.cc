#include "parjoin/relation/ops.h"

namespace parjoin {

std::unordered_map<Value, std::int64_t> CollectStatsAtLeast(
    mpc::Cluster& cluster, const mpc::Dist<ValueCount>& degrees,
    std::int64_t threshold) {
  std::unordered_map<Value, std::int64_t> out;
  std::int64_t gathered = 0;
  for (const auto& part : degrees.parts()) {
    for (const auto& vc : part) {
      if (vc.count >= threshold) {
        out[vc.value] = vc.count;
        ++gathered;
      }
    }
  }
  cluster.ChargeUniformRound(gathered);
  return out;
}

}  // namespace parjoin
