// Exchange: the routing rounds of the MPC model.
//
// Every server inspects its local items and addresses each to one (or, for
// replication, several) destination servers; the cluster delivers them and
// charges each destination the number of tuples it received. Three rounds
// live here: Exchange (one destination per item), ExchangeMulti (several)
// and Broadcast (every server). Algorithms move data between servers only
// through these rounds and the sort rounds of mpc/primitives.h, so the
// Cluster ledger sees every tuple that crosses a server boundary. Exchange
// and ExchangeMulti charge through Cluster::ChargeExchangeRound, where the
// cluster's fault model may corrupt one message (mpc/faults.h).
//
// Threading: routing and delivery are executed with ParallelFor — first a
// per-source-part bucketing pass (each source part routes independently),
// then a per-destination concatenation in source-part order. Output parts
// and charged loads are bit-identical to the sequential walk because the
// delivery order per destination is exactly the sequential encounter
// order. Route functors may be invoked concurrently and therefore must be
// pure (no mutation of shared state); every route in the codebase is a
// hash of the item.

#ifndef PARJOIN_MPC_EXCHANGE_H_
#define PARJOIN_MPC_EXCHANGE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "parjoin/common/logging.h"
#include "parjoin/common/parallel_for.h"
#include "parjoin/mpc/cluster.h"
#include "parjoin/mpc/dist.h"

namespace parjoin {
namespace mpc {

namespace internal_exchange {

// Below this many items the bucketed two-phase route is pure overhead.
inline constexpr std::int64_t kMinItemsForThreadedRoute = 1 << 12;

// The bucket matrix allocates num_src * num_dest vectors; beyond this the
// memory overhead outweighs the parallelism (fall back to the sequential
// walk, which needs only the output parts).
inline constexpr std::int64_t kMaxBucketMatrix = std::int64_t{1} << 22;

inline bool UseThreadedRoute(std::int64_t total_items, int num_src,
                             int num_dest) {
  return ParallelForThreads() > 1 && num_src > 1 &&
         total_items >= kMinItemsForThreadedRoute &&
         static_cast<std::int64_t>(num_src) * num_dest <= kMaxBucketMatrix;
}

// Concatenates buckets[s][d] over s (source order) into out->part(d) for
// every destination d, in parallel over destinations; fills received[d].
template <typename T>
void DeliverBuckets(std::vector<std::vector<std::vector<T>>>* buckets,
                    Dist<T>* out, std::vector<std::int64_t>* received) {
  const int num_src = static_cast<int>(buckets->size());
  const int num_dest = out->num_parts();
  ParallelFor(num_dest, [&](int d) {
    std::size_t total = 0;
    for (int s = 0; s < num_src; ++s) total += (*buckets)[s][d].size();
    auto& dst = out->part(d);
    dst.reserve(total);
    for (int s = 0; s < num_src; ++s) {
      auto& bucket = (*buckets)[s][d];
      for (auto& item : bucket) dst.push_back(std::move(item));
    }
    (*received)[static_cast<std::size_t>(d)] =
        static_cast<std::int64_t>(total);
  });
}

// The router behind Exchange and ExchangeMulti: one round delivering every
// item to each destination its router names. make_router() builds one
// router per walk — once for the sequential walk, once per source part
// for the threaded one — so a router may own scratch state (ExchangeMulti's
// destination vector) without sharing it across threads. A router is
// called as router(item, emit) and calls emit(dest) once per destination,
// in delivery order.
template <typename T, typename MakeRouter>
Dist<T> RouteRound(Cluster& cluster, const Dist<T>& in, int num_dest_parts,
                   MakeRouter make_router) {
  CHECK_GT(num_dest_parts, 0);
  Dist<T> out(num_dest_parts);
  std::vector<std::int64_t> received(static_cast<size_t>(num_dest_parts), 0);
  const int num_src = in.num_parts();
  if (!UseThreadedRoute(in.TotalSize(), num_src, num_dest_parts)) {
    auto router = make_router();
    for (const auto& part : in.parts()) {
      for (const auto& item : part) {
        router(item, [&](int dest) {
          CHECK_GE(dest, 0);
          CHECK_LT(dest, num_dest_parts);
          out.part(dest).push_back(item);
          received[static_cast<size_t>(dest)] += 1;
        });
      }
    }
  } else {
    // Phase 1: every source part buckets its items by destination.
    std::vector<std::vector<std::vector<T>>> buckets(
        static_cast<size_t>(num_src));
    ParallelFor(num_src, [&](int s) {
      auto& local = buckets[static_cast<size_t>(s)];
      local.resize(static_cast<size_t>(num_dest_parts));
      auto router = make_router();
      for (const auto& item : in.part(s)) {
        router(item, [&](int dest) {
          CHECK_GE(dest, 0);
          CHECK_LT(dest, num_dest_parts);
          local[static_cast<size_t>(dest)].push_back(item);
        });
      }
    });
    // Phase 2: every destination concatenates its buckets in source order.
    DeliverBuckets(&buckets, &out, &received);
  }
  cluster.ChargeExchangeRound(std::move(received));
  return out;
}

}  // namespace internal_exchange

// One round: routes every item to route(item) in [0, num_dest_parts).
// Destinations beyond p are virtual servers (charged to v mod p).
// `route` must be pure: it may run concurrently across source parts.
template <typename T, typename Route>
Dist<T> Exchange(Cluster& cluster, const Dist<T>& in, int num_dest_parts,
                 Route route) {
  TraceScope trace(cluster, "exchange");
  return internal_exchange::RouteRound(cluster, in, num_dest_parts, [&] {
    return [&](const T& item, auto emit) { emit(route(item)); };
  });
}

// One round with replication: route_multi(item, &dests) appends every
// destination the item should reach. Used for broadcast-style steps
// (e.g. replicating one side of a heavy join across a server group).
// `route_multi` must be pure: it may run concurrently across source parts.
template <typename T, typename RouteMulti>
Dist<T> ExchangeMulti(Cluster& cluster, const Dist<T>& in, int num_dest_parts,
                      RouteMulti route_multi) {
  TraceScope trace(cluster, "exchange_multi");
  return internal_exchange::RouteRound(cluster, in, num_dest_parts, [&] {
    return [&, dests = std::vector<int>()](const T& item, auto emit) mutable {
      dests.clear();
      route_multi(item, &dests);
      for (int dest : dests) emit(dest);
    };
  });
}

// Broadcast: every one of the cluster's p servers receives all items.
// Load: TotalSize() per server, one round. The per-server copies are made
// in parallel; the last part takes the flattened buffer by move.
template <typename T>
Dist<T> Broadcast(Cluster& cluster, const Dist<T>& in) {
  TraceScope trace(cluster, "broadcast");
  const int p = cluster.p();
  std::vector<T> all = in.Flatten();
  Dist<T> out(p);
  std::vector<std::int64_t> received(static_cast<size_t>(p),
                                     static_cast<std::int64_t>(all.size()));
  ParallelFor(p - 1, [&](int s) { out.part(s) = all; });
  out.part(p - 1) = std::move(all);
  cluster.ChargeRound(received);
  return out;
}

}  // namespace mpc
}  // namespace parjoin

#endif  // PARJOIN_MPC_EXCHANGE_H_
