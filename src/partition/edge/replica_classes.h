#ifndef GNNPART_PARTITION_EDGE_REPLICA_CLASSES_H_
#define GNNPART_PARTITION_EDGE_REPLICA_CLASSES_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/types.h"

namespace gnnpart {

// Candidate selection shared by HDRF and HEP's streaming tail. A streamed
// edge (u, v) splits the k partitions into four replica classes by whether
// each holds a replica of u, of v, of both or of neither. Every member of a
// class gets the same replication term, and the balance term
// lambda * (max_load - load) / denom cannot rise as the load grows, so the
// member with the least (load, index) scores at least as high as any other
// member of its class: scoring that one member per class finds the winner.
// Each loop keeps its own tie rule on top (see hdrf.cc and hep.cc).

/// Partition p's sort key: its load above its index in the low 6 bits (k is
/// at most 64), so key order is (load, index) order.
inline uint64_t LoadKey(uint64_t load, PartitionId p) { return load << 6 | p; }

/// The key of a partition that belongs to no class (HEP's capped ones), and
/// the class minimum of an empty class.
constexpr uint64_t kNoKey = ~uint64_t{0};

/// Replica class index: bit 0 = holds a replica of u, bit 1 = of v.
enum ReplicaClass : int { kNeither = 0, kUOnly = 1, kVOnly = 2, kBoth = 3 };

/// The least key among partitions 0..k-1 of each replica class, indexed by
/// ReplicaClass, for replica masks ru and rv (kNoKey if the class has no
/// member). One branch-free pass.
inline std::array<uint64_t, 4> MinKeyPerClass(const uint64_t* key,
                                              PartitionId k, uint64_t ru,
                                              uint64_t rv) {
  uint64_t m0 = kNoKey, m1 = kNoKey, m2 = kNoKey, m3 = kNoKey;
  for (PartitionId p = 0; p < k; ++p, ru >>= 1, rv >>= 1) {
    // ~0 unless p holds the replica; ORed into a key, it drops the key from
    // the classes that need the replica.
    const uint64_t u_out = (ru & 1) - 1;
    const uint64_t v_out = (rv & 1) - 1;
    const uint64_t if_no_v = key[p] | ~v_out;  // key[p] iff p lacks v
    const uint64_t if_v = key[p] | v_out;      // key[p] iff p holds v
    m0 = std::min(m0, if_no_v | ~u_out);
    m1 = std::min(m1, if_no_v | u_out);
    m2 = std::min(m2, if_v | ~u_out);
    m3 = std::min(m3, if_v | u_out);
  }
  return {m0, m1, m2, m3};
}

/// Returns edges[stream[i]] and prefetches what a streaming loop over
/// `stream` touches later: the edge and its assignment slot 16 positions
/// on, and the replica masks and partial degrees of both endpoints 8 on.
/// Shuffled streams make each of these a cache miss once the graph outgrows
/// the cache. (A helper that only prefetched would count as side-effect
/// free, and its calls would be deleted.)
inline Edge StreamEdge(const std::vector<EdgeId>& stream, size_t i,
                       const Edge* edges, const PartitionId* assignment,
                       const uint64_t* replicas,
                       const uint32_t* partial_degree) {
  if (i + 16 < stream.size()) {
    __builtin_prefetch(&edges[stream[i + 16]]);
    __builtin_prefetch(&assignment[stream[i + 16]], 1);
  }
  if (i + 8 < stream.size()) {
    const Edge& ahead = edges[stream[i + 8]];
    __builtin_prefetch(&replicas[ahead.src], 1);
    __builtin_prefetch(&replicas[ahead.dst], 1);
    __builtin_prefetch(&partial_degree[ahead.src], 1);
    __builtin_prefetch(&partial_degree[ahead.dst], 1);
  }
  return edges[stream[i]];
}

}  // namespace gnnpart

#endif  // GNNPART_PARTITION_EDGE_REPLICA_CLASSES_H_
