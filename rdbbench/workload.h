// Input generation for the RecycleDB benchmark: the SELECT stream and the
// writer schedule of each workload, both derived from (workload, seed) alone,
// plus the answer comparison used by the per-run answer check.
#ifndef RDBBENCH_WORKLOAD_H_
#define RDBBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "interp/query_result.h"

namespace rdbbench {

enum class Workload { kReuseHot, kAdhocEvict, kMixedRw, kWireHot };

/// Parses a workload name ("reuse_hot", ...); false when unknown.
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

/// `n` SELECT statements of the workload's read stream. reuse_hot, mixed_rw
/// and wire_hot draw every literal from a per-seed pool of one or two
/// values, so the stream has a few dozen distinct texts; adhoc_evict draws
/// day-granular dates and wide numeric bounds, so nearly every text is new.
std::vector<std::string> GenerateReads(Workload w, uint64_t seed, size_t n);

/// One scheduled writer transaction group of mixed_rw.
struct WriteEvent {
  enum class Kind {
    kInsert,  ///< one autocommit INSERT of 8 orders rows (propagation path)
    kDelete,  ///< one autocommit DELETE of the rows inserted so far
    kPair,    ///< BEGIN/UPDATE/COMMIT on two sessions, interleaved
  };
  Kind kind = Kind::kInsert;
  /// kInsert/kDelete: the one statement. kPair: the UPDATE of session A then
  /// the UPDATE of session B.
  std::vector<std::string> sql;
  /// kPair: whether the two UPDATEs touch overlapping key bands, in which
  /// case first-writer-wins must refuse B's COMMIT.
  bool overlap = false;
};

/// The writer's transaction sequence. Inserted orders take keys from
/// `key_base` upwards, above every generated key; UPDATE bands lie within
/// [0, `base_orders`).
std::vector<WriteEvent> GenerateWrites(uint64_t seed, size_t n,
                                       uint64_t key_base,
                                       uint64_t base_orders);

/// True when the two results export the same labels and values; doubles
/// compare with a relative tolerance of 1e-9 (a recycled aggregate may sum
/// in another order than a fresh one). Without `ordered` (a statement with
/// no ORDER BY) the rows may come in any order, as SQL allows: a result
/// assembled from subsumed pool entries can list its groups differently.
bool SameResult(const recycledb::QueryResult& a,
                const recycledb::QueryResult& b, bool ordered);

}  // namespace rdbbench

#endif  // RDBBENCH_WORKLOAD_H_
