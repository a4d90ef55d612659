#ifndef RECYCLEDB_INTERP_RECYCLER_HOOK_H_
#define RECYCLEDB_INTERP_RECYCLER_HOOK_H_

#include <vector>

#include "catalog/catalog.h"
#include "mal/program.h"
#include "mal/value.h"

namespace recycledb {

/// Interpreter-side view of the recycler run-time support (Algorithm 1).
/// The interpreter wraps every instruction marked by the recycler optimiser
/// with OnEntry (match & reuse) and OnExit (admission). The core library
/// provides the concrete implementation; keeping the interface here lets the
/// interpreter stay independent of recycling policy details.
class RecyclerHook {
 public:
  virtual ~RecyclerHook() = default;

  /// Identifies one dynamic instruction: the template, its pc, and the
  /// run-time-resolved argument values.
  struct InstrView {
    const Program* prog = nullptr;
    int pc = 0;
    Opcode op{};
    const std::vector<MalValue>* args = nullptr;
    /// MatchHash(op, *args), the exact-match key. The interpreter computes
    /// it once per monitored instruction; 0 means "not computed" and the
    /// hook computes it on demand (a genuine zero is merely recomputed).
    size_t match_hash = 0;

    size_t hash() const {
      return match_hash != 0 ? match_hash : MatchHash(op, *args);
    }
    /// This view with match_hash filled in: hooks call it once on entry so
    /// every later use (stripe selection, probe, admission) shares it.
    InstrView Hashed() const {
      InstrView v = *this;
      v.match_hash = hash();
      return v;
    }
  };

  /// recycleEntry() outcome. kMiss is zero, so an outcome tests true exactly
  /// when the pool answered the instruction.
  enum Reuse { kMiss = 0, kExactHit, kSubsumedHit };

  /// Starts a query invocation (protects its intermediates from eviction and
  /// scopes local-vs-global reuse classification).
  virtual void BeginQuery(const Program& prog) = 0;
  virtual void EndQuery() = 0;

  /// recycleEntry(): fills `results` and returns a hit outcome if the
  /// instruction was answered from the pool (exact match or subsumption).
  /// On an exact hit with `deps` set, also assigns the reused entry's
  /// dependency set to `*deps`, read under the same lock as its results, so
  /// the caller need not recompute it; other outcomes leave `*deps` alone.
  virtual Reuse OnEntry(const InstrView& instr, std::vector<MalValue>* results,
                        std::vector<ColumnId>* deps = nullptr) = 0;

  /// recycleExit(): offers the executed instruction's results for admission.
  /// `deps` is the set of persistent columns the results derive from.
  virtual void OnExit(const InstrView& instr,
                      const std::vector<MalValue>& results, double cpu_ms,
                      const std::vector<ColumnId>& deps) = 0;
};

}  // namespace recycledb

#endif  // RECYCLEDB_INTERP_RECYCLER_HOOK_H_
