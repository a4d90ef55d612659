#ifndef RECYCLEDB_INTERP_INTERPRETER_H_
#define RECYCLEDB_INTERP_INTERPRETER_H_

#include <vector>

#include "catalog/catalog.h"
#include "interp/query_result.h"
#include "interp/recycler_hook.h"
#include "mal/program.h"

namespace recycledb {

/// Per-invocation execution statistics.
struct RunStats {
  double wall_ms = 0;        ///< total invocation time
  int instrs = 0;            ///< instructions interpreted
  int monitored = 0;         ///< instructions wrapped by the recycler
  int pool_hits = 0;         ///< instructions answered from the pool
  double exec_ms = 0;        ///< time spent actually executing instructions
  double monitored_exec_ms = 0;  ///< execution time inside monitored instrs
};

/// The linear MAL interpreter (paper §2.2): executes a query template
/// bottom-up, one fully materialising operator at a time. If a RecyclerHook
/// is attached, instructions marked by the recycler optimiser are wrapped
/// with recycleEntry/recycleExit per Algorithm 1.
class Interpreter {
 public:
  explicit Interpreter(Catalog* catalog, RecyclerHook* recycler = nullptr)
      : catalog_(catalog), recycler_(recycler) {}

  /// Runs `prog` with positional parameter values. Thread-compatible: one
  /// interpreter per thread.
  Result<QueryResult> Run(const Program& prog,
                          const std::vector<Scalar>& params);

  /// Pins the catalog snapshot the NEXT Run() calls resolve binds and
  /// dependency ids against (null, the default, reads the live catalog —
  /// pre-MVCC behaviour, requiring external serialisation against commits).
  /// With a snapshot pinned, Run() never touches the mutable catalog: it is
  /// safe concurrently with commits without any lock. The caller keeps the
  /// snapshot alive across the run.
  void set_snapshot(const CatalogSnapshot* snapshot) { snapshot_ = snapshot; }

  const RunStats& last_run() const { return last_run_; }

 private:
  /// The body of Run(): everything but the stats reset, the buffer release
  /// and the wall clock, which Run() does on every exit.
  Result<QueryResult> Execute(const Program& prog,
                              const std::vector<Scalar>& params);
  /// Executes one instruction, appending its results to `out`.
  Status ExecInstr(const Instruction& ins, const std::vector<MalValue>& args,
                   std::vector<MalValue>* out, QueryResult* result);
  /// Computes the dependency set of `ins` (arguments in args_) into
  /// instr_deps_.
  void ComputeDeps(const Instruction& ins);

  Catalog* catalog_;
  RecyclerHook* recycler_;
  const CatalogSnapshot* snapshot_ = nullptr;
  RunStats last_run_;

  // Per-run working buffers, members so their capacity survives across runs
  // and a warm exact-hit instruction allocates nothing. Run() empties them
  // on every exit. stack_ and deps_ are indexed by program variable; args_,
  // rets_ and instr_deps_ hold the current instruction's.
  std::vector<MalValue> stack_;
  std::vector<std::vector<ColumnId>> deps_;
  std::vector<MalValue> args_;
  std::vector<MalValue> rets_;
  std::vector<ColumnId> instr_deps_;
};

}  // namespace recycledb

#endif  // RECYCLEDB_INTERP_INTERPRETER_H_
