// Heap-allocation and retention gate of the recycler's exact-hit path.
//
// Linked with the counting operator new of alloc_counter.cc, so it is built
// apart from recycledb_tests. Two properties are pinned with exact counts
// rather than timings:
//  - a warm run whose monitored instructions all hit the pool makes the same
//    number of heap allocations whether the template has 3 or 6 monitored
//    instructions, i.e. none per instruction;
//  - once Run() returns, successfully or not, the interpreter holds no
//    reference to any pool result.

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/concurrent_recycler.h"
#include "core/recycler.h"
#include "core/recycler_optimizer.h"
#include "interp/interpreter.h"
#include "mal/plan_builder.h"
#include "tests/alloc/alloc_counter.h"

namespace recycledb {
namespace {

using alloc_test::AllocCount;

std::unique_ptr<Catalog> MakeDb() {
  auto cat = std::make_unique<Catalog>();
  cat->CreateTable("t", {{"v", TypeTag::kInt}, {"w", TypeTag::kInt}});
  std::vector<int32_t> v(2000), w(2000);
  for (int i = 0; i < 2000; ++i) {
    v[i] = i % 500;
    w[i] = (i * 7) % 500;
  }
  EXPECT_TRUE(cat->LoadColumn<int32_t>("t", "v", std::move(v)).ok());
  EXPECT_TRUE(cat->LoadColumn<int32_t>("t", "w", std::move(w)).ok());
  return cat;
}

/// count(v in [A0, A1]): 3 monitored instructions (bind, select, count) and
/// one export. Every string constant fits the small-string buffer, so the
/// argument copies allocate nothing either.
Program ShortTemplate() {
  PlanBuilder b("short");
  int lo = b.Param("A0");
  int hi = b.Param("A1");
  b.ExportValue(b.AggrCount(b.Select(b.Bind("t", "v"), lo, hi)), "n");
  Program p = b.Build();
  MarkForRecycling(&p);
  return p;
}

/// The same over both columns: 6 monitored instructions, still one export.
Program LongTemplate() {
  PlanBuilder b("long");
  int lo = b.Param("A0");
  int hi = b.Param("A1");
  b.AggrCount(b.Select(b.Bind("t", "v"), lo, hi));
  b.ExportValue(b.AggrCount(b.Select(b.Bind("t", "w"), lo, hi)), "n");
  Program p = b.Build();
  MarkForRecycling(&p);
  return p;
}

/// A template that hits three times and then fails: the column is unknown.
Program FailingTemplate() {
  PlanBuilder b("failing");
  int lo = b.Param("A0");
  int hi = b.Param("A1");
  b.AggrCount(b.Select(b.Bind("t", "v"), lo, hi));
  b.ExportValue(b.AggrCount(b.Bind("t", "missing")), "n");
  Program p = b.Build();
  MarkForRecycling(&p);
  return p;
}

const std::vector<Scalar> kParams{Scalar::Int(10), Scalar::Int(200)};

/// Heap allocations made by one Run(), result destruction included. The run
/// must be answered entirely from the pool.
uint64_t AllocsOfHitRun(Interpreter* interp, const Program& prog) {
  const uint64_t before = AllocCount();
  {
    Result<QueryResult> r = interp->Run(prog, kParams);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
  const uint64_t n = AllocCount() - before;
  EXPECT_EQ(interp->last_run().pool_hits, interp->last_run().monitored);
  return n;
}

void ExpectNoPerInstructionAllocations(Interpreter* interp) {
  const Program short_prog = ShortTemplate();
  const Program long_prog = LongTemplate();
  ASSERT_EQ(short_prog.MonitoredCount() * 2, long_prog.MonitoredCount());
  // Admit, then warm the interpreter's buffers on both shapes.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(interp->Run(short_prog, kParams).ok());
    ASSERT_TRUE(interp->Run(long_prog, kParams).ok());
  }
  const uint64_t short_allocs = AllocsOfHitRun(interp, short_prog);
  const uint64_t long_allocs = AllocsOfHitRun(interp, long_prog);
  EXPECT_EQ(short_allocs, long_allocs)
      << "a warm exact-hit instruction allocated on the heap";
}

TEST(HitPathAllocTest, StandaloneRecyclerAllocatesNothingPerInstruction) {
  auto cat = MakeDb();
  Recycler rec;
  Interpreter interp(cat.get(), &rec);
  ExpectNoPerInstructionAllocations(&interp);
}

TEST(HitPathAllocTest, SessionAllocatesNothingPerInstruction) {
  // The query service's path: a striped pool reached through a Session,
  // reads pinned to a catalog snapshot.
  auto cat = MakeDb();
  ConcurrentRecycler rec;
  auto session = rec.NewSession();
  CatalogSnapshotPtr snap = cat->Snapshot();
  Interpreter interp(cat.get(), session.get());
  interp.set_snapshot(snap.get());
  session->set_epoch(snap->epoch());
  ExpectNoPerInstructionAllocations(&interp);
}

/// use_count of every bat result in the pool, keyed by bat id.
std::map<uint64_t, long> ResultUseCounts(const Recycler& rec) {
  std::map<uint64_t, long> out;
  for (const PoolEntry* e : rec.pool().Entries()) {
    for (const MalValue& v : e->results) {
      if (v.is_bat()) out[v.bat()->id()] = v.bat().use_count();
    }
  }
  return out;
}

TEST(HitPathAllocTest, RunKeepsNoPoolReferences) {
  auto cat = MakeDb();
  Recycler rec;
  auto interp = std::make_unique<Interpreter>(cat.get(), &rec);
  const Program long_prog = LongTemplate();
  const Program failing = FailingTemplate();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(interp->Run(long_prog, kParams).ok());
  }
  const std::map<uint64_t, long> after_ok = ResultUseCounts(rec);
  ASSERT_FALSE(after_ok.empty());
  // Hits, then an error return mid-template (nothing new is admitted).
  EXPECT_FALSE(interp->Run(failing, kParams).ok());
  EXPECT_GT(interp->last_run().pool_hits, 0);
  const std::map<uint64_t, long> after_error = ResultUseCounts(rec);

  // Whatever the interpreter still held is released here.
  interp.reset();
  const std::map<uint64_t, long> released = ResultUseCounts(rec);
  EXPECT_EQ(after_ok, released)
      << "a successful Run() left pool results referenced by the interpreter";
  EXPECT_EQ(after_error, released)
      << "a failed Run() left pool results referenced by the interpreter";
}

}  // namespace
}  // namespace recycledb
