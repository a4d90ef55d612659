// Concurrency tests for the query service and the shared recycle pool:
// N workers hammering one pool must produce exactly the serial results, keep
// sharing intermediates across sessions (hit rate > 0), survive Clear() and
// ResetStats() mid-flight, and never return stale results when catalog
// updates interleave with query execution.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>

#include "core/concurrent_recycler.h"
#include "core/recycler_optimizer.h"
#include "interp/interpreter.h"
#include "mal/plan_builder.h"
#include "server/query_service.h"
#include "util/rng.h"

namespace recycledb {
namespace {

/// A small two-column database; deterministic for a given seed so a shadow
/// copy built with the same seed is value-identical.
std::unique_ptr<Catalog> MakeDb(uint64_t seed = 6, int rows = 3000) {
  auto cat = std::make_unique<Catalog>();
  cat->CreateTable("t", {{"a", TypeTag::kInt}, {"b", TypeTag::kInt}});
  Rng rng(seed);
  std::vector<int32_t> a(rows), b(rows);
  for (int i = 0; i < rows; ++i) {
    a[i] = static_cast<int32_t>(rng.UniformRange(0, 999));
    b[i] = static_cast<int32_t>(rng.UniformRange(0, 999));
  }
  EXPECT_TRUE(cat->LoadColumn<int32_t>("t", "a", std::move(a)).ok());
  EXPECT_TRUE(cat->LoadColumn<int32_t>("t", "b", std::move(b)).ok());
  return cat;
}

/// sum(b) over rows with a in [A0, A1].
Program BuildSumTemplate() {
  PlanBuilder pb("range_sum");
  int lo = pb.Param("A0");
  int hi = pb.Param("A1");
  int a = pb.Bind("t", "a");
  int sel = pb.Select(a, lo, hi, true, true);
  int cand = pb.Reverse(pb.MarkT(sel, 0));
  int bb = pb.Join(cand, pb.Bind("t", "b"));
  pb.ExportValue(pb.AggrSum(bb), "s");
  Program p = pb.Build();
  MarkForRecycling(&p);
  return p;
}

/// count(*) over rows with a in [A0, A1].
Program BuildCountTemplate() {
  PlanBuilder pb("range_count");
  int lo = pb.Param("A0");
  int hi = pb.Param("A1");
  int a = pb.Bind("t", "a");
  int sel = pb.Select(a, lo, hi, true, true);
  pb.ExportValue(pb.AggrCount(sel), "c");
  Program p = pb.Build();
  MarkForRecycling(&p);
  return p;
}

/// sum(b) over the whole table (parameter-independent: fully recyclable,
/// and fully invalidated by any update of t).
Program BuildTotalTemplate() {
  PlanBuilder pb("total_sum");
  int b = pb.Bind("t", "b");
  pb.ExportValue(pb.AggrSum(b), "s");
  Program p = pb.Build();
  MarkForRecycling(&p);
  return p;
}

/// A repeated workload over a small parameter space, so concurrent sessions
/// keep re-encountering each other's intermediates.
std::vector<QueryRequest> MakeWorkload(const Program* sum_prog,
                                       const Program* count_prog, int n,
                                       uint64_t seed) {
  Rng rng(seed);
  std::vector<QueryRequest> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    int lo = 100 * static_cast<int>(rng.UniformRange(0, 8));
    int hi = lo + 100 + 50 * static_cast<int>(rng.UniformRange(0, 3));
    QueryRequest q;
    q.prog = rng.Bernoulli(0.5) ? sum_prog : count_prog;
    q.params = {Scalar::Int(lo), Scalar::Int(hi)};
    out.push_back(std::move(q));
  }
  return out;
}

const Scalar& ResultScalar(const Result<QueryResult>& r) {
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  const QueryResult& qr = r.value();
  EXPECT_EQ(qr.values.size(), 1u);
  return qr.values[0].second.scalar();
}

TEST(QueryServiceTest, ConcurrentMatchesSerialAndSharesPool) {
  Program sum_prog = BuildSumTemplate();
  Program count_prog = BuildCountTemplate();
  std::vector<QueryRequest> workload =
      MakeWorkload(&sum_prog, &count_prog, 200, 99);

  // Serial ground truth on an identical shadow database, no recycler.
  auto shadow = MakeDb();
  Interpreter serial(shadow.get());
  std::vector<Scalar> expected;
  expected.reserve(workload.size());
  for (const QueryRequest& q : workload) {
    auto r = serial.Run(*q.prog, q.params).ValueOrDie();
    expected.push_back(r.values[0].second.scalar());
  }

  ServiceConfig cfg;
  cfg.num_workers = 4;
  QueryService svc(MakeDb(), cfg);
  std::vector<Result<QueryResult>> results = svc.RunBatch(workload);

  ASSERT_EQ(results.size(), workload.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(ResultScalar(results[i]), expected[i]) << "query " << i;
  }

  RecyclerStats rs = svc.recycler().stats();
  EXPECT_GT(rs.hits, 0u) << "shared pool produced no reuse";
  EXPECT_GT(rs.global_hits, 0u) << "no reuse across invocations";
  ServiceStats ss = svc.SnapshotStats();
  EXPECT_EQ(ss.completed, workload.size());
  EXPECT_EQ(ss.failed, 0u);
  EXPECT_GT(ss.pool_hits, 0u);
}

TEST(QueryServiceTest, SubmitFutureResolvesWithResult) {
  Program total = BuildTotalTemplate();
  QueryService svc(MakeDb(), ServiceConfig{});
  auto f1 = svc.Submit(&total, {});
  auto f2 = svc.Submit(&total, {});
  Scalar s1 = ResultScalar(f1.get());
  Scalar s2 = ResultScalar(f2.get());
  EXPECT_EQ(s1, s2);
}

// A run the interpreter rejects (wrong parameter count) must report its own
// empty statistics: the worker adds last_run() to the service counters after
// every run, so the previous query's figures must not be counted again.
TEST(QueryServiceTest, RejectedRunAddsNoStaleRunStats) {
  Program sum_prog = BuildSumTemplate();
  ServiceConfig cfg;
  cfg.num_workers = 1;  // both runs go through the same interpreter
  QueryService svc(MakeDb(), cfg);
  auto counter = [](const obs::RegistrySnapshot& snap,
                    const std::string& name) {
    const obs::MetricValue* m = snap.Find(name);
    return m == nullptr ? uint64_t{0} : m->value;
  };

  const obs::RegistrySnapshot start = svc.MetricsSnapshot();
  ASSERT_TRUE(
      svc.Submit(&sum_prog, {Scalar::Int(10), Scalar::Int(400)}).get().ok());
  const obs::RegistrySnapshot before = svc.MetricsSnapshot();
  ASSERT_GT(counter(before, "instrs_executed"), 0u);
  const uint64_t good_wall_us = counter(before, "query_wall_us_total") -
                                counter(start, "query_wall_us_total");

  Result<QueryResult> r = svc.Submit(&sum_prog, {Scalar::Int(10)}).get();
  EXPECT_FALSE(r.ok());
  const obs::RegistrySnapshot after = svc.MetricsSnapshot();

  for (const obs::MetricValue& m : after.metrics) {
    if (m.kind != obs::MetricValue::Kind::kCounter) continue;
    const uint64_t delta = m.value - counter(before, m.name);
    if (m.name == "queries_submitted" || m.name == "queries_failed") {
      EXPECT_EQ(delta, 1u) << m.name;
    } else if (m.name == "query_wall_us_total") {
      // The rejected run's own wall time (well under a microsecond, which
      // truncates to 0), never the previous query's again.
      EXPECT_LT(delta, std::max<uint64_t>(good_wall_us, 1)) << m.name;
    } else {
      EXPECT_EQ(delta, 0u) << m.name;
    }
  }
}

TEST(QueryServiceTest, SharedPoolSurvivesClearAndResetMidFlight) {
  Program sum_prog = BuildSumTemplate();
  Program count_prog = BuildCountTemplate();
  std::vector<QueryRequest> workload =
      MakeWorkload(&sum_prog, &count_prog, 300, 17);

  auto shadow = MakeDb();
  Interpreter serial(shadow.get());
  std::vector<Scalar> expected;
  for (const QueryRequest& q : workload) {
    auto r = serial.Run(*q.prog, q.params).ValueOrDie();
    expected.push_back(r.values[0].second.scalar());
  }

  ServiceConfig cfg;
  cfg.num_workers = 4;
  QueryService svc(MakeDb(), cfg);

  // Hammer Clear()/ResetStats() while the batch runs: results must be
  // unaffected (the pool is a cache, never the source of truth).
  std::atomic<bool> done{false};
  std::thread clearer([&] {
    while (!done.load()) {
      svc.recycler().Clear();
      svc.recycler().ResetStats();
      std::this_thread::yield();
    }
  });
  std::vector<Result<QueryResult>> results = svc.RunBatch(workload);
  done.store(true);
  clearer.join();

  ASSERT_EQ(results.size(), workload.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(ResultScalar(results[i]), expected[i]) << "query " << i;
  }
}

TEST(QueryServiceTest, UpdatesInterleavedWithQueriesNeverStale) {
  Program total = BuildTotalTemplate();
  const int kCommits = 20;
  const int kRowsPerCommit = 5;

  // Precompute the only sums a query may legally observe: the state after
  // each commit. Any other value means a query saw a half-applied commit or
  // a stale (non-invalidated) pool entry.
  auto db = MakeDb();
  Interpreter probe(db.get());
  std::vector<int64_t> valid;
  valid.push_back(
      probe.Run(total, {}).ValueOrDie().values[0].second.scalar().AsLng());
  // Deterministic rows per commit; replayed identically below.
  auto rows_for = [](int commit) {
    std::vector<std::vector<Scalar>> rows;
    for (int r = 0; r < kRowsPerCommit; ++r) {
      rows.push_back({Scalar::Int(commit), Scalar::Int(1000 * commit + r)});
    }
    return rows;
  };
  for (int c = 1; c <= kCommits; ++c) {
    int64_t delta = 0;
    for (int r = 0; r < kRowsPerCommit; ++r) delta += 1000 * c + r;
    valid.push_back(valid.back() + delta);
  }

  ServiceConfig cfg;
  cfg.num_workers = 4;
  QueryService svc(MakeDb(), cfg);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  std::atomic<int> bad{0};
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto r = svc.Submit(&total, {}).get();
        if (!r.ok()) {
          ++bad;
          continue;
        }
        int64_t s = r.value().values[0].second.scalar().AsLng();
        if (std::find(valid.begin(), valid.end(), s) == valid.end()) ++bad;
      }
    });
  }

  for (int c = 1; c <= kCommits; ++c) {
    Status st = svc.ApplyUpdate([&](Catalog* cat) {
      TxnWriteSet ws = cat->BeginWrite();
      RDB_RETURN_NOT_OK(cat->Append(&ws, "t", rows_for(c)));
      return cat->CommitWrite(&ws);
    });
    ASSERT_TRUE(st.ok()) << st.ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_EQ(bad.load(), 0) << "a query observed a stale or torn result";

  // After all commits, a fresh query must see the final state.
  auto last = svc.Submit(&total, {}).get();
  EXPECT_EQ(last.value().values[0].second.scalar().AsLng(), valid.back());

  RecyclerStats rs = svc.recycler().stats();
  EXPECT_GT(rs.invalidated, 0u) << "commits never invalidated pool entries";
  EXPECT_GT(rs.hits, 0u);
}

TEST(ConcurrentRecyclerTest, EpochProtectionTracksOldestActiveQuery) {
  Recycler rec;
  EXPECT_EQ(rec.ProtectedEpoch(), UINT64_MAX) << "idle pool: nothing protected";
  PlanBuilder pb("p");
  pb.ExportValue(pb.ConstInt(1), "x");
  Program prog = pb.Build();
  QueryCtx q1 = rec.BeginQueryCtx(prog);
  QueryCtx q2 = rec.BeginQueryCtx(prog);
  EXPECT_EQ(rec.ProtectedEpoch(), q1.query_id);
  rec.EndQueryCtx(q1);
  EXPECT_EQ(rec.ProtectedEpoch(), q2.query_id);
  rec.EndQueryCtx(q2);
  EXPECT_EQ(rec.ProtectedEpoch(), UINT64_MAX);
}

TEST(ConcurrentRecyclerTest, BoundedPoolUnderConcurrencyStaysConsistent) {
  // A tiny bounded pool forces constant admission/eviction churn from all
  // workers; the service must still produce exact results.
  Program sum_prog = BuildSumTemplate();
  Program count_prog = BuildCountTemplate();
  std::vector<QueryRequest> workload =
      MakeWorkload(&sum_prog, &count_prog, 200, 23);

  auto shadow = MakeDb();
  Interpreter serial(shadow.get());
  std::vector<Scalar> expected;
  for (const QueryRequest& q : workload) {
    auto r = serial.Run(*q.prog, q.params).ValueOrDie();
    expected.push_back(r.values[0].second.scalar());
  }

  ServiceConfig cfg;
  cfg.num_workers = 4;
  cfg.recycler.max_entries = 8;
  cfg.recycler.eviction = EvictionKind::kBenefit;
  QueryService svc(MakeDb(), cfg);
  std::vector<Result<QueryResult>> results = svc.RunBatch(workload);

  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(ResultScalar(results[i]), expected[i]) << "query " << i;
  }
  EXPECT_LE(svc.recycler().pool_entries(), 8u);
}

/// Tables t(a) and u(b) of equal length, so a positional join carries rows
/// of t over to u.
std::unique_ptr<Catalog> MakeTwoTableDb(int rows = 3000) {
  auto cat = std::make_unique<Catalog>();
  cat->CreateTable("t", {{"a", TypeTag::kInt}});
  cat->CreateTable("u", {{"b", TypeTag::kInt}});
  Rng rng(17);
  std::vector<int32_t> a(rows), b(rows);
  for (int i = 0; i < rows; ++i) {
    a[i] = static_cast<int32_t>(rng.UniformRange(0, 999));
    b[i] = static_cast<int32_t>(rng.UniformRange(0, 999));
  }
  EXPECT_TRUE(cat->LoadColumn<int32_t>("t", "a", std::move(a)).ok());
  EXPECT_TRUE(cat->LoadColumn<int32_t>("u", "b", std::move(b)).ok());
  return cat;
}

/// sum(u.b) over the rows whose t.a is in [A0, A1]: the selection and its
/// candidate list depend on t.a only, the join and the sum on t.a and u.b.
Program BuildTwoTableTemplate() {
  PlanBuilder pb("two_table_sum");
  int lo = pb.Param("A0");
  int hi = pb.Param("A1");
  int sel = pb.Select(pb.Bind("t", "a"), lo, hi, true, true);
  int cand = pb.Reverse(pb.MarkT(sel, 0));
  int joined = pb.Join(cand, pb.Bind("u", "b"));
  pb.ExportValue(pb.AggrSum(joined), "s");
  Program p = pb.Build();
  MarkForRecycling(&p);
  return p;
}

/// An entry's source instruction with its dependency set and validity
/// floor: what must not depend on whether the interpreter recomputed the
/// dependencies or took them from an exact hit.
std::string DepsSignature(const PoolEntry& e) {
  std::string out = std::to_string(e.source_pc) + " " + OpcodeName(e.op) +
                    " valid_from=" + std::to_string(e.valid_from) + " deps=";
  for (const ColumnId& d : e.deps)
    out += std::to_string(d.table) + "." + std::to_string(d.col) + ",";
  return out;
}

std::set<std::string> DepsSignatures(const Recycler& rec) {
  std::set<std::string> out;
  for (const PoolEntry* e : rec.pool().Entries())
    out.insert(DepsSignature(*e));
  return out;
}

std::set<std::string> DepsSignatures(const ConcurrentRecycler& rec) {
  std::vector<std::string> all = rec.ContentSignature(&DepsSignature);
  return std::set<std::string>(all.begin(), all.end());
}

// Exact hits hand the pool entry's dependency set to the interpreter instead
// of recomputing it. After a commit to one column, a re-run whose upstream
// instructions hit and whose downstream ones miss must admit entries with
// the deps and valid_from that cold recyclers compute over the same snapshot
// — one fresh recycler per statement, so every dependency set there is
// computed, none taken from a hit — and answer exactly like a recycler-free
// interpreter. Covered for both exact-hit paths: a Session of the striped
// pool and a standalone Recycler.
TEST(ConcurrentRecyclerTest, ExactHitDepsMatchColdAdmission) {
  auto cat = MakeTwoTableDb();
  const Program prog = BuildTwoTableTemplate();
  const std::vector<std::vector<Scalar>> stream = {
      {Scalar::Int(0), Scalar::Int(99)},
      {Scalar::Int(100), Scalar::Int(399)},
      {Scalar::Int(0), Scalar::Int(99)},
      {Scalar::Int(500), Scalar::Int(999)},
      {Scalar::Int(100), Scalar::Int(399)},
  };

  ConcurrentRecycler warm;
  Recycler warm_single;
  std::vector<ColumnId> committed;
  uint64_t committed_epoch = 0;
  cat->SetUpdateListener(
      [&](const std::vector<ColumnId>& cols, Catalog::UpdateKind) {
        committed = cols;
        committed_epoch = cat->epoch() + 1;
        warm.OnCatalogUpdate(cols, committed_epoch);
        warm_single.OnCatalogUpdate(cols, committed_epoch);
      });
  auto warm_session = warm.NewSession();

  // Runs `params` at the current snapshot through `hook`, checking the
  // answer against a recycler-free interpreter at the same snapshot.
  auto run = [&](RecyclerHook* hook, ConcurrentRecycler::Session* session,
                 const std::vector<Scalar>& params) {
    CatalogSnapshotPtr snap = cat->Snapshot();
    Interpreter interp(cat.get(), hook);
    Interpreter plain(cat.get());
    interp.set_snapshot(snap.get());
    plain.set_snapshot(snap.get());
    if (session != nullptr) session->set_epoch(snap->epoch());
    Result<QueryResult> got = interp.Run(prog, params);
    Result<QueryResult> want = plain.Run(prog, params);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(ResultScalar(got), ResultScalar(want));
  };

  for (const std::vector<Scalar>& params : stream) {
    run(warm_session.get(), warm_session.get(), params);
    run(&warm_single, nullptr, params);
  }

  // Commit to u.b only: entries over u.b go, those over t.a alone stay.
  TxnWriteSet ws = cat->BeginWrite();
  ASSERT_TRUE(cat->Append(&ws, "u", {{Scalar::Int(5)}}).ok());
  ASSERT_TRUE(cat->CommitWrite(&ws).ok());
  ASSERT_GT(committed_epoch, 0u);

  const RecyclerStats warm_before = warm.stats();
  const RecyclerStats single_before = warm_single.stats();
  std::set<std::string> cold;
  for (const std::vector<Scalar>& params : stream) {
    run(warm_session.get(), warm_session.get(), params);
    run(&warm_single, nullptr, params);
    // Fresh recyclers that have seen the same commit stamp.
    ConcurrentRecycler fresh;
    fresh.OnCatalogUpdate(committed, committed_epoch);
    auto fresh_session = fresh.NewSession();
    run(fresh_session.get(), fresh_session.get(), params);
    Recycler fresh_single;
    fresh_single.OnCatalogUpdate(committed, committed_epoch);
    run(&fresh_single, nullptr, params);
    EXPECT_EQ(DepsSignatures(fresh), DepsSignatures(fresh_single));
    for (const std::string& sig : DepsSignatures(fresh)) cold.insert(sig);
  }

  // The re-runs mixed upstream exact hits with downstream admissions.
  EXPECT_GT(warm.stats().exact_hits, warm_before.exact_hits);
  EXPECT_GT(warm.stats().admitted, warm_before.admitted);
  EXPECT_GT(warm_single.stats().exact_hits, single_before.exact_hits);
  EXPECT_GT(warm_single.stats().admitted, single_before.admitted);

  EXPECT_EQ(DepsSignatures(warm), cold);
  EXPECT_EQ(DepsSignatures(warm_single), cold);
  // The join and sum entries were admitted after the commit.
  EXPECT_TRUE(std::any_of(cold.begin(), cold.end(), [](const std::string& s) {
    return s.find("valid_from=0 ") == std::string::npos;
  }));
  cat->SetUpdateListener(nullptr);
}

}  // namespace
}  // namespace recycledb
