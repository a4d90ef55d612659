// Micro-benchmarks for the §3.3 claim that run-time matching adds
// negligible overhead (< 1 microsecond per interpreted instruction in the
// paper's setting), for the SQL front end that runs before every statement,
// and for the vectorised kernels. Uses google-benchmark.

#include <benchmark/benchmark.h>

#include "bat/hash_index.h"
#include "bench/bench_common.h"
#include "bench/sql_patterns.h"
#include "core/concurrent_recycler.h"
#include "core/recycler_optimizer.h"
#include "engine/operators.h"
#include "engine/scalar_ref.h"
#include "engine/vec/hashprobe.h"
#include "mal/plan_builder.h"
#include "obs/trace.h"
#include "server/plan_cache.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "util/check.h"
#include "util/date.h"

namespace {

using namespace recycledb;        // NOLINT
using namespace recycledb::bench; // NOLINT

std::unique_ptr<Catalog> MicroDb() {
  auto cat = std::make_unique<Catalog>();
  cat->CreateTable("t", {{"k", TypeTag::kOid}, {"v", TypeTag::kInt}});
  std::vector<Oid> keys(10000);
  std::vector<int32_t> vals(10000);
  Rng rng(3);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = i;
    vals[i] = static_cast<int32_t>(rng.UniformRange(0, 1000));
  }
  RDB_CHECK(cat->LoadColumn<Oid>("t", "k", std::move(keys), true, true).ok());
  RDB_CHECK(cat->LoadColumn<int32_t>("t", "v", std::move(vals)).ok());
  return cat;
}

Program MicroTemplate() {
  PlanBuilder b("micro");
  int lo = b.Param("A0");
  int hi = b.Param("A1");
  int v = b.Bind("t", "v");
  int sel = b.Select(v, lo, hi, true, true);
  int cnt = b.AggrCount(sel);
  b.ExportValue(cnt, "n");
  Program p = b.Build();
  MarkForRecycling(&p);
  return p;
}

/// Warm-pool exact-match lookups: the recycleEntry() fast path.
void BM_MatchHit(benchmark::State& state) {
  auto cat = MicroDb();
  Recycler rec;
  Interpreter interp(cat.get(), &rec);
  Program p = MicroTemplate();
  std::vector<Scalar> params{Scalar::Int(10), Scalar::Int(500)};
  MustRun(&interp, p, params);  // fill the pool
  double match0 = rec.stats().match_ms;
  uint64_t mon0 = rec.stats().monitored;
  for (auto _ : state) {
    MustRun(&interp, p, params);
  }
  double per_instr_us = (rec.stats().match_ms - match0) * 1000.0 /
                        static_cast<double>(rec.stats().monitored - mon0);
  state.counters["match_us_per_instr"] = per_instr_us;
}
BENCHMARK(BM_MatchHit);

/// A template whose 16 monitored instructions all hit once warm: two binds
/// and seven select/count pairs, the first range from the params and the
/// rest from constant lower bounds.
Program WideHitTemplate() {
  PlanBuilder b("micro_wide");
  int lo = b.Param("A0");
  int hi = b.Param("A1");
  int v = b.Bind("t", "v");
  b.Bind("t", "k");
  int cnt = -1;
  for (int i = 0; i < 7; ++i) {
    cnt = b.AggrCount(b.Select(v, lo, hi, true, i % 2 == 0));
    lo = b.ConstInt(i * 11);
  }
  b.ExportValue(cnt, "n");
  Program p = b.Build();
  MarkForRecycling(&p);
  return p;
}

/// Warm exact hits through ConcurrentRecycler::Session, the path the query
/// service's workers take: default 16 stripes, stripe chosen from the probe
/// key, shared-lock probe. range(0) other instances of the template are
/// admitted first so the probe searches a populated pool. ns_per_instr is
/// the run's wall time over its monitored instructions — dispatch plus
/// probe per instruction, with the per-run overhead spread over 16.
void BM_SessionMatchHit(benchmark::State& state) {
  auto cat = MicroDb();
  ConcurrentRecycler rec(RecyclerConfig{});
  auto session = rec.NewSession();
  Interpreter interp(cat.get(), session.get());
  Program p = WideHitTemplate();
  for (int64_t i = 0; i < state.range(0); ++i) {
    // Empty ranges (hi below every lower bound): distinct keys, tiny results.
    MustRun(&interp, p,
            {Scalar::Int(0), Scalar::Int(static_cast<int32_t>(-1 - i))});
  }
  std::vector<Scalar> params{Scalar::Int(10), Scalar::Int(500)};
  MustRun(&interp, p, params);  // admit the timed instance
  MustRun(&interp, p, params);  // and warm the interpreter's buffers
  const uint64_t hits0 = rec.stats().exact_hits;
  const int monitored = interp.last_run().monitored;
  StopWatch sw;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MustRun(&interp, p, params));
  }
  const double ns = static_cast<double>(sw.ElapsedNanos());
  RDB_CHECK(rec.stats().exact_hits - hits0 ==
            static_cast<uint64_t>(state.iterations()) * monitored);
  state.counters["ns_per_instr"] =
      ns / (static_cast<double>(state.iterations()) * monitored);
}
BENCHMARK(BM_SessionMatchHit)->Arg(0)->Arg(1024);

/// Match misses with admission: recycleEntry + recycleExit slow path.
void BM_MatchMissAndAdmit(benchmark::State& state) {
  auto cat = MicroDb();
  Recycler rec;
  Interpreter interp(cat.get(), &rec);
  Program p = MicroTemplate();
  int i = 0;
  for (auto _ : state) {
    // Distinct ranges: never hits, always admits.
    std::vector<Scalar> params{Scalar::Int(i % 400), Scalar::Int(i % 400 + 7)};
    MustRun(&interp, p, params);
    ++i;
  }
  state.counters["pool_entries"] =
      static_cast<double>(rec.pool().num_entries());
}
BENCHMARK(BM_MatchMissAndAdmit);

/// Baseline: the interpreter without any recycler attached.
void BM_NoRecycler(benchmark::State& state) {
  auto cat = MicroDb();
  Interpreter interp(cat.get());
  Program p = MicroTemplate();
  std::vector<Scalar> params{Scalar::Int(10), Scalar::Int(500)};
  for (auto _ : state) {
    MustRun(&interp, p, params);
  }
}
BENCHMARK(BM_NoRecycler);

/// Tracing ablation at the ConcurrentRecycler::Session level, on the
/// warm-hit fast path — the case the trace branch must not slow down.
/// `sample_n` = 0 runs untraced (one null-pointer branch per monitored
/// instruction), 64 attaches a trace to every 64th run, 1 to every run.
/// BM_SessionTrace/0 vs /1 is the per-hit cost of decision capture;
/// /0 vs BM_MatchHit is the striping overhead, tracing aside.
void BM_SessionTrace(benchmark::State& state) {
  const int sample_n = static_cast<int>(state.range(0));
  auto cat = MicroDb();
  ConcurrentRecycler rec(RecyclerConfig{});
  auto session = rec.NewSession();
  Interpreter interp(cat.get(), session.get());
  Program p = MicroTemplate();
  std::vector<Scalar> params{Scalar::Int(10), Scalar::Int(500)};
  MustRun(&interp, p, params);  // fill the pool
  int i = 0;
  for (auto _ : state) {
    std::unique_ptr<obs::QueryTrace> trace;
    if (sample_n > 0 && i % sample_n == 0) {
      trace = std::make_unique<obs::QueryTrace>("micro", sample_n > 1);
      session->set_trace(trace.get());
    }
    MustRun(&interp, p, params);
    if (trace != nullptr) session->set_trace(nullptr);
    ++i;
  }
  state.counters["hits"] = static_cast<double>(rec.stats().hits);
}
BENCHMARK(BM_SessionTrace)->Arg(0)->Arg(64)->Arg(1);

// ---------------------------------------------------------------------------
// SQL front end: the per-statement path in front of the interpreter,
// over the six rdbbench SELECT patterns. Each row reports ns_per_stmt:
//  - lex: sql::Lex;
//  - parse: sql::ParseStatement (lexing included);
//  - fingerprint: sql::Fingerprint of a parsed statement;
//  - plan_hit: Fingerprint + PlanCache::Lookup (a hit) + sql::BindLiterals,
//    what the service runs between parsing and enqueueing a cached plan.
// ---------------------------------------------------------------------------

enum class FrontEndStage { kLex, kParse, kFingerprint, kPlanHit };

void BM_SqlFrontEnd(benchmark::State& state, FrontEndStage stage) {
  std::vector<std::string> texts(std::begin(kRdbbenchPatterns),
                                 std::end(kRdbbenchPatterns));
  std::vector<sql::SelectStmt> stmts;
  PlanCache cache;
  if (stage == FrontEndStage::kFingerprint ||
      stage == FrontEndStage::kPlanHit) {
    auto cat = MakeTpchDb(0.001);
    for (const std::string& text : texts) {
      auto q = sql::CompileSql(cat.get(), text);
      RDB_CHECK(q.ok());
      PlanCache::Entry e;
      e.prog = std::make_shared<const Program>(std::move(q.value().plan.prog));
      e.param_types = std::move(q.value().plan.param_types);
      cache.Insert(q.value().fingerprint, std::move(e));
      stmts.push_back(std::move(sql::ParseSelect(text).value()));
    }
  }
  StopWatch sw;
  for (auto _ : state) {
    for (size_t i = 0; i < texts.size(); ++i) {
      switch (stage) {
        case FrontEndStage::kLex:
          benchmark::DoNotOptimize(sql::Lex(texts[i]));
          break;
        case FrontEndStage::kParse:
          benchmark::DoNotOptimize(sql::ParseStatement(texts[i]));
          break;
        case FrontEndStage::kFingerprint:
          benchmark::DoNotOptimize(sql::Fingerprint(stmts[i]));
          break;
        case FrontEndStage::kPlanHit: {
          PlanCache::EntryPtr entry = cache.Lookup(sql::Fingerprint(stmts[i]));
          RDB_CHECK(entry != nullptr);
          benchmark::DoNotOptimize(
              sql::BindLiterals(stmts[i], entry->param_types));
          break;
        }
      }
    }
  }
  const double ns = static_cast<double>(sw.ElapsedNanos());
  state.counters["ns_per_stmt"] =
      ns / (static_cast<double>(state.iterations()) * texts.size());
}
BENCHMARK_CAPTURE(BM_SqlFrontEnd, lex, FrontEndStage::kLex);
BENCHMARK_CAPTURE(BM_SqlFrontEnd, parse, FrontEndStage::kParse);
BENCHMARK_CAPTURE(BM_SqlFrontEnd, fingerprint, FrontEndStage::kFingerprint);
BENCHMARK_CAPTURE(BM_SqlFrontEnd, plan_hit, FrontEndStage::kPlanHit);

// ---------------------------------------------------------------------------
// Vectorised kernels against the retained scalar reference loops
// (engine/scalar_ref.h), on the same scalar-adverse shapes the
// bench_concurrent_throughput kernel_* phases gate: random unsorted data
// (branches mispredict), nils in-band. Run with --benchmark_filter=Kernel
// to compare the pairs; the gated ratio lives in the throughput bench.
// ---------------------------------------------------------------------------

BatPtr KernelSelectInput() {
  const size_t n = 1u << 18;
  Rng rng(11001);
  std::vector<int32_t> vals(n);
  for (size_t i = 0; i < n; ++i) {
    vals[i] = rng.Uniform(64) == 0 ? NilOf<int32_t>()
                                   : static_cast<int32_t>(rng.Uniform(1000));
  }
  return Bat::DenseHead(Column::Make<int32_t>(TypeTag::kInt, std::move(vals)));
}

void BM_KernelSelectVec(benchmark::State& state) {
  BatPtr b = KernelSelectInput();
  for (auto _ : state) {
    auto r = engine::Select(b, Scalar::Int(100), Scalar::Int(299), true, true);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_KernelSelectVec);

void BM_KernelSelectScalar(benchmark::State& state) {
  BatPtr b = KernelSelectInput();
  for (auto _ : state) {
    auto r = engine::scalar_ref::ScanRangeSelect(b, Scalar::Int(100),
                                                 Scalar::Int(299), true, true);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_KernelSelectScalar);

struct KernelProbeInput {
  std::vector<int64_t> rkeys;
  std::vector<int64_t> probes;
};

KernelProbeInput MakeKernelProbeInput() {
  KernelProbeInput in;
  const size_t rn = 1u << 16;
  const size_t ln = 1u << 18;
  Rng rng(11002);
  in.rkeys.resize(rn);
  for (size_t i = 0; i < rn; ++i) in.rkeys[i] = static_cast<int64_t>(i);
  for (size_t i = rn - 1; i > 0; --i) {
    std::swap(in.rkeys[i], in.rkeys[rng.Uniform(i + 1)]);
  }
  in.probes.resize(ln);
  for (size_t i = 0; i < ln; ++i) {
    in.probes[i] = static_cast<int64_t>(rng.Uniform(4 * rn));
  }
  return in;
}

void BM_KernelJoinProbeVec(benchmark::State& state) {
  KernelProbeInput in = MakeKernelProbeInput();
  HashIndexT<int64_t> index(in.rkeys.data(), in.rkeys.size());
  std::vector<uint32_t> sel(in.probes.size()), pos(in.probes.size());
  for (auto _ : state) {
    size_t o = engine::vec::BatchProbeUnique(
        index, in.probes.data(), in.probes.size(), sel.data(), pos.data());
    benchmark::DoNotOptimize(o);
  }
}
BENCHMARK(BM_KernelJoinProbeVec);

void BM_KernelJoinProbeScalar(benchmark::State& state) {
  KernelProbeInput in = MakeKernelProbeInput();
  HashIndexT<int64_t> index(in.rkeys.data(), in.rkeys.size());
  std::vector<uint32_t> sel, pos;
  for (auto _ : state) {
    sel.clear();
    pos.clear();
    for (size_t i = 0; i < in.probes.size(); ++i) {
      index.ForEachMatch(in.probes[i], [&](uint32_t p) {
        sel.push_back(static_cast<uint32_t>(i));
        pos.push_back(p);
      });
    }
    benchmark::DoNotOptimize(sel.data());
  }
}
BENCHMARK(BM_KernelJoinProbeScalar);

struct KernelGroupInput {
  BatPtr vals;
  BatPtr map;
};

KernelGroupInput MakeKernelGroupInput() {
  const size_t n = 1u << 18;
  const size_t ngroups = 64;
  Rng rng(11003);
  std::vector<int64_t> vals(n);
  std::vector<Oid> gids(n);
  for (size_t i = 0; i < n; ++i) {
    vals[i] = rng.Uniform(10) < 3 ? NilOf<int64_t>()
                                  : static_cast<int64_t>(rng.Uniform(1000));
    gids[i] = rng.Uniform(ngroups);
  }
  KernelGroupInput in;
  in.vals =
      Bat::DenseHead(Column::Make<int64_t>(TypeTag::kLng, std::move(vals)));
  in.map = Bat::DenseHead(Column::Make<Oid>(TypeTag::kOid, std::move(gids)));
  return in;
}

void BM_KernelGroupAggVec(benchmark::State& state) {
  KernelGroupInput in = MakeKernelGroupInput();
  for (auto _ : state) {
    auto r = engine::GroupedAggr(engine::AggFn::kSum, in.vals, in.map, 64);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_KernelGroupAggVec);

void BM_KernelGroupAggScalar(benchmark::State& state) {
  KernelGroupInput in = MakeKernelGroupInput();
  for (auto _ : state) {
    auto r = engine::scalar_ref::GroupedAggr(engine::AggFn::kSum, in.vals,
                                             in.map, 64);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_KernelGroupAggScalar);

// ---------------------------------------------------------------------------
// The kernels an adhoc (pool-missing) TPC-H plan spends its time in, at the
// shapes the SQL planner gives them: SF 0.05 lineitem, candidates = the rows
// of one l_shipdate year (~46k of ~300k) as [dense -> row oid]. Each reports
// ns_per_row over the candidate rows.
// ---------------------------------------------------------------------------

struct KernelPlanInput {
  std::unique_ptr<Catalog> cat;
  BatPtr cand;  ///< reverse(markT(select(l_shipdate, 1994))): [dense -> row]
};

/// The candidates over the encoded catalog tpch::LoadTpch builds, or over
/// a raw copy of it (`encoded` false).
const KernelPlanInput& PlanInput(bool encoded = true) {
  auto make = [](bool enc) {
    auto* p = new KernelPlanInput;
    p->cat = enc ? MakeTpchDb(0.05) : MakeRawTpchDb(0.05);
    BatPtr ship = p->cat->BindColumn("lineitem", "l_shipdate").value();
    BatPtr sel = engine::Select(ship, Scalar::DateVal(DateFromYmd(1994, 1, 1)),
                                Scalar::DateVal(DateFromYmd(1995, 1, 1)), true,
                                false)
                     .value();
    p->cand = engine::Reverse(engine::MarkT(sel, 0));
    return p;
  };
  if (encoded) {
    static const KernelPlanInput* in = make(true);
    return *in;
  }
  static const KernelPlanInput* raw = make(false);
  return *raw;
}

/// [dense -> value] of lineitem column `col` over the candidates.
BatPtr PlanFetch(const char* col, bool encoded = true) {
  const KernelPlanInput& in = PlanInput(encoded);
  return engine::Join(in.cand, in.cat->BindColumn("lineitem", col).value())
      .value();
}

void SetNsPerRow(benchmark::State& state, size_t rows) {
  state.counters["ns_per_row"] = benchmark::Counter(
      static_cast<double>(rows),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

/// join(cand, column): the column fetch behind every projection and
/// predicate after the first.
void BM_KernelProjectionJoin(benchmark::State& state, const char* col) {
  const KernelPlanInput& in = PlanInput();
  BatPtr column = in.cat->BindColumn("lineitem", col).value();
  for (auto _ : state) {
    auto r = engine::Join(in.cand, column);
    benchmark::DoNotOptimize(r);
  }
  SetNsPerRow(state, in.cand->size());
}
BENCHMARK_CAPTURE(BM_KernelProjectionJoin, dbl, "l_extendedprice");
BENCHMARK_CAPTURE(BM_KernelProjectionJoin, int, "l_quantity");
BENCHMARK_CAPTURE(BM_KernelProjectionJoin, date, "l_commitdate");
BENCHMARK_CAPTURE(BM_KernelProjectionJoin, oid, "l_orderkey");
BENCHMARK_CAPTURE(BM_KernelProjectionJoin, str, "l_shipmode");

/// semijoin(cand, select(join(cand, l_discount), 0.05, 0.07)): the
/// candidate refinement of a conjunctive WHERE.
void BM_KernelDenseSemijoin(benchmark::State& state) {
  const KernelPlanInput& in = PlanInput();
  BatPtr sel = engine::Select(PlanFetch("l_discount"), Scalar::Dbl(0.05),
                              Scalar::Dbl(0.07), true, true)
                   .value();
  for (auto _ : state) {
    auto r = engine::Semijoin(in.cand, sel);
    benchmark::DoNotOptimize(r);
  }
  SetNsPerRow(state, in.cand->size());
}
BENCHMARK(BM_KernelDenseSemijoin);

/// group.new over a fetched key column: few groups (str) and one group per
/// order (oid), over the codes of the encoded catalog (dict: u8 dictionary
/// codes, for: u32 FOR codes) and over raw values.
void BM_KernelGroupBy(benchmark::State& state, const char* col, bool encoded) {
  BatPtr keys = PlanFetch(col, encoded);
  for (auto _ : state) {
    auto r = engine::GroupBy(keys);
    benchmark::DoNotOptimize(r);
  }
  SetNsPerRow(state, keys->size());
}
BENCHMARK_CAPTURE(BM_KernelGroupBy, str_dict, "l_shipmode", true);
BENCHMARK_CAPTURE(BM_KernelGroupBy, str_raw, "l_shipmode", false);
BENCHMARK_CAPTURE(BM_KernelGroupBy, oid_for, "l_orderkey", true);
BENCHMARK_CAPTURE(BM_KernelGroupBy, oid_raw, "l_orderkey", false);

/// Catalog::BuildEncodings over every table of a raw SF 0.05 TPC-H copy:
/// the load-time encode pass that tpch::LoadTpch ends with.
void BM_BuildEncodings(benchmark::State& state) {
  size_t encoded = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::unique_ptr<Catalog> cat = MakeRawTpchDb(0.05);
    state.ResumeTiming();
    encoded = cat->BuildEncodings();
    state.PauseTiming();
    cat.reset();
    state.ResumeTiming();
  }
  state.counters["columns"] = static_cast<double>(encoded);
}
BENCHMARK(BM_BuildEncodings)->Unit(benchmark::kMillisecond)->Iterations(5);

}  // namespace

BENCHMARK_MAIN();
