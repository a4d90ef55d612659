#ifndef RECYCLEDB_BENCH_BENCH_COMMON_H_
#define RECYCLEDB_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/recycler.h"
#include "interp/interpreter.h"
#include "skyserver/skyserver.h"
#include "tests/support/raw_tpch.h"
#include "tpch/tpch.h"
#include "util/timer.h"

namespace recycledb::bench {

/// Scale factor for the TPC-H benches; override with RDB_TPCH_SF.
inline double EnvSf(double def = 0.01) {
  const char* v = std::getenv("RDB_TPCH_SF");
  if (v == nullptr) return def;
  return std::atof(v);
}

inline size_t EnvSkyObjects(size_t def = 120000) {
  const char* v = std::getenv("RDB_SKY_OBJECTS");
  if (v == nullptr) return def;
  return static_cast<size_t>(std::atoll(v));
}

inline std::unique_ptr<Catalog> MakeTpchDb(double sf) {
  auto cat = std::make_unique<Catalog>();
  tpch::TpchConfig cfg;
  cfg.scale_factor = sf;
  Status st = tpch::LoadTpch(cat.get(), cfg);
  if (!st.ok()) {
    std::fprintf(stderr, "tpch load failed: %s\n", st.ToString().c_str());
    std::abort();
  }
  return cat;
}

/// The same TPC-H catalog without column encodings (the raw side of
/// raw-vs-encoded comparisons; tpch::LoadTpch always encodes).
inline std::unique_ptr<Catalog> MakeRawTpchDb(double sf) {
  auto cat = std::make_unique<Catalog>();
  tpch::TpchConfig cfg;
  cfg.scale_factor = sf;
  Status st = test_support::LoadRawTpch(cat.get(), cfg);
  if (!st.ok()) {
    std::fprintf(stderr, "raw tpch load failed: %s\n", st.ToString().c_str());
    std::abort();
  }
  return cat;
}

inline std::unique_ptr<Catalog> MakeSkyDb(size_t n_objects) {
  auto cat = std::make_unique<Catalog>();
  skyserver::SkyConfig cfg;
  cfg.n_objects = n_objects;
  Status st = skyserver::LoadSkyServer(cat.get(), cfg);
  if (!st.ok()) {
    std::fprintf(stderr, "skyserver load failed: %s\n", st.ToString().c_str());
    std::abort();
  }
  return cat;
}

/// Runs and aborts on error: benches assume valid templates.
inline RunStats MustRun(Interpreter* interp, const Program& prog,
                        const std::vector<Scalar>& params) {
  auto r = interp->Run(prog, params);
  if (!r.ok()) {
    std::fprintf(stderr, "query %s failed: %s\n", prog.name.c_str(),
                 r.status().ToString().c_str());
    std::abort();
  }
  return interp->last_run();
}

/// The experiment preparation of §7: run warm-up instances so persistent
/// columns are touched, then empty the recycle pool "to factor out the IO
/// costs and better illustrate the pure effect of the recycler".
inline void WarmUp(Interpreter* interp, const std::vector<Program*>& progs,
                   const std::vector<std::vector<Scalar>>& params) {
  for (size_t i = 0; i < progs.size(); ++i) {
    MustRun(interp, *progs[i], params[i]);
  }
}

/// The mixed workload of §7.2: 20 instances each of queries
/// 4,7,8,11,12,16,18,19,21,22, interleaved round-robin (200 queries).
struct MixedBatch {
  std::vector<tpch::QueryTemplate> templates;  // the 10 queries
  std::vector<std::pair<int, std::vector<Scalar>>> queries;  // (tmpl idx, params)
};

inline MixedBatch MakeMixedBatch(int instances_per_query = 20,
                                 uint64_t seed = 1234) {
  static const int kQueries[] = {4, 7, 8, 11, 12, 16, 18, 19, 21, 22};
  MixedBatch batch;
  for (int qn : kQueries) batch.templates.push_back(tpch::BuildQuery(qn));
  Rng rng(seed);
  for (int inst = 0; inst < instances_per_query; ++inst) {
    for (size_t t = 0; t < batch.templates.size(); ++t) {
      batch.queries.emplace_back(static_cast<int>(t),
                                 batch.templates[t].gen_params(rng));
    }
  }
  return batch;
}

inline double Mb(size_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

inline void PrintRule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace recycledb::bench

#endif  // RECYCLEDB_BENCH_BENCH_COMMON_H_
