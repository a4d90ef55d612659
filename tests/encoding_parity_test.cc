// Raw-vs-encoded parity. tpch::LoadTpch encodes its columns and every
// gather out of an encoded column stays in code space, which must not
// change WHAT the recycler does — same hits, same admissions, same
// subsumption reuse, same entry multiset — only how many bytes the entries
// occupy. A fig4-style workload (kKeepAll, unlimited budget) replays on a
// raw copy of the catalog (tests/support/raw_tpch.h) and on the encoded
// load, and every decision statistic must match exactly. The six rdbbench
// SQL patterns give byte-identical answers on both, and on the encoded
// catalog no kernel falls back to a cached whole-column decode.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <regex>
#include <string>
#include <vector>

#include "bat/encoding.h"
#include "bench/sql_patterns.h"
#include "core/recycler.h"
#include "core/recycler_optimizer.h"
#include "interp/interpreter.h"
#include "server/query_service.h"
#include "sql_test_util.h"
#include "tests/support/raw_tpch.h"
#include "tpch/tpch.h"
#include "util/rng.h"

namespace recycledb {
namespace {

std::unique_ptr<Catalog> LoadTinyTpch(bool encoded, double sf = 0.002) {
  auto c = std::make_unique<Catalog>();
  tpch::TpchConfig cfg;
  cfg.scale_factor = sf;
  Status st = encoded ? tpch::LoadTpch(c.get(), cfg)
                      : test_support::LoadRawTpch(c.get(), cfg);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return c;
}

/// Columns of a catalog's table that carry an encoding.
size_t EncodedColumns(const Catalog& cat, const char* table) {
  const Table* t = cat.FindTable(table);
  size_t n = 0;
  for (size_t ci = 0; ci < t->num_columns(); ++ci)
    n += t->column(static_cast<int>(ci))->encoding() != nullptr;
  return n;
}

struct Batch {
  std::vector<tpch::QueryTemplate> templates;
  std::vector<std::pair<int, std::vector<Scalar>>> queries;
};

Batch MakeBatch(const std::vector<int>& qnums, int instances, uint64_t seed) {
  Batch b;
  for (int qn : qnums) b.templates.push_back(tpch::BuildQuery(qn));
  Rng rng(seed);
  for (int i = 0; i < instances; ++i) {
    for (size_t t = 0; t < b.templates.size(); ++t) {
      b.queries.emplace_back(static_cast<int>(t),
                             b.templates[t].gen_params(rng));
    }
  }
  return b;
}

struct RunOutcome {
  RecyclerStats stats;
  std::vector<std::string> content;  ///< signatures, bytes field stripped
  size_t entries = 0;
  size_t bytes = 0;
  size_t encoded_bytes = 0;
  size_t savings = 0;
  std::vector<std::string> answers;  ///< exported values, in query order
};

/// EntrySignature carries owned_bytes, which legitimately differs between
/// raw and encoded runs — that is the point of the encoding. Everything
/// else (opcode, row count, reuse counters, dependency count) must match.
std::string StripBytes(const std::string& sig) {
  static const std::regex kBytes("\\|bytes=[0-9]+");
  return std::regex_replace(sig, kBytes, "");
}

RunOutcome RunBatch(Catalog* cat, const Batch& b) {
  Recycler rec;  // defaults: kKeepAll, unlimited, subsumption on
  Interpreter interp(cat, &rec);
  RunOutcome out;
  for (const auto& [t, params] : b.queries) {
    auto r = interp.Run(b.templates[t].prog, params);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    out.answers.push_back(r.value().ToString());
  }
  out.stats = rec.stats();
  const RecyclePool& pool = rec.pool();
  for (const PoolEntry* e : pool.Entries())
    out.content.push_back(StripBytes(RecyclePool::EntrySignature(*e)));
  std::sort(out.content.begin(), out.content.end());
  out.entries = pool.num_entries();
  out.bytes = pool.total_bytes();
  out.encoded_bytes = pool.encoded_bytes();
  out.savings = pool.encoding_savings_bytes();
  return out;
}

TEST(EncodingParityTest, Fig4WorkloadDecisionsUnchangedByEncoding) {
  Batch b = MakeBatch({11, 18, 19}, 5, 42);

  auto raw_cat = LoadTinyTpch(/*encoded=*/false);
  EXPECT_EQ(EncodedColumns(*raw_cat, "lineitem"), 0u);
  RunOutcome raw = RunBatch(raw_cat.get(), b);

  auto enc_cat = LoadTinyTpch(/*encoded=*/true);
  EXPECT_GT(EncodedColumns(*enc_cat, "lineitem"), 0u)
      << "LoadTpch encoded no lineitem column";
  RunOutcome enc = RunBatch(enc_cat.get(), b);

  // Answers are the ground truth: encoding must be invisible to results.
  ASSERT_EQ(raw.answers, enc.answers);

  // Decision statistics replay exactly.
  EXPECT_EQ(raw.stats.monitored, enc.stats.monitored);
  EXPECT_EQ(raw.stats.hits, enc.stats.hits);
  EXPECT_EQ(raw.stats.exact_hits, enc.stats.exact_hits);
  EXPECT_EQ(raw.stats.subsumed_hits, enc.stats.subsumed_hits);
  EXPECT_EQ(raw.stats.combined_hits, enc.stats.combined_hits);
  EXPECT_EQ(raw.stats.admitted, enc.stats.admitted);
  EXPECT_EQ(raw.stats.rejected, enc.stats.rejected);
  EXPECT_EQ(raw.stats.evicted, enc.stats.evicted);
  EXPECT_EQ(raw.entries, enc.entries);
  EXPECT_EQ(raw.content, enc.content);
  EXPECT_GT(enc.stats.hits, 0u);
  EXPECT_GT(enc.stats.subsumed_hits + enc.stats.combined_hits, 0u)
      << "workload never exercised the subsumption path";

  // And the bytes actually shrink — otherwise the encoded run silently
  // fell back to raw intermediates and the parity above proves nothing.
  EXPECT_LT(enc.bytes, raw.bytes);
  EXPECT_GT(enc.encoded_bytes, 0u);
  EXPECT_GT(enc.savings, 0u);
  // The raw catalog's intermediates are encoded only where a gather out of
  // a dense oid run FOR-codes the oids; the encoded catalog's gathers of
  // persistent columns stay in code space too.
  EXPECT_LT(raw.encoded_bytes, enc.encoded_bytes);
  EXPECT_LT(raw.savings, enc.savings);
}

/// Every rdbbench pattern with two literal sets, each run twice (the second
/// run recycles), on one service over `cat`; the exported answers in order.
std::vector<std::string> RunRdbbenchPatterns(Catalog* cat,
                                             uint64_t* cached_decodes) {
  QueryService svc(cat, ServiceConfig{});
  Session sess;
  auto decodes = [&] {
    return svc.MetricsSnapshot().Find("bat_decodes")->value;
  };
  const uint64_t before = decodes();
  std::vector<std::string> answers;
  for (const char* pattern : bench::kRdbbenchPatterns) {
    std::string wide = pattern;
    // A second literal set: widen the first date literal by a year, so
    // the recycler sees both an exact repeat and an overlapping range.
    size_t at = wide.find("date '199");
    if (at != std::string::npos) wide[at + 9] -= 1;
    for (const std::string& text : {std::string(pattern), wide, wide}) {
      Result<QueryResult> r = testutil::RunSql(&svc, &sess, text);
      EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
      answers.push_back(r.ok() ? r.value().ToString() : r.status().ToString());
    }
  }
  *cached_decodes = decodes() - before;
  return answers;
}

TEST(EncodingParityTest, RdbbenchPatternsAnswerAlikeAndNeverCacheADecode) {
  auto raw_cat = LoadTinyTpch(/*encoded=*/false, 0.01);
  auto enc_cat = LoadTinyTpch(/*encoded=*/true, 0.01);
  uint64_t raw_decodes = 0, enc_decodes = 0;
  std::vector<std::string> raw =
      RunRdbbenchPatterns(raw_cat.get(), &raw_decodes);
  std::vector<std::string> enc =
      RunRdbbenchPatterns(enc_cat.get(), &enc_decodes);
  ASSERT_EQ(raw.size(), enc.size());
  for (size_t i = 0; i < raw.size(); ++i)
    EXPECT_EQ(raw[i], enc[i]) << "statement " << i;
  // Kernels read codes or decode into scratch, and exports read single
  // codes: nothing materialises a whole encoded column behind the pool.
  EXPECT_EQ(enc_decodes, 0u);
  EXPECT_EQ(raw_decodes, 0u);
}

}  // namespace
}  // namespace recycledb
