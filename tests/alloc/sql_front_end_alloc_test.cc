// Heap-allocation gate of the SQL front end: the exact number of
// allocations sql::Lex, sql::ParseStatement, sql::Fingerprint, a plan-cache
// hit and sql::BindLiterals make on each of the six rdbbench SELECT
// patterns. A change that brings back a per-token or per-node temporary
// fails a count here rather than a timing.

#include <gtest/gtest.h>

#include <memory>

#include "bench/sql_patterns.h"
#include "server/plan_cache.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "tests/alloc/alloc_counter.h"
#include "tpch/tpch.h"

namespace recycledb {
namespace {

using alloc_test::AllocCount;

/// Allocations made while `fn` runs, destruction of what it returns
/// included.
template <typename Fn>
uint64_t AllocsOf(Fn&& fn) {
  const uint64_t before = AllocCount();
  fn();
  return AllocCount() - before;
}

struct Expected {
  uint64_t lex;    ///< the token vector
  uint64_t parse;  ///< tokens + AST vectors + Expr nodes
  uint64_t fingerprint;
  uint64_t bind;  ///< the parameter vector
};

// Every identifier of the patterns fits std::string's small buffer, so
// names cost no allocation. parse = 1 token vector + 1 select-item vector +
// one per Expr node + 1 per WHERE / GROUP BY / JOIN vector present.
const Expected kExpected[] = {
    {1, 7, 1, 1},   // Q6: sum(a * b) is 4 nodes; WHERE
    {1, 11, 1, 1},  // Q1: 2 columns + 2 x sum(col) + count(*) = 7 nodes;
                    // WHERE, GROUP BY
    {1, 5, 1, 1},   // count(*); JOIN, WHERE
    {1, 6, 1, 1},   // column + count(*); WHERE, GROUP BY
    {1, 5, 1, 1},   // sum(col) is 2 nodes; WHERE
    {1, 7, 1, 1},   // column + sum(col) = 3 nodes; WHERE, GROUP BY
};
static_assert(std::size(kExpected) == std::size(bench::kRdbbenchPatterns));

TEST(SqlFrontEndAllocTest, SixPatternsAllocateExactly) {
  Catalog cat;
  tpch::TpchConfig cfg;
  cfg.scale_factor = 0.001;
  ASSERT_TRUE(tpch::LoadTpch(&cat, cfg).ok());
  PlanCache cache;
  for (size_t p = 0; p < std::size(kExpected); ++p) {
    const std::string text = bench::kRdbbenchPatterns[p];
    SCOPED_TRACE(text);
    auto compiled = sql::CompileSql(&cat, text);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    PlanCache::Entry e;
    e.prog = std::make_shared<const Program>(
        std::move(compiled.value().plan.prog));
    e.param_types = compiled.value().plan.param_types;
    cache.Insert(compiled.value().fingerprint, std::move(e));

    EXPECT_EQ(AllocsOf([&] { ASSERT_TRUE(sql::Lex(text).ok()); }),
              kExpected[p].lex);
    EXPECT_EQ(AllocsOf([&] { ASSERT_TRUE(sql::ParseStatement(text).ok()); }),
              kExpected[p].parse);

    auto parsed = sql::ParseStatement(text);
    ASSERT_TRUE(parsed.ok());
    const sql::SelectStmt& stmt = parsed.value().select;
    std::string fp;
    EXPECT_EQ(AllocsOf([&] { fp = sql::Fingerprint(stmt); }),
              kExpected[p].fingerprint);
    EXPECT_EQ(fp, compiled.value().fingerprint);
    PlanCache::EntryPtr entry;
    EXPECT_EQ(AllocsOf([&] { entry = cache.Lookup(fp); }), 0u);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(AllocsOf([&] {
                auto bound = sql::BindLiterals(stmt, entry->param_types);
                ASSERT_TRUE(bound.ok());
                EXPECT_EQ(bound.value(), compiled.value().params);
              }),
              kExpected[p].bind);
  }
}

}  // namespace
}  // namespace recycledb
