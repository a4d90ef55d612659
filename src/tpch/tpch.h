#ifndef RECYCLEDB_TPCH_TPCH_H_
#define RECYCLEDB_TPCH_TPCH_H_

#include <functional>
#include <vector>

#include "catalog/catalog.h"
#include "mal/program.h"
#include "util/rng.h"

namespace recycledb::tpch {

/// Scaled-down TPC-H database configuration. `scale_factor` scales the SF1
/// row counts (orders 1.5M, lineitem ~6M, ...); the default 0.02 yields a
/// ~30k-order database that runs the full 22-query suite in seconds while
/// preserving the commonality structure the paper's experiments measure.
struct TpchConfig {
  double scale_factor = 0.02;
  uint64_t seed = 42;
};

/// The eight TPC-H tables, in the order LoadTpch creates them.
inline constexpr const char* kTables[] = {"region",   "nation", "supplier",
                                          "customer", "part",   "partsupp",
                                          "orders",   "lineitem"};

/// A foreign-key join index: child_table.child_key -> parent_table.parent_key.
struct FkIndexDef {
  const char* name;
  const char* child_table;
  const char* child_key;
  const char* parent_table;
  const char* parent_key;
};

/// The join indices MonetDB's SQL compiler exploits, as LoadTpch registers
/// them.
inline constexpr FkIndexDef kFkIndexes[] = {
    {"li_orders", "lineitem", "l_orderkey", "orders", "o_orderkey"},
    {"li_part", "lineitem", "l_partkey", "part", "p_partkey"},
    {"li_supp", "lineitem", "l_suppkey", "supplier", "s_suppkey"},
    {"ord_cust", "orders", "o_custkey", "customer", "c_custkey"},
    {"ps_part", "partsupp", "ps_partkey", "part", "p_partkey"},
    {"ps_supp", "partsupp", "ps_suppkey", "supplier", "s_suppkey"},
    {"cust_nation", "customer", "c_nationkey", "nation", "n_nationkey"},
    {"supp_nation", "supplier", "s_nationkey", "nation", "n_nationkey"},
    {"nation_region", "nation", "n_regionkey", "region", "r_regionkey"},
};

/// Populates `cat` with the eight TPC-H tables (spec-like value
/// distributions) and kFkIndexes, then encodes the columns
/// (Catalog::BuildEncodings).
Status LoadTpch(Catalog* cat, const TpchConfig& cfg);

/// A compiled TPC-H query template: the MAL program (already marked by the
/// recycler optimiser) plus its spec-style parameter generator.
struct QueryTemplate {
  int number = 0;
  Program prog;
  std::function<std::vector<Scalar>(Rng&)> gen_params;
};

/// Builds template Q1..Q22. The plans are simplified but structurally
/// faithful: parameter placement, shared sub-plans (intra-query
/// commonality), and parameter-independent prefixes (inter-query
/// commonality) follow the paper's Table II characterisation.
QueryTemplate BuildQuery(int q);

/// All 22 templates, in order.
std::vector<QueryTemplate> BuildAllQueries();

/// TPC-H refresh-function-style update block (paper §7.4): inserts a set of
/// new customer orders (with 1-7 lineitems each) and deletes a set of old
/// orders from both tables, then commits. Each block touches orders and
/// lineitem only, so intermediates over e.g. part/supplier survive
/// invalidation exactly as in Fig. 12.
Status RunUpdateBlock(Catalog* cat, Rng* rng, int orders_per_block = 8);

}  // namespace recycledb::tpch

#endif  // RECYCLEDB_TPCH_TPCH_H_
