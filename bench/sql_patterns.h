#ifndef RECYCLEDB_BENCH_SQL_PATTERNS_H_
#define RECYCLEDB_BENCH_SQL_PATTERNS_H_

namespace recycledb::bench {

/// The six TPC-H SELECT patterns of the rdbbench workloads
/// (rdbbench/workload.cc, Pattern()), with the first pooled literal set
/// filled in. The SQL front-end micro-benchmarks, the front-end allocation
/// gate and the front-end robustness test all run over these statements.
inline constexpr const char* kRdbbenchPatterns[] = {
    "select sum(l_extendedprice * l_discount) from lineitem where l_shipdate "
    ">= date '1994-01-01' and l_shipdate < date '1995-01-01' and l_discount "
    "between 0.05 and 0.07 and l_quantity < 24",
    "select l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice), "
    "count(*) from lineitem where l_shipdate <= date '1998-09-01' group by "
    "l_returnflag, l_linestatus",
    "select count(*) from lineitem inner join orders on l_orderkey = "
    "o_orderkey where o_orderdate >= date '1993-01-01' and o_orderdate < date "
    "'1993-07-01'",
    "select o_orderpriority, count(*) from orders where o_orderdate between "
    "date '1994-01-01' and date '1994-03-01' group by o_orderpriority",
    "select sum(o_totalprice) from orders where o_orderdate >= date "
    "'1995-01-01'",
    "select l_orderkey, sum(l_extendedprice) as revenue from lineitem where "
    "l_shipdate >= date '1995-01-01' group by l_orderkey order by revenue "
    "desc limit 10",
};

}  // namespace recycledb::bench

#endif  // RECYCLEDB_BENCH_SQL_PATTERNS_H_
