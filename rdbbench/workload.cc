#include "workload.h"

#include <algorithm>
#include <cmath>

#include "util/date.h"
#include "util/rng.h"
#include "util/str.h"

namespace rdbbench {

using recycledb::DateFromYmd;
using recycledb::DateT;
using recycledb::DateToString;
using recycledb::MalValue;
using recycledb::QueryResult;
using recycledb::Rng;
using recycledb::Scalar;
using recycledb::StrFormat;
using recycledb::TypeTag;

namespace {

constexpr const char* kNames[] = {"reuse_hot", "adhoc_evict", "mixed_rw",
                                  "wire_hot"};

// Generated order dates span [1992-01-01, 1998-03-04]; ship dates trail
// them by up to 121 days.
const DateT kFirstDay = DateFromYmd(1992, 1, 1);
const DateT kLastShip = DateFromYmd(1998, 8, 1);

std::string Date(DateT d) { return "date '" + DateToString(d) + "'"; }

/// The literals of the six SELECT patterns. One set serves both the pooled
/// and the ad-hoc streams; only how the values are drawn differs.
struct Literals {
  DateT q6_from;
  int q6_days;
  double disc_lo, disc_hi;
  int qty;
  DateT q1_to;
  DateT join_from;
  int join_days;
  DateT prio_from;
  int prio_days;
  DateT sum_from;
  DateT top_from;
};

/// The six SELECT patterns every workload draws from.
std::string Pattern(int p, const Literals& l) {
  switch (p) {
    case 0:  // Q6: filtered sum over lineitem
      return StrFormat(
          "select sum(l_extendedprice * l_discount) from lineitem where "
          "l_shipdate >= %s and l_shipdate < %s and l_discount between "
          "%.2f and %.2f and l_quantity < %d",
          Date(l.q6_from).c_str(), Date(l.q6_from + l.q6_days).c_str(),
          l.disc_lo, l.disc_hi, l.qty);
    case 1:  // Q1: grouped aggregate
      return StrFormat(
          "select l_returnflag, l_linestatus, sum(l_quantity), "
          "sum(l_extendedprice), count(*) from lineitem where l_shipdate <= "
          "%s group by l_returnflag, l_linestatus",
          Date(l.q1_to).c_str());
    case 2:  // lineitem x orders through the li_orders FK join index
      return StrFormat(
          "select count(*) from lineitem inner join orders on l_orderkey = "
          "o_orderkey where o_orderdate >= %s and o_orderdate < %s",
          Date(l.join_from).c_str(), Date(l.join_from + l.join_days).c_str());
    case 3:  // orders priority histogram
      return StrFormat(
          "select o_orderpriority, count(*) from orders where o_orderdate "
          "between %s and %s group by o_orderpriority",
          Date(l.prio_from).c_str(), Date(l.prio_from + l.prio_days).c_str());
    case 4:  // orders sum
      return StrFormat(
          "select sum(o_totalprice) from orders where o_orderdate >= %s",
          Date(l.sum_from).c_str());
    default:  // group-by / order-by / limit. Revenue sums are doubles, so
              // ties at the cut are improbable and the top 10 well defined.
      return StrFormat(
          "select l_orderkey, sum(l_extendedprice) as revenue from lineitem "
          "where l_shipdate >= %s group by l_orderkey order by revenue desc "
          "limit 10",
          Date(l.top_from).c_str());
  }
}

DateT Day(Rng* rng, DateT lo, DateT hi) {
  return static_cast<DateT>(rng->UniformRange(lo, hi));
}

/// Literal pools of one or two values. The pools are the same for every
/// seed, so every seed exercises the same set of pool entries; the seed
/// picks the pattern and pool value of each statement.
std::vector<Literals> PooledLiterals() {
  std::vector<Literals> pools;
  for (int v = 0; v < 2; ++v) {
    Literals l;
    l.q6_from = DateFromYmd(v ? 1996 : 1994, 1, 1);
    l.q6_days = 365;
    l.disc_lo = 0.05;
    l.disc_hi = 0.07;
    l.qty = v ? 25 : 24;
    l.q1_to = DateFromYmd(1998, v ? 11 : 9, 1);
    l.join_from = DateFromYmd(v ? 1995 : 1993, 1, 1);
    l.join_days = 181;
    l.prio_from = DateFromYmd(v ? 1997 : 1994, 1, 1);
    l.prio_days = 59;
    l.sum_from = DateFromYmd(v ? 1996 : 1995, 1, 1);
    l.top_from = DateFromYmd(1995, v ? 7 : 1, 1);
    pools.push_back(l);
  }
  return pools;
}

/// Wide, day-granular literals: exact repeats are rare, but ranges nest
/// often enough for prefix and subsumption hits.
Literals AdhocLiterals(Rng* rng) {
  Literals l;
  l.q6_from = Day(rng, kFirstDay, kLastShip - 365);
  l.q6_days = static_cast<int>(rng->UniformRange(30, 365));
  l.disc_lo = 0.01 * static_cast<double>(rng->Uniform(8));
  l.disc_hi = l.disc_lo + 0.01 * static_cast<double>(rng->UniformRange(1, 4));
  l.qty = static_cast<int>(rng->UniformRange(10, 50));
  l.q1_to = Day(rng, DateFromYmd(1995, 1, 1), kLastShip);
  l.join_from = Day(rng, kFirstDay, DateFromYmd(1997, 12, 31));
  l.join_days = static_cast<int>(rng->UniformRange(30, 365));
  l.prio_from = Day(rng, kFirstDay, DateFromYmd(1997, 12, 31));
  l.prio_days = static_cast<int>(rng->UniformRange(30, 90));
  l.sum_from = Day(rng, kFirstDay, DateFromYmd(1998, 1, 1));
  l.top_from = Day(rng, kFirstDay, DateFromYmd(1998, 1, 1));
  return l;
}

bool ScalarClose(const Scalar& x, const Scalar& y) {
  if (x.tag() == TypeTag::kDbl && y.tag() == TypeTag::kDbl) {
    if (x.is_nil() || y.is_nil()) return x.is_nil() == y.is_nil();
    const double a = x.AsDbl(), b = y.AsDbl();
    return std::fabs(a - b) <= 1e-9 * (std::fabs(a) + std::fabs(b) + 1.0);
  }
  return x == y;
}

/// The result's columns (its bat exports) as scalars, column-major.
std::vector<std::vector<Scalar>> Columns(const QueryResult& r) {
  std::vector<std::vector<Scalar>> cols;
  for (const auto& [label, v] : r.values) {
    if (!v.is_bat()) continue;
    std::vector<Scalar> col;
    col.reserve(v.bat()->size());
    for (size_t i = 0; i < v.bat()->size(); ++i)
      col.push_back(v.bat()->TailAt(i));
    cols.push_back(std::move(col));
  }
  return cols;
}

/// Row indices of `cols` in a canonical order: lexicographic over the
/// columns, with double columns compared last so that the exact group keys
/// decide the order before any aggregate does.
std::vector<size_t> CanonicalRows(const std::vector<std::vector<Scalar>>& cols,
                                  size_t rows) {
  std::vector<size_t> keys;
  for (size_t c = 0; c < cols.size(); ++c)
    if (rows == 0 || cols[c][0].tag() != TypeTag::kDbl) keys.push_back(c);
  for (size_t c = 0; c < cols.size(); ++c)
    if (rows > 0 && cols[c][0].tag() == TypeTag::kDbl) keys.push_back(c);
  std::vector<size_t> order(rows);
  for (size_t i = 0; i < rows; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    for (size_t c : keys) {
      if (int d = cols[c][x].Compare(cols[c][y]); d != 0) return d < 0;
    }
    return false;
  });
  return order;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (int i = 0; i < 4; ++i) {
    if (name == kNames[i]) {
      *out = static_cast<Workload>(i);
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) { return kNames[static_cast<int>(w)]; }

std::vector<std::string> GenerateReads(Workload w, uint64_t seed, size_t n) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<std::string> out;
  out.reserve(n);
  if (w == Workload::kAdhocEvict) {
    for (size_t i = 0; i < n; ++i)
      out.push_back(Pattern(static_cast<int>(rng.Uniform(6)),
                            AdhocLiterals(&rng)));
    return out;
  }
  const std::vector<Literals> pools = PooledLiterals();
  for (size_t i = 0; i < n; ++i) {
    // Each literal of the pattern independently picks a pool value.
    Literals l = pools[rng.Uniform(2)];
    const Literals& other = pools[rng.Uniform(2)];
    l.qty = other.qty;
    out.push_back(Pattern(static_cast<int>(rng.Uniform(6)), l));
  }
  return out;
}

std::vector<WriteEvent> GenerateWrites(uint64_t seed, size_t n,
                                       uint64_t key_base,
                                       uint64_t base_orders) {
  static const char* kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                                      "4-NOT SPECIFIED", "5-LOW"};
  // One cycle: three inserts, two update pairs, one delete of everything
  // inserted so far.
  static const WriteEvent::Kind kCycle[] = {
      WriteEvent::Kind::kInsert, WriteEvent::Kind::kPair,
      WriteEvent::Kind::kInsert, WriteEvent::Kind::kInsert,
      WriteEvent::Kind::kPair,   WriteEvent::Kind::kDelete};
  Rng rng(seed * 0xbf58476d1ce4e5b9ULL + 7);
  const uint64_t customers = base_orders / 10 > 0 ? base_orders / 10 : 1;
  const uint64_t band_span = base_orders > 2048 ? base_orders - 2048 : 1;
  uint64_t next_key = key_base;
  std::vector<WriteEvent> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    WriteEvent e;
    e.kind = kCycle[i % 6];
    switch (e.kind) {
      case WriteEvent::Kind::kInsert: {
        std::string sql = "insert into orders values ";
        for (int r = 0; r < 8; ++r) {
          sql += StrFormat(
              "%s(%llu, %llu, 'O', %.2f, %s, '%s', 'bench row')",
              r ? ", " : "", static_cast<unsigned long long>(next_key++),
              static_cast<unsigned long long>(rng.Uniform(customers)),
              1000.0 + static_cast<double>(rng.Uniform(100000)) / 100.0,
              Date(Day(&rng, DateFromYmd(1995, 1, 1), DateFromYmd(1997, 12, 31)))
                  .c_str(),
              kPriorities[rng.Uniform(5)]);
        }
        e.sql.push_back(std::move(sql));
        break;
      }
      case WriteEvent::Kind::kDelete:
        e.sql.push_back(
            StrFormat("delete from orders where o_orderkey >= %llu",
                      static_cast<unsigned long long>(key_base)));
        break;
      case WriteEvent::Kind::kPair: {
        const uint64_t lo = rng.Uniform(band_span);
        e.overlap = rng.Uniform(2) == 0;
        const uint64_t lo_b = e.overlap ? lo + 12 : lo + 1024;
        for (uint64_t b : {lo, lo_b}) {
          e.sql.push_back(StrFormat(
              "update orders set o_totalprice = o_totalprice + 1 where "
              "o_orderkey >= %llu and o_orderkey < %llu",
              static_cast<unsigned long long>(b),
              static_cast<unsigned long long>(b + 24)));
        }
        break;
      }
    }
    out.push_back(std::move(e));
  }
  return out;
}

bool SameResult(const QueryResult& a, const QueryResult& b, bool ordered) {
  if (a.values.size() != b.values.size()) return false;
  size_t rows = 0;
  for (size_t i = 0; i < a.values.size(); ++i) {
    const MalValue& x = a.values[i].second;
    const MalValue& y = b.values[i].second;
    if (a.values[i].first != b.values[i].first) return false;
    if (x.is_bat() != y.is_bat()) return false;
    if (!x.is_bat()) {
      if (!ScalarClose(x.scalar(), y.scalar())) return false;
      continue;
    }
    if (x.bat()->size() != y.bat()->size()) return false;
    if (rows != 0 && x.bat()->size() != rows) return false;
    rows = x.bat()->size();
  }
  const auto ca = Columns(a), cb = Columns(b);
  std::vector<size_t> ra(rows), rb(rows);
  for (size_t i = 0; i < rows; ++i) ra[i] = rb[i] = i;
  if (!ordered) {
    ra = CanonicalRows(ca, rows);
    rb = CanonicalRows(cb, rows);
  }
  for (size_t c = 0; c < ca.size(); ++c) {
    for (size_t i = 0; i < rows; ++i) {
      if (!ScalarClose(ca[c][ra[i]], cb[c][rb[i]])) return false;
    }
  }
  return true;
}

}  // namespace rdbbench
