// Shapes and parity of the projection, semijoin and grouping kernels:
//  - a projection join whose left values all land in the right window keeps
//    the left head as it is (dense stays dense) and is charged for its tail
//    only; rows that drop out take the general branch with today's answers;
//  - TakeSide keeps a dense side dense exactly for consecutive positions;
//  - a dense-left semijoin / anti-semijoin gives the brute-force rows;
//  - GroupBy / SubGroupBy / Kunique number groups as a std::unordered_map
//    reference does, from 1 to 200k groups, with nils and +-0.0;
//  - over u8/u16/u32 FOR and dictionary codes (sidecar or encoded-native,
//    sliced, beside a raw column) they give the value path's answers and
//    never cache a decode.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bat/encoding.h"
#include "engine/materialize.h"
#include "engine/operators.h"
#include "util/rng.h"

namespace recycledb {
namespace {

using engine::SelVector;

/// [dense(hseq) -> oid column]: the reverse(markT(...)) candidate shape.
BatPtr Cand(std::vector<Oid> rows, Oid hseq = 0) {
  size_t n = rows.size();
  return Bat::Make(BatSide::Dense(hseq),
                   BatSide::Materialized(
                       Column::Make(TypeTag::kOid, std::move(rows))),
                   n);
}

/// Random positions into a window of `rn` rows, ascending (a select's
/// output order) or shuffled.
std::vector<Oid> RandomRows(Rng* rng, size_t n, size_t rn, bool sorted) {
  std::vector<Oid> rows(n);
  for (Oid& r : rows) r = rng->Uniform(rn);
  if (sorted) std::sort(rows.begin(), rows.end());
  return rows;
}

void ExpectSameBat(const Bat& got, const std::vector<Scalar>& heads,
                   const std::vector<Scalar>& tails) {
  ASSERT_EQ(got.size(), heads.size());
  for (size_t i = 0; i < heads.size(); ++i) {
    ASSERT_EQ(got.HeadAt(i), heads[i]) << "row " << i;
    ASSERT_EQ(got.TailAt(i), tails[i]) << "row " << i;
  }
}

/// Brute-force join(l, r) over a dense-headed r: (l.head, r.tail) for every
/// l row whose tail value has a position in r.
void ExpectJoinMatchesBruteForce(const BatPtr& l, const BatPtr& r,
                                 const Bat& got) {
  std::vector<Scalar> heads, tails;
  const Oid seq = r->head().seq;
  for (size_t i = 0; i < l->size(); ++i) {
    const Oid v = l->TailAt(i).AsOid();
    if (v == kNilOid || v < seq || v - seq >= r->size()) continue;
    heads.push_back(l->HeadAt(i));
    tails.push_back(r->TailAt(v - seq));
  }
  ExpectSameBat(got, heads, tails);
}

TEST(KernelShapeTest, FullMatchProjectionKeepsDenseHead) {
  Rng rng(1401);
  const size_t rn = 5000;
  std::vector<int32_t> ints(rn);
  std::vector<double> dbls(rn);
  std::vector<std::string> strs(rn);
  for (size_t i = 0; i < rn; ++i) {
    ints[i] = static_cast<int32_t>(rng.Uniform(1000));
    dbls[i] = rng.UniformDouble(-1, 1);
    strs[i] = "s" + std::to_string(rng.Uniform(50));
  }
  const std::vector<BatPtr> columns = {
      Bat::DenseHead(Column::Make(TypeTag::kInt, ints), 7),
      Bat::DenseHead(Column::Make(TypeTag::kDbl, dbls), 7),
      Bat::DenseHead(Column::Make(TypeTag::kStr, strs), 7)};
  for (bool sorted : {true, false}) {
    std::vector<Oid> rows = RandomRows(&rng, 1200, rn, sorted);
    for (Oid& v : rows) v += 7;
    BatPtr l = Cand(rows, 3);
    for (const BatPtr& r : columns) {
      BatPtr j = engine::Join(l, r).ValueOrDie();
      ASSERT_TRUE(j->head().dense());
      EXPECT_EQ(j->head().seq, 3u);
      EXPECT_EQ(j->MemoryBytes(), j->tail().col->MemoryBytes());
      ExpectJoinMatchesBruteForce(l, r, *j);
    }
  }
}

TEST(KernelShapeTest, FullMatchOverForCodesKeepsDenseHead) {
  // A FOR-encoded left tail (the encoded-intermediate candidate shape):
  // the window test and the positions come from the codes.
  Rng rng(1402);
  const size_t rn = 3000;
  std::vector<int32_t> vals(rn);
  for (int32_t& v : vals) v = static_cast<int32_t>(rng.Uniform(100000));
  BatPtr r = Bat::DenseHead(Column::Make(TypeTag::kInt, vals));
  std::vector<Oid> rows = RandomRows(&rng, 900, rn, true);
  EncodingPtr enc = ColumnEncoding::TryFor<Oid>(rows);
  ASSERT_NE(enc, nullptr);
  BatPtr l = Bat::Make(
      BatSide::Dense(0),
      BatSide::Materialized(Column::MakeEncoded(TypeTag::kOid, enc)),
      rows.size());
  BatPtr j = engine::Join(l, r).ValueOrDie();
  EXPECT_TRUE(j->head().dense());
  ExpectJoinMatchesBruteForce(l, r, *j);

  // Partial match over codes: the general branch, same answers.
  BatPtr short_r = Bat::DenseHead(Column::Make(
      TypeTag::kInt, std::vector<int32_t>(vals.begin(), vals.begin() + 1500)));
  ExpectJoinMatchesBruteForce(l, short_r,
                              *engine::Join(l, short_r).ValueOrDie());
}

TEST(KernelShapeTest, FullMatchWithEncodedIntermediatesStaysInCodeSpace) {
  Rng rng(1403);
  const size_t rn = 4000;
  std::vector<int32_t> vals(rn);
  for (int32_t& v : vals) v = 1000 + static_cast<int32_t>(rng.Uniform(200));
  auto col = Column::Make(TypeTag::kInt, vals);
  col->AttachEncoding(ColumnEncoding::TryFor<int32_t>(vals));
  BatPtr r = Bat::DenseHead(col);
  BatPtr l = Cand(RandomRows(&rng, 1000, rn, true));
  BatPtr j = engine::Join(l, r).ValueOrDie();
  EXPECT_TRUE(j->head().dense());
  EXPECT_TRUE(j->tail().col->encoded_native());
  ExpectJoinMatchesBruteForce(l, r, *j);
}

TEST(KernelShapeTest, NilOrOutOfWindowRowsTakeTheGeneralBranch) {
  BatPtr r = Bat::DenseHead(
      Column::Make(TypeTag::kInt, std::vector<int32_t>{10, 20, 30, 40}), 5);
  // nil, below the window, above the window, in the window.
  for (const std::vector<Oid>& rows :
       {std::vector<Oid>{6, kNilOid, 8}, std::vector<Oid>{4, 5, 6},
        std::vector<Oid>{5, 9, 7}, std::vector<Oid>{8, 7, 100, 6, 5}}) {
    BatPtr l = Cand(rows, 2);
    ExpectJoinMatchesBruteForce(l, r, *engine::Join(l, r).ValueOrDie());
  }
  // A dropped row in the middle leaves non-consecutive left positions, so
  // the head materialises; a dropped last row keeps it dense.
  BatPtr mid = engine::Join(Cand({5, kNilOid, 6}), r).ValueOrDie();
  EXPECT_FALSE(mid->head().dense());
  BatPtr last = engine::Join(Cand({5, 6, 9}), r).ValueOrDie();
  EXPECT_TRUE(last->head().dense());
  EXPECT_EQ(last->size(), 2u);
}

TEST(KernelShapeTest, DisjointDenseWindowsGiveEmptyResults) {
  // Dense left values (or heads) wholly above the right window: nothing
  // matches, and the empty slices stay inside their columns.
  BatPtr r = Bat::DenseHead(
      Column::Make(TypeTag::kInt, std::vector<int32_t>{1, 2, 3, 4}));
  EXPECT_EQ(engine::Join(Bat::DenseDense(0, 100, 5), r).ValueOrDie()->size(),
            0u);
  BatPtr l = Bat::Make(BatSide::Dense(0),
                       BatSide::Materialized(Column::Make(
                           TypeTag::kInt, std::vector<int32_t>{7, 8, 9})),
                       3);
  EXPECT_EQ(engine::Semijoin(l, Bat::DenseDense(50, 0, 4)).ValueOrDie()->size(),
            0u);
  EXPECT_EQ(engine::Semijoin(Bat::DenseDense(50, 0, 4), l).ValueOrDie()->size(),
            0u);
}

TEST(KernelShapeTest, TakeSideOfDenseStaysDenseOnlyForConsecutive) {
  const BatSide dense = BatSide::Dense(5);
  auto expect_dense = [&](const SelVector& sel, Oid seq) {
    BatSide s = engine::TakeSide(dense, 100, sel);
    ASSERT_TRUE(s.dense());
    EXPECT_EQ(s.seq, seq);
  };
  auto expect_oids = [&](const SelVector& sel) {
    BatSide s = engine::TakeSide(dense, 100, sel);
    ASSERT_FALSE(s.dense());
    ASSERT_EQ(s.col->size(), sel.size());
    for (size_t k = 0; k < sel.size(); ++k)
      EXPECT_EQ(s.col->GetScalar(k), Scalar::OidVal(5 + sel[k]));
  };
  expect_dense({}, 5);
  expect_dense({2}, 7);
  expect_dense({3, 4, 5, 6}, 8);
  expect_oids({3, 5});
  expect_oids({4, 3});
  expect_oids({3, 4, 4, 5});
  expect_oids({6, 4, 5, 7});  // the span fits, the order does not
}

TEST(KernelShapeTest, DenseSemijoinMatchesBruteForce) {
  Rng rng(1404);
  for (int round = 0; round < 300; ++round) {
    const size_t ln = rng.Uniform(300);
    const Oid lseq = rng.Uniform(50);
    std::vector<int32_t> ltail(ln);
    for (int32_t& v : ltail) v = static_cast<int32_t>(rng.Uniform(1000));
    BatPtr l = Bat::Make(BatSide::Dense(lseq),
                         BatSide::Materialized(
                             Column::Make(TypeTag::kInt, ltail)),
                         ln);
    // r heads: in-window values with duplicates, nils, values below and
    // above the window, in random order.
    const size_t rn = rng.Uniform(2 * ln + 5);
    std::vector<Oid> rheads(rn);
    for (Oid& h : rheads) {
      switch (rng.Uniform(6)) {
        case 0:
          h = kNilOid;
          break;
        case 1:
          h = rng.Uniform(lseq + 1);  // below the window (or its first oid)
          break;
        case 2:
          h = lseq + ln + rng.Uniform(20);  // above the window
          break;
        default:
          h = lseq + rng.Uniform(ln + 1);
          break;
      }
    }
    std::set<Oid> present(rheads.begin(), rheads.end());
    BatPtr r = Bat::Make(
        BatSide::Materialized(Column::Make(TypeTag::kOid, rheads)),
        BatSide::Dense(0), rn);
    for (bool anti : {false, true}) {
      std::vector<Scalar> heads, tails;
      for (size_t i = 0; i < ln; ++i) {
        if ((present.count(lseq + i) != 0) == anti) continue;
        heads.push_back(Scalar::OidVal(lseq + i));
        tails.push_back(Scalar::Int(ltail[i]));
      }
      BatPtr got = anti ? engine::AntiSemijoin(l, r).ValueOrDie()
                        : engine::Semijoin(l, r).ValueOrDie();
      ExpectSameBat(*got, heads, tails);
    }
  }
}

// --- grouping parity --------------------------------------------------------

template <typename T>
struct KeyGen;
template <>
struct KeyGen<int32_t> {
  static constexpr TypeTag kType = TypeTag::kInt;
  static int32_t Make(uint64_t k) { return static_cast<int32_t>(k) - 100000; }
};
template <>
struct KeyGen<int64_t> {
  static constexpr TypeTag kType = TypeTag::kLng;
  static int64_t Make(uint64_t k) {
    return static_cast<int64_t>(k) * 1000003 - (int64_t{1} << 40);
  }
};
template <>
struct KeyGen<double> {
  static constexpr TypeTag kType = TypeTag::kDbl;
  static double Make(uint64_t k) {
    // k == 0 and k == 1 are 0.0 and -0.0: one group under ==.
    if (k <= 1) return k == 0 ? 0.0 : -0.0;
    return (static_cast<double>(k) - 50000.0) * 0.25;
  }
};
template <>
struct KeyGen<std::string> {
  static constexpr TypeTag kType = TypeTag::kStr;
  static std::string Make(uint64_t k) { return "key-" + std::to_string(k); }
};

/// `n` keys over `g` distinct generated values, about 1 in 50 nil.
template <typename T>
std::vector<T> RandomKeys(Rng* rng, size_t n, size_t g) {
  std::vector<T> keys(n);
  for (T& k : keys)
    k = rng->Uniform(50) == 0 ? NilOf<T>() : KeyGen<T>::Make(rng->Uniform(g));
  return keys;
}

/// First-occurrence numbering with a std::unordered_map (GroupBy) or a
/// std::map over (previous gid, key) pairs (SubGroupBy).
template <typename T>
void ReferenceGroups(const std::vector<T>& keys, const std::vector<Oid>* prev,
                     const std::vector<Oid>& heads, std::vector<Oid>* map,
                     std::vector<Oid>* reps) {
  std::unordered_map<T, Oid> flat;
  std::map<std::pair<Oid, T>, Oid> nested;
  for (size_t i = 0; i < keys.size(); ++i) {
    const Oid fresh = reps->size();
    Oid gid = prev == nullptr
                  ? flat.emplace(keys[i], fresh).first->second
                  : nested.emplace(std::make_pair((*prev)[i], keys[i]), fresh)
                        .first->second;
    if (gid == fresh) reps->push_back(heads[i]);
    map->push_back(gid);
  }
}

std::vector<Oid> TailOids(const BatPtr& b) {
  std::vector<Oid> out(b->size());
  for (size_t i = 0; i < out.size(); ++i) out[i] = b->TailAt(i).AsOid();
  return out;
}

template <typename T>
void CheckGroupParity(uint64_t seed) {
  Rng rng(seed);
  for (size_t g : {size_t{1}, size_t{7}, size_t{1000}, size_t{200000}}) {
    const size_t n = g == 200000 ? 300000 : 4 * g + 100;
    std::vector<T> keys = RandomKeys<T>(&rng, n, g);
    std::vector<Oid> heads(n);
    for (Oid& h : heads) h = rng.Uniform(1u << 30);
    BatPtr kb = Bat::Make(
        BatSide::Materialized(Column::Make(TypeTag::kOid, heads)),
        BatSide::Materialized(Column::Make(KeyGen<T>::kType, keys)), n);

    std::vector<Oid> want_map, want_reps;
    ReferenceGroups<T>(keys, nullptr, heads, &want_map, &want_reps);
    engine::GroupResult got = engine::GroupBy(kb).ValueOrDie();
    ASSERT_EQ(TailOids(got.map), want_map) << "groups " << g;
    ASSERT_EQ(TailOids(got.reps), want_reps) << "groups " << g;

    // Refine by a second key over a few groups.
    std::vector<T> keys2 = RandomKeys<T>(&rng, n, 5);
    BatPtr kb2 = Bat::Make(
        BatSide::Materialized(Column::Make(TypeTag::kOid, heads)),
        BatSide::Materialized(Column::Make(KeyGen<T>::kType, keys2)), n);
    std::vector<Oid> want_map2, want_reps2;
    ReferenceGroups<T>(keys2, &want_map, heads, &want_map2, &want_reps2);
    engine::GroupResult got2 = engine::SubGroupBy(kb2, got.map).ValueOrDie();
    ASSERT_EQ(TailOids(got2.map), want_map2) << "groups " << g;
    ASSERT_EQ(TailOids(got2.reps), want_reps2) << "groups " << g;
  }
}

TEST(KernelShapeTest, GroupByMatchesUnorderedMapInt) {
  CheckGroupParity<int32_t>(1405);
}
TEST(KernelShapeTest, GroupByMatchesUnorderedMapLng) {
  CheckGroupParity<int64_t>(1406);
}
TEST(KernelShapeTest, GroupByMatchesUnorderedMapDbl) {
  CheckGroupParity<double>(1407);
}
TEST(KernelShapeTest, GroupByMatchesUnorderedMapStr) {
  CheckGroupParity<std::string>(1408);
}

TEST(KernelShapeTest, SignedZerosShareAGroup) {
  BatPtr kb = Bat::DenseHead(Column::Make(
      TypeTag::kDbl, std::vector<double>{-0.0, 1.5, 0.0, NilOf<double>(),
                                         -0.0, NilOf<double>()}));
  engine::GroupResult g = engine::GroupBy(kb).ValueOrDie();
  EXPECT_EQ(TailOids(g.map), (std::vector<Oid>{0, 1, 0, 2, 0, 2}));
  EXPECT_EQ(TailOids(g.reps), (std::vector<Oid>{0, 1, 3}));
}

TEST(KernelShapeTest, KuniqueKeepsFirstPairPerHead) {
  Rng rng(1409);
  for (size_t g : {size_t{1}, size_t{30}, size_t{5000}}) {
    const size_t n = 3 * g + 10;
    std::vector<std::string> heads = RandomKeys<std::string>(&rng, n, g);
    std::vector<int32_t> tails(n);
    for (size_t i = 0; i < n; ++i) tails[i] = static_cast<int32_t>(i);
    BatPtr b = Bat::Make(
        BatSide::Materialized(Column::Make(TypeTag::kStr, heads)),
        BatSide::Materialized(Column::Make(TypeTag::kInt, tails)), n);
    std::vector<Scalar> want_heads, want_tails;
    std::set<std::string> seen;
    for (size_t i = 0; i < n; ++i) {
      if (!seen.insert(heads[i]).second) continue;
      want_heads.push_back(Scalar::Str(heads[i]));
      want_tails.push_back(Scalar::Int(tails[i]));
    }
    ExpectSameBat(*engine::Kunique(b).ValueOrDie(), want_heads, want_tails);
  }
}

// --- code-space grouping ----------------------------------------------------

template <typename T>
EncodingPtr Encode(const std::vector<T>& vals) {
  if constexpr (std::is_same_v<T, std::string>) {
    return ColumnEncoding::TryDict(vals, /*max_distinct=*/1u << 20);
  } else {
    return ColumnEncoding::TryFor<T>(vals);
  }
}

size_t CodeWidth(const ColumnEncoding& enc) {
  return enc.VisitCodes([](const auto& codes) { return sizeof(codes[0]); });
}

/// `vals` as a raw column, a raw column with an encoding sidecar, and an
/// encoded-native column; the codes must be `width` bytes wide (0: any).
template <typename T>
std::vector<ColumnPtr> Representations(TypeTag type, const std::vector<T>& vals,
                                       size_t width) {
  EncodingPtr enc = Encode(vals);
  EXPECT_NE(enc, nullptr);
  if (enc == nullptr) return {Column::Make(type, vals)};
  if (width != 0) EXPECT_EQ(CodeWidth(*enc), width) << TypeName(type);
  auto sidecar = Column::Make(type, vals);
  sidecar->AttachEncoding(enc);
  return {Column::Make(type, vals), sidecar, Column::MakeEncoded(type, enc)};
}

template <typename T>
void CheckCodeSpaceGrouping(uint64_t seed, size_t distinct, size_t width) {
  const TypeTag type = KeyGen<T>::kType;
  Rng rng(seed);
  const size_t n = 2 * distinct + 1000, off = 37, len = n - off;
  std::vector<ColumnPtr> k1 =
      Representations(type, RandomKeys<T>(&rng, n, distinct), width);
  std::vector<ColumnPtr> k2 =
      Representations(type, RandomKeys<T>(&rng, n, 7), 0);
  std::vector<Oid> heads(n);
  for (Oid& h : heads) h = rng.Uniform(1u << 20);
  const std::vector<ColumnPtr> hs = {
      Column::Make(TypeTag::kOid, heads),
      Column::MakeEncoded(TypeTag::kOid, ColumnEncoding::TryFor<Oid>(heads))};
  std::vector<int32_t> tails(n);
  for (size_t i = 0; i < n; ++i) tails[i] = static_cast<int32_t>(i);
  const ColumnPtr tcol = Column::Make(TypeTag::kInt, tails);
  // Every side is a view at offset `off`.
  auto bat = [&](const ColumnPtr& h, const ColumnPtr& t) {
    return Bat::Make(BatSide::Materialized(h, off),
                     BatSide::Materialized(t, off), len);
  };
  auto rows = [](const BatPtr& b) {
    std::vector<std::pair<Scalar, Scalar>> out;
    for (size_t i = 0; i < b->size(); ++i)
      out.emplace_back(b->HeadAt(i), b->TailAt(i));
    return out;
  };

  const DecodeCounts before = CachedDecodes();
  engine::GroupResult want = engine::GroupBy(bat(hs[0], k1[0])).ValueOrDie();
  engine::GroupResult want2 =
      engine::SubGroupBy(bat(hs[0], k2[0]), want.map).ValueOrDie();
  const auto want_unique = rows(engine::Kunique(bat(k1[0], tcol)).ValueOrDie());
  ASSERT_GT(want.reps->size(), 1u);
  for (const ColumnPtr& h : hs) {
    for (size_t a = 0; a < k1.size(); ++a) {
      engine::GroupResult g = engine::GroupBy(bat(h, k1[a])).ValueOrDie();
      ASSERT_EQ(TailOids(g.map), TailOids(want.map)) << "key repr " << a;
      ASSERT_EQ(TailOids(g.reps), TailOids(want.reps)) << "key repr " << a;
      // The second key raw beside an encoded first key (a column a commit
      // replaced), and every other mix.
      for (size_t b = 0; b < k2.size(); ++b) {
        engine::GroupResult g2 =
            engine::SubGroupBy(bat(h, k2[b]), g.map).ValueOrDie();
        ASSERT_EQ(TailOids(g2.map), TailOids(want2.map)) << a << "/" << b;
        ASSERT_EQ(TailOids(g2.reps), TailOids(want2.reps)) << a << "/" << b;
      }
      EXPECT_EQ(rows(engine::Kunique(bat(k1[a], tcol)).ValueOrDie()),
                want_unique)
          << "key repr " << a;
    }
  }
  EXPECT_EQ(CachedDecodes().decodes, before.decodes);
}

TEST(KernelShapeTest, CodeSpaceGroupingMatchesValuesForCodes) {
  CheckCodeSpaceGrouping<int32_t>(1410, 200, 1);
  CheckCodeSpaceGrouping<int32_t>(1411, 20000, 2);
  CheckCodeSpaceGrouping<int64_t>(1412, 3000, 4);
}

TEST(KernelShapeTest, CodeSpaceGroupingMatchesValuesForDictionaries) {
  CheckCodeSpaceGrouping<std::string>(1413, 200, 1);
  CheckCodeSpaceGrouping<std::string>(1414, 5000, 2);
  CheckCodeSpaceGrouping<std::string>(1415, 100000, 4);
}

}  // namespace
}  // namespace recycledb
