// Heap-allocation gate of the grouping and projection kernels.
//
// Linked with the counting operator new of alloc_counter.cc. Counts are
// pinned as "independent of the row count", not as timings:
//  - GroupBy over 10k rows and over 300k rows with the same 3 groups makes
//    the same number of allocations (the group table is sized by groups),
//    over raw values and over u8 dictionary codes (a 256-slot array);
//  - a projection join whose left values all land in the right window
//    makes three allocations for 1k and for 100k rows: the gathered tail
//    and the bat, with no position lists and no oid head.

#include <gtest/gtest.h>

#include <vector>

#include "engine/operators.h"
#include "tests/alloc/alloc_counter.h"

namespace recycledb {
namespace {

using alloc_test::AllocCount;

uint64_t GroupByAllocs(size_t rows) {
  std::vector<int32_t> keys(rows);
  for (size_t i = 0; i < rows; ++i) keys[i] = static_cast<int32_t>(i % 3);
  BatPtr kb = Bat::DenseHead(Column::Make(TypeTag::kInt, std::move(keys)));
  const uint64_t before = AllocCount();
  {
    engine::GroupResult g = engine::GroupBy(kb).ValueOrDie();
    EXPECT_EQ(g.reps->size(), 3u);
  }
  return AllocCount() - before;
}

TEST(KernelAllocTest, GroupByAllocationsDependOnGroupsNotRows) {
  EXPECT_EQ(GroupByAllocs(10000), GroupByAllocs(300000));
}

uint64_t CodeGroupByAllocs(size_t rows) {
  const char* kFlags[] = {"A", "N", "R"};
  std::vector<std::string> keys(rows);
  for (size_t i = 0; i < rows; ++i) keys[i] = kFlags[i % 3];
  EncodingPtr enc = ColumnEncoding::TryDict(keys);
  EXPECT_TRUE(enc->VisitCodes([](const auto& codes) {
    return sizeof(codes[0]) == 1;
  }));
  BatPtr kb = Bat::DenseHead(Column::MakeEncoded(TypeTag::kStr, enc));
  const uint64_t before = AllocCount();
  {
    engine::GroupResult g = engine::GroupBy(kb).ValueOrDie();
    EXPECT_EQ(g.reps->size(), 3u);
  }
  return AllocCount() - before;
}

TEST(KernelAllocTest, GroupByOverU8CodesAllocatesByGroupsNotRows) {
  EXPECT_EQ(CodeGroupByAllocs(10000), CodeGroupByAllocs(300000));
}

uint64_t ProjectionAllocs(size_t rows, TypeTag type) {
  const size_t rn = 2 * rows;
  std::vector<Oid> cand(rows);
  for (size_t i = 0; i < rows; ++i) cand[i] = (i * 7) % rn;
  BatPtr l = Bat::Make(
      BatSide::Dense(0),
      BatSide::Materialized(Column::Make(TypeTag::kOid, std::move(cand))),
      rows);
  BatPtr r = type == TypeTag::kDbl
                 ? Bat::DenseHead(Column::Make(TypeTag::kDbl,
                                               std::vector<double>(rn, 1.5)))
                 : Bat::DenseHead(Column::Make(TypeTag::kInt,
                                               std::vector<int32_t>(rn, 7)));
  const uint64_t before = AllocCount();
  {
    BatPtr j = engine::Join(l, r).ValueOrDie();
    EXPECT_TRUE(j->head().dense());
    EXPECT_EQ(j->size(), rows);
  }
  return AllocCount() - before;
}

TEST(KernelAllocTest, FullMatchProjectionAllocatesAFixedCount) {
  for (TypeTag t : {TypeTag::kInt, TypeTag::kDbl}) {
    // The tail's value vector, its column and the result bat.
    EXPECT_EQ(ProjectionAllocs(1000, t), 3u) << TypeName(t);
    EXPECT_EQ(ProjectionAllocs(100000, t), 3u) << TypeName(t);
  }
}

}  // namespace
}  // namespace recycledb
