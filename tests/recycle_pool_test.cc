#include <gtest/gtest.h>

#include "core/policies.h"
#include "core/recycle_pool.h"
#include "engine/operators.h"

namespace recycledb {
namespace {

BatPtr FreshBat(size_t n) {
  return Bat::DenseHead(
      Column::Make(TypeTag::kLng, std::vector<int64_t>(n, 7)));
}

PoolEntry MakeEntry(Opcode op, std::vector<MalValue> args,
                    std::vector<MalValue> results, double cost = 1.0,
                    uint64_t query = 1) {
  PoolEntry e;
  e.op = op;
  e.args = std::move(args);
  e.results = std::move(results);
  e.cost_ms = cost;
  e.result_rows = e.results[0].is_bat() ? e.results[0].bat()->size() : 0;
  e.admit_query = query;
  e.last_query = query;
  return e;
}

TEST(PoolTest, ExactMatch) {
  RecyclePool pool;
  auto base = FreshBat(10);
  auto res = FreshBat(5);
  std::vector<MalValue> args{MalValue(base), MalValue(Scalar::Int(3))};
  pool.Admit(MakeEntry(Opcode::kUselect, args, {MalValue(res)}));

  EXPECT_NE(pool.FindExact(Opcode::kUselect, args), nullptr);
  // Different scalar: no match.
  std::vector<MalValue> args2{MalValue(base), MalValue(Scalar::Int(4))};
  EXPECT_EQ(pool.FindExact(Opcode::kUselect, args2), nullptr);
  // Different bat identity: no match.
  auto other = FreshBat(10);
  std::vector<MalValue> args3{MalValue(other), MalValue(Scalar::Int(3))};
  EXPECT_EQ(pool.FindExact(Opcode::kUselect, args3), nullptr);
  // Different opcode: no match.
  EXPECT_EQ(pool.FindExact(Opcode::kSelect, args), nullptr);
}

TEST(PoolTest, LineageChildrenTracked) {
  RecyclePool pool;
  auto base = FreshBat(10);
  auto mid = FreshBat(6);
  auto top = FreshBat(3);
  uint64_t parent = pool.Admit(MakeEntry(
      Opcode::kSelectNotNil, {MalValue(base)}, {MalValue(mid)}));
  uint64_t child = pool.Admit(MakeEntry(
      Opcode::kKunique, {MalValue(mid)}, {MalValue(top)}));

  EXPECT_EQ(pool.Get(parent)->children, 1);
  EXPECT_EQ(pool.Get(child)->children, 0);
  EXPECT_FALSE(pool.Get(parent)->IsLeaf());
  EXPECT_TRUE(pool.Get(child)->IsLeaf());

  pool.Remove(child);
  EXPECT_EQ(pool.Get(parent)->children, 0);
}

TEST(PoolTest, MemoryAttributionDedupesSharedColumns) {
  RecyclePool pool;
  auto base = FreshBat(100);
  size_t bytes = base->MemoryBytes();
  ASSERT_GT(bytes, 0u);
  uint64_t a = pool.Admit(
      MakeEntry(Opcode::kSelectNotNil, {MalValue(FreshBat(1))},
                {MalValue(base)}));
  EXPECT_EQ(pool.total_bytes(), bytes + FreshBat(1)->MemoryBytes() * 0);
  // A viewpoint over the same column owns nothing; the owner gains a child.
  auto view = engine::Slice(base, 0, base->size()).ValueOrDie();
  (void)view;
  BatPtr rev = Bat::Make(base->tail(), base->head(), base->size());
  uint64_t b = pool.Admit(
      MakeEntry(Opcode::kReverse, {MalValue(base)}, {MalValue(rev)}));
  EXPECT_EQ(pool.Get(b)->owned_bytes, 0u);
  EXPECT_GE(pool.Get(a)->children, 1);
  size_t before = pool.total_bytes();
  pool.Remove(b);
  EXPECT_EQ(pool.total_bytes(), before) << "column still owned by a";
  pool.Remove(a);
  EXPECT_EQ(pool.total_bytes(), 0u);
}

TEST(PoolTest, ProducerLookup) {
  RecyclePool pool;
  auto res = FreshBat(5);
  uint64_t id = pool.Admit(
      MakeEntry(Opcode::kSelectNotNil, {MalValue(FreshBat(9))},
                {MalValue(res)}));
  ASSERT_NE(pool.ProducerOf(res->id()), nullptr);
  EXPECT_EQ(pool.ProducerOf(res->id())->id, id);
  EXPECT_EQ(pool.ProducerOf(999999), nullptr);
}

TEST(PoolTest, SubsetLattice) {
  RecyclePool pool;
  pool.AddSubsetEdge(2, 1);
  pool.AddSubsetEdge(3, 2);
  EXPECT_TRUE(pool.IsSubsetOf(3, 1));  // transitive
  EXPECT_TRUE(pool.IsSubsetOf(2, 1));
  EXPECT_TRUE(pool.IsSubsetOf(1, 1));  // reflexive
  EXPECT_FALSE(pool.IsSubsetOf(1, 3));
}

TEST(PoolTest, InvalidationByColumn) {
  RecyclePool pool;
  ColumnId orders_date{0, 1};
  ColumnId lineitem_flag{1, 0};

  PoolEntry a = MakeEntry(Opcode::kSelectNotNil, {MalValue(FreshBat(2))},
                          {MalValue(FreshBat(2))});
  a.deps = {orders_date};
  PoolEntry b = MakeEntry(Opcode::kKunique, {MalValue(FreshBat(2))},
                          {MalValue(FreshBat(2))});
  b.deps = {lineitem_flag};
  PoolEntry c = MakeEntry(Opcode::kReverse, {MalValue(FreshBat(2))},
                          {MalValue(FreshBat(2))});
  c.deps = {orders_date, lineitem_flag};
  pool.Admit(std::move(a));
  uint64_t keep = pool.Admit(std::move(b));
  pool.Admit(std::move(c));

  EXPECT_EQ(pool.InvalidateColumns({orders_date}), 2u);
  EXPECT_EQ(pool.num_entries(), 1u);
  EXPECT_NE(pool.Get(keep), nullptr);
}

TEST(PoolTest, ReusedMetrics) {
  RecyclePool pool;
  PoolEntry a = MakeEntry(Opcode::kSelectNotNil, {MalValue(FreshBat(2))},
                          {MalValue(FreshBat(100))});
  a.reuses = 2;
  PoolEntry b = MakeEntry(Opcode::kKunique, {MalValue(FreshBat(2))},
                          {MalValue(FreshBat(100))});
  pool.Admit(std::move(a));
  pool.Admit(std::move(b));
  EXPECT_EQ(pool.ReusedEntries(), 1u);
  EXPECT_GT(pool.ReusedBytes(), 0u);
  EXPECT_LT(pool.ReusedBytes(), pool.total_bytes());
}

TEST(CreditLedgerTest, KeepAllAlwaysAdmits) {
  CreditLedger ledger(AdmissionKind::kKeepAll, 0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(ledger.TryAdmit(1, 0));
}

TEST(CreditLedgerTest, CreditsExhaust) {
  CreditLedger ledger(AdmissionKind::kCredit, 2);
  EXPECT_TRUE(ledger.TryAdmit(1, 0));
  EXPECT_TRUE(ledger.TryAdmit(1, 0));
  EXPECT_FALSE(ledger.TryAdmit(1, 0));
  // Separate source instructions have separate budgets.
  EXPECT_TRUE(ledger.TryAdmit(1, 1));
  EXPECT_TRUE(ledger.TryAdmit(2, 0));
}

TEST(CreditLedgerTest, LocalReuseReturnsCreditImmediately) {
  CreditLedger ledger(AdmissionKind::kCredit, 1);
  EXPECT_TRUE(ledger.TryAdmit(1, 0));
  ledger.NoteReuse(1, 0, /*local=*/true);
  EXPECT_TRUE(ledger.TryAdmit(1, 0));
}

TEST(CreditLedgerTest, GlobalReuseReturnsCreditOnEviction) {
  CreditLedger ledger(AdmissionKind::kCredit, 1);
  EXPECT_TRUE(ledger.TryAdmit(1, 0));
  ledger.NoteReuse(1, 0, /*local=*/false);
  EXPECT_FALSE(ledger.TryAdmit(1, 0)) << "global reuse alone returns nothing";
  ledger.NoteEviction(1, 0, /*had_global_reuse=*/true);
  EXPECT_TRUE(ledger.TryAdmit(1, 0));
}

TEST(CreditLedgerTest, UnreusedEvictionReturnsNothing) {
  CreditLedger ledger(AdmissionKind::kCredit, 1);
  EXPECT_TRUE(ledger.TryAdmit(1, 0));
  ledger.NoteEviction(1, 0, /*had_global_reuse=*/false);
  EXPECT_FALSE(ledger.TryAdmit(1, 0));
}

TEST(CreditLedgerTest, AdaptGraduatesReusedSources) {
  CreditLedger reused(AdmissionKind::kAdaptiveCredit, 2);
  EXPECT_TRUE(reused.TryAdmit(1, 0));
  reused.NoteReuse(1, 0, /*local=*/false);
  EXPECT_TRUE(reused.TryAdmit(1, 0));
  // Past the threshold: unlimited because it proved itself.
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(reused.TryAdmit(1, 0));

  CreditLedger unreused(AdmissionKind::kAdaptiveCredit, 2);
  EXPECT_TRUE(unreused.TryAdmit(1, 0));
  EXPECT_TRUE(unreused.TryAdmit(1, 0));
  for (int i = 0; i < 20; ++i) EXPECT_FALSE(unreused.TryAdmit(1, 0));
}

TEST(BenefitTest, WeightsFollowEq2) {
  PoolEntry never = MakeEntry(Opcode::kKunique, {MalValue(FreshBat(1))},
                              {MalValue(FreshBat(1))}, /*cost=*/10.0);
  EXPECT_DOUBLE_EQ(EntryBenefit(never, EvictionKind::kBenefit, 0), 1.0);

  PoolEntry local = never;
  local.reuses = 3;
  local.local_reuse = true;
  EXPECT_DOUBLE_EQ(EntryBenefit(local, EvictionKind::kBenefit, 0), 1.0)
      << "local-only reuse keeps the minimal weight";

  PoolEntry global = never;
  global.reuses = 3;
  global.global_reuse = true;
  EXPECT_DOUBLE_EQ(EntryBenefit(global, EvictionKind::kBenefit, 0), 30.0);
}

TEST(BenefitTest, HistoryAgesBenefit) {
  PoolEntry e = MakeEntry(Opcode::kKunique, {MalValue(FreshBat(1))},
                          {MalValue(FreshBat(1))}, /*cost=*/10.0);
  e.reuses = 1;
  e.global_reuse = true;
  e.admit_ms = 0;
  double young = EntryBenefit(e, EvictionKind::kHistory, 10);
  double old = EntryBenefit(e, EvictionKind::kHistory, 1000);
  EXPECT_GT(young, old);
}

TEST(EvictionTest, LruEvictsOldestLeaf) {
  RecyclePool pool;
  PoolEntry a = MakeEntry(Opcode::kKunique, {MalValue(FreshBat(1))},
                          {MalValue(FreshBat(1))});
  a.last_use_seq = 1;
  PoolEntry b = MakeEntry(Opcode::kKunique, {MalValue(FreshBat(1))},
                          {MalValue(FreshBat(1))});
  b.last_use_seq = 5;
  uint64_t ida = pool.Admit(std::move(a));
  uint64_t idb = pool.Admit(std::move(b));

  size_t evicted = EvictForEntries(&pool, EvictionKind::kLru,
                                   /*max_entries=*/2, /*need=*/1,
                                   /*protected_query=*/99, 0,
                                   [](const PoolEntry&) {});
  EXPECT_EQ(evicted, 1u);
  EXPECT_EQ(pool.Get(ida), nullptr) << "older leaf evicted";
  EXPECT_NE(pool.Get(idb), nullptr);
}

TEST(EvictionTest, LineageRespected) {
  RecyclePool pool;
  auto base = FreshBat(10);
  auto mid = FreshBat(6);
  PoolEntry parent = MakeEntry(Opcode::kSelectNotNil,
                               {MalValue(base)}, {MalValue(mid)});
  parent.last_use_seq = 1;  // older than the child
  PoolEntry child = MakeEntry(Opcode::kKunique, {MalValue(mid)},
                              {MalValue(FreshBat(3))});
  child.last_use_seq = 2;
  uint64_t pid = pool.Admit(std::move(parent));
  uint64_t cid = pool.Admit(std::move(child));

  EvictForEntries(&pool, EvictionKind::kLru, 2, 1, 99, 0,
                  [](const PoolEntry&) {});
  // The parent is older, but it is not a leaf: the child must go first.
  EXPECT_NE(pool.Get(pid), nullptr);
  EXPECT_EQ(pool.Get(cid), nullptr);
}

TEST(EvictionTest, CurrentQueryProtected) {
  RecyclePool pool;
  PoolEntry mine = MakeEntry(Opcode::kKunique, {MalValue(FreshBat(1))},
                             {MalValue(FreshBat(1))}, 1.0, /*query=*/7);
  PoolEntry other = MakeEntry(Opcode::kKunique, {MalValue(FreshBat(1))},
                              {MalValue(FreshBat(1))}, 1.0, /*query=*/3);
  mine.last_use_seq = 1;   // older, but protected
  other.last_use_seq = 9;
  uint64_t idm = pool.Admit(std::move(mine));
  uint64_t ido = pool.Admit(std::move(other));

  EvictForEntries(&pool, EvictionKind::kLru, 2, 1, /*protected_query=*/7, 0,
                  [](const PoolEntry&) {});
  EXPECT_NE(pool.Get(idm), nullptr);
  EXPECT_EQ(pool.Get(ido), nullptr);
}

TEST(EvictionTest, ProtectionFallbackWhenPoolFull) {
  RecyclePool pool;
  PoolEntry mine = MakeEntry(Opcode::kKunique, {MalValue(FreshBat(1))},
                             {MalValue(FreshBat(1))}, 1.0, /*query=*/7);
  uint64_t idm = pool.Admit(std::move(mine));
  // Only the protected entry exists; the §4.3 exception applies.
  size_t evicted = EvictForEntries(&pool, EvictionKind::kLru, 1, 1, 7, 0,
                                   [](const PoolEntry&) {});
  EXPECT_EQ(evicted, 1u);
  EXPECT_EQ(pool.Get(idm), nullptr);
}

TEST(EvictionTest, BenefitKeepsProvenEntries) {
  RecyclePool pool;
  PoolEntry cheap = MakeEntry(Opcode::kKunique, {MalValue(FreshBat(1))},
                              {MalValue(FreshBat(1))}, /*cost=*/100.0);
  // expensive but never reused
  PoolEntry proven = MakeEntry(Opcode::kKunique, {MalValue(FreshBat(1))},
                               {MalValue(FreshBat(1))}, /*cost=*/1.0);
  proven.reuses = 50;
  proven.global_reuse = true;  // benefit 50 > 10
  uint64_t idc = pool.Admit(std::move(cheap));
  uint64_t idp = pool.Admit(std::move(proven));

  EvictForEntries(&pool, EvictionKind::kBenefit, 2, 1, 99, 0,
                  [](const PoolEntry&) {});
  EXPECT_EQ(pool.Get(idc), nullptr)
      << "high potential that never materialised is evicted (Eq. 2)";
  EXPECT_NE(pool.Get(idp), nullptr);
}

TEST(EvictionTest, MemoryKnapsackFreesEnough) {
  RecyclePool pool;
  std::vector<uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    PoolEntry e = MakeEntry(Opcode::kKunique,
                            {MalValue(FreshBat(1))},
                            {MalValue(FreshBat(1000))},  // ~8 KB each
                            /*cost=*/1.0 + i);
    e.reuses = i;
    e.global_reuse = i > 0;
    ids.push_back(pool.Admit(std::move(e)));
  }
  size_t total = pool.total_bytes();
  size_t max_bytes = total;  // full
  size_t need = total / 2;   // must free half
  EvictForMemory(&pool, EvictionKind::kBenefit, max_bytes, need, 99, 0,
                 [](const PoolEntry&) {});
  EXPECT_LE(pool.total_bytes() + need, max_bytes);
  // The highest-benefit entries survive.
  EXPECT_NE(pool.Get(ids.back()), nullptr);
  EXPECT_EQ(pool.Get(ids.front()), nullptr);
}

TEST(PoolTest, DumpRendersEntries) {
  RecyclePool pool;
  pool.Admit(MakeEntry(Opcode::kUselect,
                       {MalValue(FreshBat(3)), MalValue(Scalar::Str("R"))},
                       {MalValue(FreshBat(1))}));
  std::string s = pool.Dump();
  EXPECT_NE(s.find("algebra.uselect"), std::string::npos);
  EXPECT_NE(s.find("\"R\""), std::string::npos);
}

TEST(PoolTest, AdmittingAViewCountsTheUntrackedColumnItPins) {
  // A slice of an intermediate column costs its bat nothing, but admitting
  // it charges the whole column while no entry tracks it; the admission's
  // capacity estimate must see the same bytes.
  RecyclePool pool;
  BatPtr whole = FreshBat(100);
  BatPtr slice = engine::Slice(whole, 10, 20).ValueOrDie();
  BatPtr empty = engine::Slice(whole, 0, 0).ValueOrDie();
  const size_t col_bytes = whole->tail().col->MemoryBytes();
  ASSERT_EQ(slice->MemoryBytes(), 0u);
  EXPECT_EQ(pool.UntrackedViewBytes({MalValue(slice)}), col_bytes);
  EXPECT_EQ(pool.UntrackedViewBytes({MalValue(slice), MalValue(empty)}),
            col_bytes)
      << "one column, counted once";
  EXPECT_EQ(pool.UntrackedViewBytes({MalValue(whole)}), 0u)
      << "a whole column is in the bat's own MemoryBytes";

  uint64_t id = pool.Admit(
      MakeEntry(Opcode::kSlice, {MalValue(whole)}, {MalValue(slice)}));
  EXPECT_EQ(pool.total_bytes(), col_bytes) << "the charge the estimate saw";
  EXPECT_EQ(pool.UntrackedViewBytes({MalValue(empty)}), 0u)
      << "tracked columns are charged once";
  pool.Remove(id, /*force=*/true);
  EXPECT_EQ(pool.total_bytes(), 0u);

  auto persistent = Column::Make(TypeTag::kLng, std::vector<int64_t>(50, 1));
  persistent->set_persistent(true);
  BatPtr pview = engine::Slice(Bat::DenseHead(persistent), 5, 9).ValueOrDie();
  EXPECT_EQ(pool.UntrackedViewBytes({MalValue(pview)}), 0u);
}

}  // namespace
}  // namespace recycledb
