#include <functional>

#include "engine/detail.h"
#include "engine/materialize.h"
#include "engine/operators.h"

namespace recycledb::engine {

using detail::AnySideReader;
using detail::RawSideArray;

namespace {

/// Open-addressing table of the distinct keys of a row array — key values,
/// optionally paired with each row's previous group id — behind grouping
/// and Kunique. It is sized by the number of groups, not rows: it starts at
/// kMinSlots and doubles past half load, rehashing from the stored hashes,
/// so a low-cardinality key never allocates per row. Each slot holds its
/// group's hash, first row and id; ids are handed out in first-occurrence
/// order. The hash is std::hash<T> mixed before masking and keys compare
/// with ==, so keys that compare equal (-0.0 and 0.0) share a group.
template <typename T>
class GroupTable {
 public:
  /// `keys` (and `prev`, when non-null) are indexed by row and must outlive
  /// the table.
  GroupTable(const T* keys, const Oid* prev)
      : keys_(keys), prev_(prev), slots_(kMinSlots), mask_(kMinSlots - 1) {}

  /// The group id of row `i`; `*fresh` is set when row i opened the group.
  uint32_t Find(size_t i, bool* fresh) {
    if (2 * (groups_ + 1) > slots_.size()) Grow();
    const uint64_t h = Hash(i);
    for (size_t s = h & mask_;; s = (s + 1) & mask_) {
      Slot& slot = slots_[s];
      if (slot.row == kEmpty) {
        slot = Slot{h, static_cast<uint32_t>(i), groups_};
        *fresh = true;
        return groups_++;
      }
      if (slot.hash == h && Same(slot.row, i)) {
        *fresh = false;
        return slot.gid;
      }
    }
  }

 private:
  static constexpr size_t kMinSlots = 16;
  static constexpr uint32_t kEmpty = UINT32_MAX;

  struct Slot {
    uint64_t hash = 0;
    uint32_t row = kEmpty;
    uint32_t gid = 0;
  };

  uint64_t Hash(size_t i) const {
    uint64_t h = std::hash<T>()(keys_[i]);
    if (prev_ != nullptr) h ^= prev_[i] * 0x9e3779b97f4a7c15ULL;
    // murmur3's 64-bit finaliser: std::hash is the identity for integers.
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
  }

  bool Same(size_t a, size_t b) const {
    return keys_[a] == keys_[b] && (prev_ == nullptr || prev_[a] == prev_[b]);
  }

  void Grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.row == kEmpty) continue;
      size_t s = slot.hash & mask_;
      while (slots_[s].row != kEmpty) s = (s + 1) & mask_;
      slots_[s] = slot;
    }
  }

  const T* keys_;
  const Oid* prev_;
  std::vector<Slot> slots_;
  size_t mask_;
  uint32_t groups_ = 0;
};

}  // namespace

Result<BatPtr> Kunique(const BatPtr& b) {
  const BatSide& head = b->head();
  // Dense heads and declared-key columns are already duplicate-free.
  if (head.dense()) return b;
  if (head.col->key()) return b;
  TypeTag t = head.LogicalType();
  return VisitPhysical(t, [&](auto tag) -> Result<BatPtr> {
    using T = typename decltype(tag)::type;
    size_t n = b->size();
    GroupTable<T> table(head.col->Data<T>().data() + head.offset, nullptr);
    SelVector sel;
    for (size_t i = 0; i < n; ++i) {
      bool fresh;
      table.Find(i, &fresh);
      if (fresh) sel.push_back(static_cast<uint32_t>(i));
    }
    if (sel.size() == n) return b;
    return Bat::Make(TakeSide(head, n, sel), TakeSide(b->tail(), n, sel),
                     sel.size());
  });
}

namespace {

/// Groups `keys` by tail value, within the groups of `prev` when given
/// (SubGroupBy) or as one group (GroupBy).
template <typename T>
GroupResult GroupByTyped(const BatPtr& keys, const BatPtr* prev_map) {
  AnySideReader<Oid> heads(keys->head());
  size_t n = keys->size();
  // Key reads hoisted to a raw array: materialised tails (in particular
  // string tails) are read in place instead of copied per row.
  std::vector<T> ktmp;
  const T* kv = RawSideArray<T>(keys->tail(), n, &ktmp);
  std::vector<Oid> ptmp;
  const Oid* prev = prev_map == nullptr
                        ? nullptr
                        : RawSideArray<Oid>((*prev_map)->tail(), n, &ptmp);
  GroupTable<T> table(kv, prev);
  std::vector<Oid> map(n);
  std::vector<Oid> reps;
  for (size_t i = 0; i < n; ++i) {
    bool fresh;
    map[i] = table.Find(i, &fresh);
    if (fresh) reps.push_back(heads[i]);
  }
  GroupResult out;
  out.map = Bat::DenseHead(Column::Make(TypeTag::kOid, std::move(map)));
  auto reps_col = Column::Make(TypeTag::kOid, std::move(reps));
  reps_col->set_key(true);
  out.reps = Bat::DenseHead(std::move(reps_col));
  return out;
}

}  // namespace

Result<GroupResult> GroupBy(const BatPtr& keys) {
  TypeTag t = keys->tail().LogicalType();
  return VisitPhysical(t, [&](auto tag) -> Result<GroupResult> {
    using T = typename decltype(tag)::type;
    return GroupByTyped<T>(keys, nullptr);
  });
}

Result<GroupResult> SubGroupBy(const BatPtr& keys, const BatPtr& prev_map) {
  if (keys->size() != prev_map->size())
    return Status::InvalidArgument("subgroupby: misaligned inputs");
  TypeTag t = keys->tail().LogicalType();
  return VisitPhysical(t, [&](auto tag) -> Result<GroupResult> {
    using T = typename decltype(tag)::type;
    return GroupByTyped<T>(keys, &prev_map);
  });
}

}  // namespace recycledb::engine
