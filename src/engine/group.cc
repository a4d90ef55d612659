#include <array>
#include <functional>

#include "engine/detail.h"
#include "engine/materialize.h"
#include "engine/operators.h"

namespace recycledb::engine {

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

/// Numbers rows [0, n) of `keys` (paired with `prev` when non-null) by
/// group in first-occurrence order: `map[i]` (when map is non-null) gets
/// row i's group id and `first` each group's first row. Single-byte keys
/// without a previous grouping index a 256-slot array instead of hashing.
template <typename K>
void NumberGroups(const K* keys, const Oid* prev, size_t n, Oid* map,
                  SelVector* first) {
  if constexpr (std::is_same_v<K, uint8_t>) {
    if (prev == nullptr) {
      std::array<uint32_t, 256> gid;
      gid.fill(UINT32_MAX);
      for (size_t i = 0; i < n; ++i) {
        uint32_t& g = gid[keys[i]];
        if (g == UINT32_MAX) {
          g = static_cast<uint32_t>(first->size());
          first->push_back(static_cast<uint32_t>(i));
        }
        if (map != nullptr) map[i] = g;
      }
      return;
    }
  }
  GroupTable<K> table(keys, prev);
  for (size_t i = 0; i < n; ++i) {
    bool fresh;
    uint32_t g = table.Find(i, &fresh);
    if (fresh) first->push_back(static_cast<uint32_t>(i));
    if (map != nullptr) map[i] = g;
  }
}

/// Calls `f(keys)` with the first `n` keys of `side`: its codes when it is
/// encoded — codes map one-to-one to values, so groups, their ids and their
/// first rows are the same as over the values — and its values otherwise.
template <typename T, typename F>
void WithKeys(const BatSide& side, size_t n, F&& f) {
  if (!side.dense()) {
    if (const ColumnEncoding* enc = side.col->encoding()) {
      enc->VisitCodes(
          [&](const auto& codes) { f(codes.data() + side.offset); });
      return;
    }
  }
  std::vector<T> tmp;
  f(RawSideArray<T>(side, n, &tmp));
}

/// The oid heads of `side` at `rows`: a group's representative heads.
std::vector<Oid> HeadsAt(const BatSide& side, const SelVector& rows) {
  std::vector<Oid> out(rows.size());
  if (side.dense()) {
    for (size_t k = 0; k < rows.size(); ++k) out[k] = side.seq + rows[k];
  } else if (side.col->encoded_native()) {
    const ColumnEncoding& enc = *side.col->encoding();
    for (size_t k = 0; k < rows.size(); ++k)
      out[k] = enc.At<Oid>(side.offset + rows[k]);
  } else {
    const Oid* h = side.col->Data<Oid>().data() + side.offset;
    for (size_t k = 0; k < rows.size(); ++k) out[k] = h[rows[k]];
  }
  return out;
}

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
    SelVector sel;
    WithKeys<T>(head, n, [&](const auto* keys) {
      NumberGroups(keys, nullptr, n, nullptr, &sel);
    });
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
  size_t n = keys->size();
  std::vector<Oid> ptmp;
  const Oid* prev = prev_map == nullptr
                        ? nullptr
                        : RawSideArray<Oid>((*prev_map)->tail(), n, &ptmp);
  std::vector<Oid> map(n);
  SelVector first;
  WithKeys<T>(keys->tail(), n, [&](const auto* kv) {
    NumberGroups(kv, prev, n, map.data(), &first);
  });
  GroupResult out;
  out.map = Bat::DenseHead(Column::Make(TypeTag::kOid, std::move(map)));
  auto reps_col =
      Column::Make(TypeTag::kOid, HeadsAt(keys->head(), first));
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
