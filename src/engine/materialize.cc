#include "engine/materialize.h"

#include "util/check.h"

namespace recycledb::engine {

namespace {

bool IncreasingSel(const SelVector& sel) {
  for (size_t k = 1; k < sel.size(); ++k) {
    if (sel[k] <= sel[k - 1]) return false;
  }
  return true;
}

/// sel[k] == sel[0] + k for every k (vacuously true when empty).
bool ConsecutiveSel(const SelVector& sel) {
  if (sel.empty()) return true;
  if (sel.back() - sel.front() != sel.size() - 1) return false;
  return IncreasingSel(sel);
}

}  // namespace

BatSide TakeSide(const BatSide& side, size_t count, const SelVector& sel) {
  (void)count;
  if (side.dense()) {
    if (ConsecutiveSel(sel))
      return BatSide::Dense(side.seq + (sel.empty() ? 0 : sel.front()));
    std::vector<Oid> out;
    out.reserve(sel.size());
    for (uint32_t i : sel) out.push_back(side.seq + i);
    // A gather from a dense sequence at increasing positions stays sorted.
    bool increasing = IncreasingSel(sel);
    // Compress the fresh oid run: dense-derived gathers are the dominant
    // intermediate shape, and FOR usually narrows them to u16/u32 codes.
    EncodingPtr enc = ColumnEncoding::TryFor<Oid>(out);
    auto col = enc ? Column::MakeEncoded(TypeTag::kOid, std::move(enc))
                   : Column::Make(TypeTag::kOid, std::move(out));
    col->set_sorted(increasing);
    col->set_key(increasing);
    return BatSide::Materialized(std::move(col));
  }
  if (const EncodingPtr& enc = side.col->shared_encoding()) {
    // Gather in code space: the result column carries the (shared-dict or
    // same-base) encoding and is charged to the recycler at encoded size;
    // downstream kernels consume the codes without decompressing.
    auto col = Column::MakeEncoded(
        side.type, ColumnEncoding::Gather(*enc, side.offset, sel));
    col->set_sorted(side.col->sorted() && IncreasingSel(sel));
    return BatSide::Materialized(std::move(col));
  }
  return GatherRaw(
      side, sel.size(), [&](size_t k) { return sel[k]; },
      side.col->sorted() && IncreasingSel(sel));
}

BatSide SliceSide(const BatSide& side, size_t offset, size_t len) {
  if (side.dense()) return BatSide::Dense(side.seq + offset);
  BatSide out = side;
  out.offset = side.offset + offset;
  (void)len;
  return out;
}

BatSide ConcatSides(const std::vector<const Bat*>& bats, bool head_side) {
  RDB_CHECK(!bats.empty());
  const BatSide& first =
      head_side ? bats[0]->head() : bats[0]->tail();
  TypeTag t = first.LogicalType();
  return VisitPhysical(t, [&](auto tag) -> BatSide {
    using T = typename decltype(tag)::type;
    std::vector<T> out;
    size_t total = 0;
    for (const Bat* b : bats) total += b->size();
    out.reserve(total);
    for (const Bat* b : bats) {
      const BatSide& s = head_side ? b->head() : b->tail();
      size_t n = b->size();
      if (s.dense()) {
        if constexpr (std::is_same_v<T, Oid>) {
          for (size_t i = 0; i < n; ++i) out.push_back(s.seq + i);
        } else {
          RDB_UNREACHABLE();
        }
      } else {
        std::vector<T> scratch;
        const T* src = s.col->Values<T>(s.offset, n, &scratch);
        out.insert(out.end(), src, src + n);
      }
    }
    return BatSide::Materialized(Column::Make(t, std::move(out)));
  });
}

}  // namespace recycledb::engine
