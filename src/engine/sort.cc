#include <algorithm>
#include <numeric>

#include "engine/detail.h"
#include "engine/materialize.h"
#include "engine/operators.h"

namespace recycledb::engine {

using detail::AnySideReader;

Result<BatPtr> SortTail(const BatPtr& b) {
  const BatSide& tail = b->tail();
  size_t n = b->size();
  if (tail.dense() || (!tail.dense() && tail.col->sorted() &&
                       tail.offset == 0 && n == tail.col->size())) {
    return b;  // already ordered
  }
  TypeTag t = tail.LogicalType();
  return VisitPhysical(t, [&](auto tag) -> Result<BatPtr> {
    using T = typename decltype(tag)::type;
    AnySideReader<T> reader(tail, n);
    SelVector sel(n);
    std::iota(sel.begin(), sel.end(), 0u);
    std::stable_sort(sel.begin(), sel.end(), [&](uint32_t a, uint32_t c) {
      return reader[a] < reader[c];
    });
    BatSide new_tail = TakeSide(tail, n, sel);
    if (!new_tail.dense()) {
      const_cast<Column*>(new_tail.col.get())->set_sorted(true);
    }
    return Bat::Make(TakeSide(b->head(), n, sel), std::move(new_tail), n);
  });
}

Result<BatPtr> SortTailRev(const BatPtr& b) {
  const BatSide& tail = b->tail();
  size_t n = b->size();
  TypeTag t = tail.LogicalType();
  return VisitPhysical(t, [&](auto tag) -> Result<BatPtr> {
    using T = typename decltype(tag)::type;
    AnySideReader<T> reader(tail, n);
    SelVector sel(n);
    std::iota(sel.begin(), sel.end(), 0u);
    // Stable on the ORIGINAL order (like SortTail): ties keep their input
    // order rather than being reversed, which is what SQL implementations
    // conventionally produce for ORDER BY ... DESC.
    std::stable_sort(sel.begin(), sel.end(), [&](uint32_t a, uint32_t c) {
      return reader[c] < reader[a];
    });
    return Bat::Make(TakeSide(b->head(), n, sel), TakeSide(tail, n, sel), n);
  });
}

Result<BatPtr> Concat(const std::vector<BatPtr>& bats) {
  if (bats.empty()) return Status::InvalidArgument("concat of zero bats");
  if (bats.size() == 1) return bats[0];
  std::vector<const Bat*> raw;
  raw.reserve(bats.size());
  size_t total = 0;
  for (const auto& b : bats) {
    raw.push_back(b.get());
    total += b->size();
  }
  BatSide head = ConcatSides(raw, /*head_side=*/true);
  BatSide tail = ConcatSides(raw, /*head_side=*/false);
  return Bat::Make(std::move(head), std::move(tail), total);
}

}  // namespace recycledb::engine
