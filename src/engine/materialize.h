#ifndef RECYCLEDB_ENGINE_MATERIALIZE_H_
#define RECYCLEDB_ENGINE_MATERIALIZE_H_

#include <cstdint>
#include <type_traits>
#include <vector>

#include "bat/bat.h"

namespace recycledb::engine {

/// Position list produced by selection/join candidate computation.
using SelVector = std::vector<uint32_t>;

/// Gathers `side` values at positions `sel` into a freshly materialised
/// side. A dense side gathered at consecutive positions stays dense (the
/// viewpoint rule of paper §2.2: no oid column is built); at any other
/// positions it materialises to an oid column. If the gathered positions
/// are a strictly increasing run and the source is sorted, the sortedness
/// property is preserved.
BatSide TakeSide(const BatSide& side, size_t count, const SelVector& sel);

/// Gathers the values of the materialised, raw `side` at positions
/// `pos(k)`, k in [0, n), into a fresh column marked `sorted` as given.
/// The one raw gather loop: TakeSide runs it over a SelVector, the
/// positional join straight over its probe values.
template <typename Pos>
BatSide GatherRaw(const BatSide& side, size_t n, Pos pos, bool sorted) {
  const TypeTag t = side.type;
  return VisitPhysical(t, [&](auto tag) -> BatSide {
    using T = typename decltype(tag)::type;
    const T* src = side.col->Data<T>().data() + side.offset;
    std::vector<T> out;
    if constexpr (std::is_trivially_copyable_v<T>) {
      out.resize(n);
      for (size_t k = 0; k < n; ++k) out[k] = src[pos(k)];
    } else {  // strings: copy-construct in place, not default + assign
      out.reserve(n);
      for (size_t k = 0; k < n; ++k) out.push_back(src[pos(k)]);
    }
    auto col = Column::Make(t, std::move(out));
    col->set_sorted(sorted);
    return BatSide::Materialized(std::move(col));
  });
}

/// Zero-copy view of `side` restricted to [offset, offset+len).
BatSide SliceSide(const BatSide& side, size_t offset, size_t len);

/// Concatenates the same-typed side of several bats into one materialised
/// side (used by combined subsumption's piecewise execution).
BatSide ConcatSides(const std::vector<const Bat*>& bats, bool head_side);

}  // namespace recycledb::engine

#endif  // RECYCLEDB_ENGINE_MATERIALIZE_H_
