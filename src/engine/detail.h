#ifndef RECYCLEDB_ENGINE_DETAIL_H_
#define RECYCLEDB_ENGINE_DETAIL_H_

#include <type_traits>
#include <vector>

#include "bat/bat.h"
#include "util/check.h"

namespace recycledb::engine::detail {

/// Reads the first `n` rows of a side that may be dense (oid sequence) or
/// materialised. For non-oid physical types the side must be materialised.
/// An encoded-native side is decoded into the reader's own scratch, never
/// into the column (Column::Values).
template <typename T>
class AnySideReader {
 public:
  AnySideReader(const BatSide& s, size_t n) {
    if (s.dense()) {
      dense_ = true;
      seq_ = s.seq;
    } else {
      data_ = s.col->Values<T>(s.offset, n, &scratch_);
    }
  }
  AnySideReader(const AnySideReader&) = delete;
  AnySideReader& operator=(const AnySideReader&) = delete;

  T operator[](size_t i) const {
    if constexpr (std::is_same_v<T, Oid>) {
      if (dense_) return seq_ + i;
    }
    return data_[i];
  }

  bool dense() const { return dense_; }

 private:
  bool dense_ = false;
  Oid seq_ = 0;
  const T* data_ = nullptr;
  std::vector<T> scratch_;
};

/// Contiguous view of the first `n` values of a side for the vectorised
/// kernels. A materialised raw side is read in place (zero-copy — string
/// sides in particular are not copied); a dense oid run materialises, and
/// an encoded-native side decodes, into `*tmp`, so the column's own
/// storage never grows behind the pool's byte accounting.
template <typename T>
const T* RawSideArray(const BatSide& s, size_t n, std::vector<T>* tmp) {
  if (!s.dense()) return s.col->Values<T>(s.offset, n, tmp);
  tmp->resize(n);
  for (size_t i = 0; i < n; ++i) (*tmp)[i] = s.seq + i;
  return tmp->data();
}

/// True iff the two logical types share a physical representation, so that
/// typed operator code can treat them interchangeably.
inline bool PhysCompatible(TypeTag a, TypeTag b) {
  auto phys = [](TypeTag t) -> int {
    switch (t) {
      case TypeTag::kBit:
        return 1;
      case TypeTag::kInt:
      case TypeTag::kDate:
        return 2;
      case TypeTag::kLng:
        return 3;
      case TypeTag::kDbl:
        return 4;
      case TypeTag::kOid:
      case TypeTag::kVoid:
        return 5;
      case TypeTag::kStr:
        return 6;
    }
    return 0;
  };
  return phys(a) == phys(b);
}

inline bool IsNumeric(TypeTag t) {
  return t == TypeTag::kInt || t == TypeTag::kLng || t == TypeTag::kDbl ||
         t == TypeTag::kDate || t == TypeTag::kOid || t == TypeTag::kBit;
}

}  // namespace recycledb::engine::detail

#endif  // RECYCLEDB_ENGINE_DETAIL_H_
