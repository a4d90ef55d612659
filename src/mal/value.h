#ifndef RECYCLEDB_MAL_VALUE_H_
#define RECYCLEDB_MAL_VALUE_H_

#include <string>
#include <variant>
#include <vector>

#include "bat/bat.h"
#include "bat/scalar.h"
#include "mal/opcode.h"

namespace recycledb {

/// A MAL runtime value: either a scalar or a BAT reference.
///
/// Equality semantics follow the recycler's matching rule (paper §3.3):
/// scalars compare by value (possible at run time because all arguments are
/// known), while BAT arguments compare by *identity* — two bats match only
/// if they are the same materialised intermediate, which the bottom-up
/// sequence matching guarantees for preserved lineages (§4.1).
class MalValue {
 public:
  MalValue() = default;
  MalValue(Scalar s) : v_(std::move(s)) {}  // NOLINT: implicit by design
  MalValue(BatPtr b) : v_(std::move(b)) {}  // NOLINT

  bool is_bat() const { return std::holds_alternative<BatPtr>(v_); }
  const BatPtr& bat() const { return std::get<BatPtr>(v_); }
  const Scalar& scalar() const { return std::get<Scalar>(v_); }

  /// Matching equality: scalar by value, bat by identity.
  bool MatchEq(const MalValue& o) const {
    if (is_bat() != o.is_bat()) return false;
    if (is_bat()) return bat()->id() == o.bat()->id();
    return scalar() == o.scalar();
  }

  size_t MatchHash() const {
    if (is_bat()) return std::hash<uint64_t>()(bat()->id()) ^ 0x5bd1e995u;
    return scalar().Hash();
  }

  std::string ToString() const {
    if (is_bat()) return bat()->ToString(4);
    return scalar().ToString();
  }

 private:
  std::variant<Scalar, BatPtr> v_;
};

/// The recycler's exact-match key hash over (opcode, argument values):
/// instructions whose opcodes are equal and whose arguments are MatchEq
/// pairwise hash equally. The interpreter computes it once per monitored
/// instruction; the recycle pool indexes its entries by it.
inline size_t MatchHash(Opcode op, const std::vector<MalValue>& args) {
  size_t h = static_cast<size_t>(op) * 0x9e3779b97f4a7c15ULL + 0x1234567;
  for (const MalValue& a : args) {
    h ^= a.MatchHash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

}  // namespace recycledb

#endif  // RECYCLEDB_MAL_VALUE_H_
