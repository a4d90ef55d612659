#ifndef RECYCLEDB_BAT_COLUMN_H_
#define RECYCLEDB_BAT_COLUMN_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <type_traits>
#include <variant>
#include <vector>

#include "bat/encoding.h"
#include "bat/scalar.h"
#include "bat/types.h"

namespace recycledb {

class Column;
using ColumnPtr = std::shared_ptr<const Column>;

/// Process-wide count of cached whole-column decodes of encoded-native
/// columns (Column::Data) and the raw bytes they materialised. Exported by
/// QueryService::MetricsSnapshot as bat_decodes / bat_decoded_bytes: a
/// kernel that falls back to Data() shows up here.
struct DecodeCounts {
  uint64_t decodes = 0;
  uint64_t bytes = 0;
};
DecodeCounts CachedDecodes();

/// Physical types an encoding can represent (FOR integers, dictionary
/// strings); only columns of these types can be encoded-native.
template <typename T>
inline constexpr bool kEncodable =
    std::is_same_v<T, int32_t> || std::is_same_v<T, int64_t> ||
    std::is_same_v<T, Oid> || std::is_same_v<T, std::string>;

/// A typed, immutable column of values: the physical storage unit behind a
/// BAT side. Columns are shared freely between BATs via shared_ptr, which is
/// how the kernel implements its "data structure sharing to minimise the
/// need for taking a complete copy" (paper §2.3).
///
/// Properties (`sorted`, `key`) steer operator implementation choices: a
/// range select over a sorted column returns a zero-copy view, a join whose
/// inner is a key column skips duplicate handling.
class Column {
 public:
  using Storage =
      std::variant<std::vector<int8_t>, std::vector<int32_t>,
                   std::vector<int64_t>, std::vector<Oid>, std::vector<double>,
                   std::vector<std::string>>;

  Column(TypeTag type, Storage storage);

  /// Builds a column from a typed vector. T must be the physical type of
  /// `type` (e.g., int32_t for kDate).
  template <typename T>
  static std::shared_ptr<Column> Make(TypeTag type, std::vector<T> v) {
    return std::make_shared<Column>(type, Storage(std::move(v)));
  }

  /// Builds an encoded-native column: the encoding IS the storage. Kernels
  /// read its codes or decode the rows they need into scratch (Values);
  /// only Data() materialises — and caches — the whole raw column
  /// (thread-safe, counted by CachedDecodes()). MemoryBytes() reports the
  /// encoded size and stays stable across that decode, so pool byte
  /// attribution never shifts under a live entry — which is also why the
  /// cached copy is memory no budget sees, and why kernels avoid it.
  static std::shared_ptr<Column> MakeEncoded(TypeTag type, EncodingPtr enc);

  TypeTag type() const { return type_; }
  size_t size() const;

  /// The whole raw column. On an encoded-native column the first call
  /// decodes and caches it; kernels use Values() instead.
  template <typename T>
  const std::vector<T>& Data() const {
    if (native_ && !decoded_.load(std::memory_order_acquire)) DecodeSlow();
    return std::get<std::vector<T>>(storage_);
  }

  /// Raw values of rows [offset, offset + n). Raw storage is returned in
  /// place; an encoded-native column that is not already decoded decodes
  /// just those rows into `*scratch`, which must outlive the pointer. The
  /// column itself never changes.
  template <typename T>
  const T* Values(size_t offset, size_t n, std::vector<T>* scratch) const {
    if constexpr (kEncodable<T>) {
      if (native_ && !decoded_.load(std::memory_order_acquire)) {
        encoding_->DecodeTo(scratch, offset, n);
        return scratch->data();
      }
    }
    return std::get<std::vector<T>>(storage_).data() + offset;
  }

  /// The attached encoding, or null. Kernels probe this for compressed
  /// fast paths (code-space range selects, per-dictionary-value LIKE).
  const ColumnEncoding* encoding() const { return encoding_.get(); }
  const EncodingPtr& shared_encoding() const { return encoding_; }

  /// True when the encoding is the only materialised representation (raw
  /// storage decodes lazily); false for raw columns and for persistent
  /// columns that merely carry an encoding sidecar.
  bool encoded_native() const { return native_; }

  /// Attaches an encoding sidecar to a raw column (Catalog::BuildEncodings).
  /// Pre-serving only: callers must guarantee no concurrent readers.
  void AttachEncoding(EncodingPtr enc);

  /// Ascending-sorted property (nils, if any, must lead).
  bool sorted() const { return sorted_; }
  void set_sorted(bool s) { sorted_ = s; }

  /// All values distinct.
  bool key() const { return key_; }
  void set_key(bool k) { key_ = k; }

  /// Persistent columns belong to the catalog; they are not accounted as
  /// recycled intermediate memory (paper Table III reports Bind memory 0).
  bool persistent() const { return persistent_; }
  void set_persistent(bool p) { persistent_ = p; }

  /// Heap bytes held by this column (strings include character data).
  size_t MemoryBytes() const { return mem_bytes_; }

  /// Boxed element access (slow path: printing, tests, tiny results).
  Scalar GetScalar(size_t i) const;

  /// Detects and sets the sorted property by scanning.
  void ComputeSorted();

 private:
  /// Lazy decode of an encoded-native column into raw storage; runs at most
  /// once, and publishes via `decoded_` (release) so concurrent Data()
  /// readers either take the call_once or see the finished storage.
  void DecodeSlow() const;

  TypeTag type_;
  mutable Storage storage_;
  EncodingPtr encoding_;
  bool native_ = false;
  mutable std::atomic<bool> decoded_{false};
  mutable std::once_flag decode_once_;
  bool sorted_ = false;
  bool key_ = false;
  bool persistent_ = false;
  size_t mem_bytes_ = 0;
};

}  // namespace recycledb

#endif  // RECYCLEDB_BAT_COLUMN_H_
