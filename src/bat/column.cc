#include "bat/column.h"

#include <algorithm>

#include "util/check.h"

namespace recycledb {

namespace {

struct SizeVisitor {
  template <typename T>
  size_t operator()(const std::vector<T>& v) const {
    return v.size();
  }
};

struct MemVisitor {
  template <typename T>
  size_t operator()(const std::vector<T>& v) const {
    return v.capacity() * sizeof(T);
  }
  size_t operator()(const std::vector<std::string>& v) const {
    size_t bytes = v.capacity() * sizeof(std::string);
    for (const auto& s : v) bytes += s.capacity();
    return bytes;
  }
};

std::atomic<uint64_t> g_decodes{0};
std::atomic<uint64_t> g_decoded_bytes{0};

}  // namespace

DecodeCounts CachedDecodes() {
  return {g_decodes.load(std::memory_order_relaxed),
          g_decoded_bytes.load(std::memory_order_relaxed)};
}

Column::Column(TypeTag type, Storage storage)
    : type_(type), storage_(std::move(storage)) {
  mem_bytes_ = std::visit(MemVisitor{}, storage_);
}

std::shared_ptr<Column> Column::MakeEncoded(TypeTag type, EncodingPtr enc) {
  auto col = std::make_shared<Column>(type, Storage{});
  col->encoding_ = std::move(enc);
  col->native_ = true;
  col->mem_bytes_ = col->encoding_->MemoryBytes();
  return col;
}

void Column::AttachEncoding(EncodingPtr enc) {
  RDB_CHECK(!native_ && enc != nullptr && enc->size() == size());
  encoding_ = std::move(enc);
}

void Column::DecodeSlow() const {
  std::call_once(decode_once_, [this] {
    VisitPhysical(type_, [&](auto tag) {
      using T = typename decltype(tag)::type;
      if constexpr (kEncodable<T>) {
        std::vector<T> v;
        encoding_->DecodeTo(&v);
        storage_ = std::move(v);
      } else {
        RDB_UNREACHABLE();
      }
    });
    g_decodes.fetch_add(1, std::memory_order_relaxed);
    g_decoded_bytes.fetch_add(encoding_->RawBytes(), std::memory_order_relaxed);
    decoded_.store(true, std::memory_order_release);
  });
}

size_t Column::size() const {
  if (native_) return encoding_->size();
  return std::visit(SizeVisitor{}, storage_);
}

Scalar Column::GetScalar(size_t i) const {
  RDB_CHECK(i < size());
  // One code, not the whole column: exporting a few rows of an encoded
  // intermediate must not cache its decode.
  auto at = [&](auto tag) -> typename decltype(tag)::type {
    using T = typename decltype(tag)::type;
    if constexpr (kEncodable<T>) {
      if (native_ && !decoded_.load(std::memory_order_acquire))
        return encoding_->At<T>(i);
    }
    return Data<T>()[i];
  };
  switch (type_) {
    case TypeTag::kBit:
      return Scalar::Bit(at(PhysTag<int8_t>{}) != 0);
    case TypeTag::kInt:
      return Scalar::Int(at(PhysTag<int32_t>{}));
    case TypeTag::kDate:
      return Scalar::DateVal(at(PhysTag<int32_t>{}));
    case TypeTag::kLng:
      return Scalar::Lng(at(PhysTag<int64_t>{}));
    case TypeTag::kDbl:
      return Scalar::Dbl(at(PhysTag<double>{}));
    case TypeTag::kOid:
      return Scalar::OidVal(at(PhysTag<Oid>{}));
    case TypeTag::kStr:
      return Scalar::Str(at(PhysTag<std::string>{}));
    case TypeTag::kVoid:
      break;
  }
  RDB_UNREACHABLE();
}

void Column::ComputeSorted() {
  const size_t n = size();
  sorted_ = VisitPhysical(type_, [&](auto tag) {
    using T = typename decltype(tag)::type;
    std::vector<T> scratch;
    const T* v = Values<T>(0, n, &scratch);
    return std::is_sorted(v, v + n);
  });
}

}  // namespace recycledb
