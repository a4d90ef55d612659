#include "bat/encoding.h"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "util/check.h"

namespace recycledb {

namespace {

struct CodeSizeVisitor {
  template <typename C>
  size_t operator()(const std::vector<C>& v) const {
    return v.size();
  }
};

struct CodeBytesVisitor {
  template <typename C>
  size_t operator()(const std::vector<C>& v) const {
    return v.capacity() * sizeof(C);
  }
};

size_t DictBytes(const std::vector<std::string>& dict) {
  size_t bytes = dict.capacity() * sizeof(std::string);
  for (const auto& s : dict) bytes += s.capacity();
  return bytes;
}

/// Encodes `vals` as `v - base` codes of width C; nil values take the
/// reserved max code.
template <typename C, typename T>
std::vector<C> ForCodes(const std::vector<T>& vals, uint64_t base) {
  std::vector<C> codes(vals.size());
  for (size_t i = 0; i < vals.size(); ++i) {
    const T v = vals[i];
    codes[i] = IsNil(v) ? ColumnEncoding::NilCode<C>()
                        : static_cast<C>(static_cast<uint64_t>(v) - base);
  }
  return codes;
}

/// A string's length with its first and last eight bytes: constant work per
/// row, which is what the dictionary build pays on every row of a
/// low-cardinality column. For strings of at most 16 bytes the three fields
/// are the whole string. A string shorter than eight bytes is read as one
/// word when its buffer holds eight (the capacity, not the size, bounds
/// what is readable) and masked to its own bytes.
struct StringKey {
  uint64_t head = 0;
  uint64_t tail = 0;
  uint64_t len = 0;

  StringKey() = default;
  explicit StringKey(const std::string& str) : len(str.size()) {
    const char* p = str.data();
    if (len >= 8) {
      std::memcpy(&head, p, 8);
      std::memcpy(&tail, p + len - 8, 8);
    } else if (str.capacity() >= 8) {
      std::memcpy(&head, p, 8);
      head &= len == 0 ? 0 : ~uint64_t{0} >> (64 - 8 * len);
    } else {
      std::memcpy(&head, p, len);
    }
  }

  bool operator==(const StringKey& o) const {
    return head == o.head && tail == o.tail && len == o.len;
  }

  uint64_t Hash() const {
    uint64_t h = head * 0x9e3779b97f4a7c15ULL;
    h ^= (tail << 32 | tail >> 32) ^ len;
    // murmur3's 64-bit finaliser: every input bit reaches the low bits the
    // table masks with.
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    return h ^ (h >> 33);
  }
};

/// Open-addressing index from a string to its dictionary code, over views
/// of the source strings (nothing is copied until the build succeeds).
/// Sized by the distinct count: it doubles past half load. Equal keys
/// decide equality for strings of at most 16 bytes; longer ones are
/// compared in full.
class DictIndex {
 public:
  DictIndex() : slots_(kMinSlots), mask_(kMinSlots - 1) {}

  /// The code of `s`, assigning the next one when `s` is new.
  uint32_t Find(const std::string& s, bool* fresh) {
    if (2 * (keys_.size() + 1) > slots_.size()) Grow();
    const StringKey key(s);
    for (size_t i = key.Hash() & mask_;; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.code == kEmpty) {
        slot = Slot{key, static_cast<uint32_t>(keys_.size())};
        keys_.push_back(s);
        *fresh = true;
        return slot.code;
      }
      if (slot.key == key && (key.len <= 16 || keys_[slot.code] == s)) {
        *fresh = false;
        return slot.code;
      }
    }
  }

  /// The distinct strings in code order.
  const std::vector<std::string_view>& keys() const { return keys_; }

 private:
  static constexpr size_t kMinSlots = 64;
  static constexpr uint32_t kEmpty = UINT32_MAX;

  struct Slot {
    StringKey key;
    uint32_t code = kEmpty;
  };

  void Grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.code == kEmpty) continue;
      size_t i = slot.key.Hash() & mask_;
      while (slots_[i].code != kEmpty) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_;
  std::vector<std::string_view> keys_;
};

}  // namespace

ColumnEncoding::ColumnEncoding(
    Kind kind, Codes codes, int64_t base,
    std::shared_ptr<const std::vector<std::string>> dict, bool owns_dict,
    size_t raw_bytes)
    : kind_(kind),
      codes_(std::move(codes)),
      base_(base),
      dict_(std::move(dict)),
      owns_dict_(owns_dict),
      raw_bytes_(raw_bytes) {}

size_t ColumnEncoding::size() const {
  return std::visit(CodeSizeVisitor{}, codes_);
}

size_t ColumnEncoding::MemoryBytes() const {
  size_t bytes = std::visit(CodeBytesVisitor{}, codes_);
  if (owns_dict_ && dict_) bytes += DictBytes(*dict_);
  return bytes;
}

template <typename T>
EncodingPtr ColumnEncoding::TryFor(const std::vector<T>& vals) {
  static_assert(std::is_integral_v<T>, "FOR encodes integer types only");
  // Min and max of the non-nil values in one select-only pass: a nil is
  // replaced by a value that cannot move the bound it is compared with.
  constexpr T kLo = std::numeric_limits<T>::min();
  constexpr T kHi = std::numeric_limits<T>::max();
  T lo = kHi, hi = kLo;
  size_t nils = 0;
  for (const T v : vals) {
    const bool nil = IsNil(v);
    nils += nil;
    lo = std::min(lo, nil ? kHi : v);
    hi = std::max(hi, nil ? kLo : v);
  }
  const bool any = nils < vals.size();
  if constexpr (!std::is_signed_v<T>) {
    // Reserve the top half of the unsigned domain so base + code never
    // wraps when decoded through the signed base.
    if (any && static_cast<uint64_t>(hi) >= (1ull << 63)) return nullptr;
  }
  // Two's-complement bit patterns: the unsigned difference is exact for T.
  const uint64_t min = any ? static_cast<uint64_t>(lo) : 0;
  const uint64_t range = any ? static_cast<uint64_t>(hi) - min : 0;
  size_t n = vals.size();
  auto build = [&](auto code_tag) -> EncodingPtr {
    using C = typename decltype(code_tag)::type;
    if (sizeof(C) >= sizeof(T)) return nullptr;
    if (range > static_cast<uint64_t>(NilCode<C>()) - 1) return nullptr;
    return std::make_shared<ColumnEncoding>(
        Kind::kFor, Codes(ForCodes<C>(vals, min)), static_cast<int64_t>(min),
        nullptr, false, n * sizeof(T));
  };
  if (auto e = build(PhysTag<uint8_t>{})) return e;
  if (auto e = build(PhysTag<uint16_t>{})) return e;
  if (auto e = build(PhysTag<uint32_t>{})) return e;
  return nullptr;
}

template EncodingPtr ColumnEncoding::TryFor<int32_t>(
    const std::vector<int32_t>&);
template EncodingPtr ColumnEncoding::TryFor<int64_t>(
    const std::vector<int64_t>&);
template EncodingPtr ColumnEncoding::TryFor<Oid>(const std::vector<Oid>&);

EncodingPtr ColumnEncoding::TryDict(const std::vector<std::string>& vals,
                                    size_t max_distinct) {
  // A column longer than max_distinct whose first `probe` rows are at
  // least 15/16 distinct is near-unique: uniform draws from a domain small
  // enough to fit max_distinct would repeat more often by then.
  const size_t probe = std::max<size_t>(max_distinct / 4, 1024);
  DictIndex index;
  std::vector<uint32_t> wide(vals.size());
  size_t raw = vals.size() * sizeof(std::string);
  for (size_t i = 0; i < vals.size(); ++i) {
    bool fresh;
    wide[i] = index.Find(vals[i], &fresh);
    if (fresh && index.keys().size() > max_distinct) return nullptr;
    if (i + 1 == probe && vals.size() > max_distinct &&
        16 * index.keys().size() >= 15 * probe)
      return nullptr;
    raw += vals[i].capacity();
  }
  auto dict = std::make_shared<std::vector<std::string>>(
      index.keys().begin(), index.keys().end());
  size_t nd = dict->size();
  auto narrow = [&](auto code_tag) -> Codes {
    using C = typename decltype(code_tag)::type;
    return Codes(std::vector<C>(wide.begin(), wide.end()));
  };
  Codes codes;
  if (nd <= NilCode<uint8_t>()) {
    codes = narrow(PhysTag<uint8_t>{});
  } else if (nd <= NilCode<uint16_t>()) {
    codes = narrow(PhysTag<uint16_t>{});
  } else {
    codes = Codes(std::move(wide));
  }
  return std::make_shared<ColumnEncoding>(Kind::kDict, std::move(codes), 0,
                                          std::move(dict), /*owns_dict=*/true,
                                          raw);
}

EncodingPtr ColumnEncoding::Gather(const ColumnEncoding& src, size_t offset,
                                   const std::vector<uint32_t>& sel) {
  return src.VisitCodes([&](const auto& codes) -> EncodingPtr {
    using C = typename std::decay_t<decltype(codes)>::value_type;
    std::vector<C> out(sel.size());
    const C* base = codes.data() + offset;
    size_t raw;
    if (src.kind_ == Kind::kDict) {
      // The raw size (character bytes of the gathered strings) is summed in
      // the gather loop itself.
      const std::string* d = src.dict_->data();
      size_t chars = 0;
      for (size_t k = 0; k < sel.size(); ++k) {
        const C c = base[sel[k]];
        out[k] = c;
        chars += d[c].size();
      }
      raw = sel.size() * sizeof(std::string) + chars;
    } else {
      for (size_t k = 0; k < sel.size(); ++k) out[k] = base[sel[k]];
      raw = sel.size() * (src.raw_bytes_ / std::max<size_t>(src.size(), 1));
    }
    return std::make_shared<ColumnEncoding>(src.kind_, Codes(std::move(out)),
                                            src.base_, src.dict_,
                                            /*owns_dict=*/false, raw);
  });
}

template <typename T>
void ColumnEncoding::DecodeTo(std::vector<T>* out, size_t offset,
                              size_t n) const {
  RDB_CHECK(kind_ == (std::is_same_v<T, std::string> ? Kind::kDict
                                                     : Kind::kFor));
  VisitCodes([&](const auto& codes) {
    using C = typename std::decay_t<decltype(codes)>::value_type;
    const size_t len = std::min(n, codes.size() - offset);
    const C* cd = codes.data() + offset;
    out->resize(len);
    T* dst = out->data();
    if constexpr (std::is_same_v<T, std::string>) {
      const std::string* d = dict_->data();
      for (size_t i = 0; i < len; ++i) dst[i] = d[cd[i]];
    } else {
      const uint64_t base = static_cast<uint64_t>(base_);
      for (size_t i = 0; i < len; ++i) {
        dst[i] = cd[i] == NilCode<C>()
                     ? NilOf<T>()
                     : static_cast<T>(base + static_cast<uint64_t>(cd[i]));
      }
    }
  });
}

template void ColumnEncoding::DecodeTo<int32_t>(std::vector<int32_t>*, size_t,
                                                size_t) const;
template void ColumnEncoding::DecodeTo<int64_t>(std::vector<int64_t>*, size_t,
                                                size_t) const;
template void ColumnEncoding::DecodeTo<Oid>(std::vector<Oid>*, size_t,
                                            size_t) const;
template void ColumnEncoding::DecodeTo<std::string>(std::vector<std::string>*,
                                                    size_t, size_t) const;

}  // namespace recycledb
