#include <algorithm>

#include "engine/detail.h"
#include "engine/materialize.h"
#include "engine/operators.h"
#include "engine/vec/bitmap.h"
#include "engine/vec/select.h"
#include "util/str.h"

namespace recycledb::engine {

using detail::AnySideReader;
using detail::PhysCompatible;

namespace {

/// True when the in-band nil marker of T sorts AFTER every real value
/// (the Oid nil is the max sentinel); every other physical nil is the
/// numeric minimum / empty string and sorts first.
template <typename T>
constexpr bool NilSortsHigh() {
  return std::is_same_v<T, Oid>;
}

/// First i in [0, n) with !pred(i), for a pred that holds on a prefix.
template <typename Pred>
size_t PartitionPoint(size_t n, Pred pred) {
  size_t lo = 0, hi = n;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (pred(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Binary-search range selection over a sorted materialised tail whose
/// i-th value is `get(i)`. Returns a zero-copy view of the qualifying run.
template <typename T, typename Get>
BatPtr SortedRangeSelect(const BatPtr& b, Get get, bool has_lo, const T& lov,
                         bool has_hi, const T& hiv, bool lo_inc, bool hi_inc) {
  const BatSide& tail = b->tail();
  size_t n = b->size();
  auto lower = [&](const T& v) {
    return PartitionPoint(n, [&](size_t i) { return get(i) < v; });
  };
  auto upper = [&](const T& v) {
    return PartitionPoint(n, [&](size_t i) { return !(v < get(i)); });
  };
  size_t begin;
  if (has_lo) {
    begin = lo_inc ? lower(lov) : upper(lov);
  } else if (NilSortsHigh<T>()) {
    begin = 0;  // nils sort last here; the end side clips them
  } else {
    // Unbounded from below still excludes nils, which sort lowest.
    begin = upper(NilOf<T>());
  }
  size_t end;
  if (has_hi) {
    end = hi_inc ? upper(hiv) : lower(hiv);
    if (NilSortsHigh<T>() && hiv == NilOf<T>())
      end = lower(hiv);  // never admit nils
  } else if (NilSortsHigh<T>()) {
    // Unbounded from above: the max-sentinel nils are the tail of the run.
    end = lower(NilOf<T>());
  } else {
    end = n;
  }
  if (end < begin) end = begin;
  size_t len = end - begin;
  return Bat::Make(SliceSide(b->head(), begin, len),
                   SliceSide(tail, begin, len), len);
}

/// Builds the select result from a candidate bitmap over the tail.
BatPtr GatherBits(const BatPtr& b, const std::vector<uint64_t>& bits) {
  size_t n = b->size();
  SelVector sel;
  vec::BitsToSel(bits.data(), n, &sel);
  return Bat::Make(TakeSide(b->head(), n, sel), TakeSide(b->tail(), n, sel),
                   sel.size());
}

/// Vectorised scan select: predicate into a candidate bitmap, one
/// compaction pass into a reserved SelVector, then the gathers.
template <typename T>
BatPtr ScanRangeSelect(const BatPtr& b, bool has_lo, const T& lov, bool has_hi,
                       const T& hiv, bool lo_inc, bool hi_inc) {
  const BatSide& tail = b->tail();
  size_t n = b->size();
  std::vector<T> scratch;
  const T* data = tail.col->Values<T>(tail.offset, n, &scratch);
  std::vector<uint64_t> bits(vec::BitmapWords(n));
  vec::RangeBits(data, n, has_lo, lov, has_hi, hiv, lo_inc, hi_inc,
                 bits.data());
  return GatherBits(b, bits);
}

/// Compressed range select over a FOR-encoded tail: the bounds translate
/// into code space once, then the (narrow, unsigned) codes are scanned
/// directly — no decode. The reserved nil code sits above every valid code
/// bound, so nils are excluded for free.
template <typename T>
BatPtr ForRangeSelect(const BatPtr& b, const ColumnEncoding& enc, bool has_lo,
                      const T& lov, bool has_hi, const T& hiv, bool lo_inc,
                      bool hi_inc) {
  const BatSide& tail = b->tail();
  size_t n = b->size();
  auto widen = [](const T& v) -> __int128 {
    if constexpr (std::is_signed_v<T>) return static_cast<__int128>(v);
    else return static_cast<__int128>(static_cast<uint64_t>(v));
  };
  __int128 base;
  if constexpr (std::is_signed_v<T>) {
    base = static_cast<__int128>(enc.base());
  } else {
    base = static_cast<__int128>(static_cast<uint64_t>(enc.base()));
  }
  return enc.VisitCodes([&](const auto& codes) -> BatPtr {
    using C = typename std::decay_t<decltype(codes)>::value_type;
    const C* cd = codes.data() + tail.offset;
    const __int128 max_code = ColumnEncoding::NilCode<C>() - 1;
    __int128 cl = 0, ch = max_code;
    if (has_lo) cl = widen(lov) + (lo_inc ? 0 : 1) - base;
    if (has_hi) ch = widen(hiv) - (hi_inc ? 0 : 1) - base;
    if (cl < 0) cl = 0;
    if (ch > max_code) ch = max_code;
    std::vector<uint64_t> bits(vec::BitmapWords(n), 0);
    if (cl <= ch) {
      vec::CodeRangeBits(cd, n, static_cast<C>(cl), static_cast<C>(ch),
                         bits.data());
    }
    return GatherBits(b, bits);
  });
}

/// Compressed range select over a dictionary-encoded string tail: the
/// bounds are evaluated once per distinct dictionary value, then mapped
/// over the codes.
BatPtr DictRangeSelect(const BatPtr& b, const ColumnEncoding& enc,
                       bool has_lo, const std::string& lov, bool has_hi,
                       const std::string& hiv, bool lo_inc, bool hi_inc) {
  const BatSide& tail = b->tail();
  size_t n = b->size();
  const std::vector<std::string>& dict = enc.dict();
  std::vector<uint8_t> flags(dict.size());
  for (size_t k = 0; k < dict.size(); ++k) {
    const std::string& s = dict[k];
    bool ok = !s.empty();
    if (ok && has_lo) ok = lo_inc ? !(s < lov) : (lov < s);
    if (ok && has_hi) ok = hi_inc ? !(hiv < s) : (s < hiv);
    flags[k] = ok ? 1 : 0;
  }
  return enc.VisitCodes([&](const auto& codes) -> BatPtr {
    using C = typename std::decay_t<decltype(codes)>::value_type;
    const C* cd = codes.data() + tail.offset;
    std::vector<uint64_t> bits(vec::BitmapWords(n));
    vec::DictFlagBits(cd, n, flags.data(), bits.data());
    return GatherBits(b, bits);
  });
}

}  // namespace

Result<BatPtr> Select(const BatPtr& b, const Scalar& lo, const Scalar& hi,
                      bool lo_inc, bool hi_inc) {
  const BatSide& tail = b->tail();
  TypeTag t = tail.LogicalType();
  bool has_lo = !lo.is_nil();
  bool has_hi = !hi.is_nil();
  if (has_lo && !PhysCompatible(lo.tag(), t))
    return Status::TypeMismatch(
        StrFormat("select lower bound %s vs tail %s",
                  TypeName(lo.tag()), TypeName(t)));
  if (has_hi && !PhysCompatible(hi.tag(), t))
    return Status::TypeMismatch(
        StrFormat("select upper bound %s vs tail %s",
                  TypeName(hi.tag()), TypeName(t)));

  if (tail.dense()) {
    // Dense tails are sorted oid runs; clamp the range arithmetically.
    size_t n = b->size();
    Oid first = tail.seq, last = tail.seq + n;  // [first, last)
    Oid qlo = first, qhi = last;
    if (has_lo) {
      Oid v = lo.AsOid();
      qlo = lo_inc ? v : v + 1;
    }
    if (has_hi) {
      Oid v = hi.AsOid();
      qhi = hi_inc ? v + 1 : v;
    }
    if (qlo < first) qlo = first;
    if (qhi > last) qhi = last;
    if (qhi < qlo) qhi = qlo;
    size_t off = qlo - first, len = qhi - qlo;
    return Bat::Make(SliceSide(b->head(), off, len),
                     SliceSide(tail, off, len), len);
  }

  return VisitPhysical(t, [&](auto tag) -> Result<BatPtr> {
    using T = typename decltype(tag)::type;
    T lov = has_lo ? lo.Get<T>() : T{};
    T hiv = has_hi ? hi.Get<T>() : T{};
    if (tail.col->sorted()) {
      if constexpr (kEncodable<T>) {
        if (tail.col->encoded_native()) {
          // Probe the codes one at a time: a binary search decodes
          // O(log n) values, not the column.
          const ColumnEncoding* enc = tail.col->encoding();
          const size_t off = tail.offset;
          return SortedRangeSelect<T>(
              b, [&](size_t i) { return enc->At<T>(off + i); }, has_lo, lov,
              has_hi, hiv, lo_inc, hi_inc);
        }
      }
      const T* data = tail.col->Data<T>().data() + tail.offset;
      return SortedRangeSelect<T>(
          b, [data](size_t i) -> const T& { return data[i]; }, has_lo, lov,
          has_hi, hiv, lo_inc, hi_inc);
    }
    if (const ColumnEncoding* enc = tail.col->encoding()) {
      if constexpr (std::is_same_v<T, std::string>) {
        if (enc->kind() == ColumnEncoding::Kind::kDict)
          return DictRangeSelect(b, *enc, has_lo, lov, has_hi, hiv, lo_inc,
                                 hi_inc);
      } else if constexpr (std::is_integral_v<T> && sizeof(T) > 1) {
        if (enc->kind() == ColumnEncoding::Kind::kFor)
          return ForRangeSelect<T>(b, *enc, has_lo, lov, has_hi, hiv, lo_inc,
                                   hi_inc);
      }
    }
    return ScanRangeSelect<T>(b, has_lo, lov, has_hi, hiv, lo_inc, hi_inc);
  });
}

Result<BatPtr> Uselect(const BatPtr& b, const Scalar& v) {
  if (v.is_nil())
    return Status::InvalidArgument("uselect with nil value");
  return Select(b, v, v, /*lo_inc=*/true, /*hi_inc=*/true);
}

Result<BatPtr> AntiUselect(const BatPtr& b, const Scalar& v) {
  const BatSide& tail = b->tail();
  TypeTag t = tail.LogicalType();
  if (!PhysCompatible(v.tag(), t))
    return Status::TypeMismatch("anti-uselect value type mismatch");
  return VisitPhysical(t, [&](auto tag) -> Result<BatPtr> {
    using T = typename decltype(tag)::type;
    const T& key = v.Get<T>();
    size_t n = b->size();
    if (tail.dense()) {
      AnySideReader<T> reader(tail, n);
      SelVector sel;
      sel.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        const T& x = reader[i];
        if (IsNil(x) || x == key) continue;
        sel.push_back(static_cast<uint32_t>(i));
      }
      return Bat::Make(TakeSide(b->head(), n, sel), TakeSide(tail, n, sel),
                       sel.size());
    }
    std::vector<T> scratch;
    const T* data = tail.col->Values<T>(tail.offset, n, &scratch);
    std::vector<uint64_t> bits(vec::BitmapWords(n));
    vec::NotEqBits(data, n, key, bits.data());
    SelVector sel;
    vec::BitsToSel(bits.data(), n, &sel);
    return Bat::Make(TakeSide(b->head(), n, sel), TakeSide(tail, n, sel),
                     sel.size());
  });
}

Result<BatPtr> LikeSelect(const BatPtr& b, const std::string& pattern) {
  const BatSide& tail = b->tail();
  if (tail.LogicalType() != TypeTag::kStr)
    return Status::TypeMismatch("likeselect on non-string tail");
  size_t n = b->size();
  // Satellite of the vectorised rewrite: the pattern is preprocessed ONCE
  // per call (shape classification + literal extraction), not per row.
  LikePattern pat(pattern);
  if (const ColumnEncoding* enc = tail.col->encoding();
      enc != nullptr && enc->kind() == ColumnEncoding::Kind::kDict) {
    // Dictionary path: the pattern runs once per distinct value, then the
    // verdicts map over the codes without touching any string data.
    const std::vector<std::string>& dict = enc->dict();
    std::vector<uint8_t> flags(dict.size());
    for (size_t k = 0; k < dict.size(); ++k)
      flags[k] = (!dict[k].empty() && pat.Match(dict[k])) ? 1 : 0;
    return enc->VisitCodes([&](const auto& codes) -> Result<BatPtr> {
      using C = typename std::decay_t<decltype(codes)>::value_type;
      const C* cd = codes.data() + tail.offset;
      std::vector<uint64_t> bits(vec::BitmapWords(n));
      vec::DictFlagBits(cd, n, flags.data(), bits.data());
      SelVector sel;
      vec::BitsToSel(bits.data(), n, &sel);
      return Bat::Make(TakeSide(b->head(), n, sel), TakeSide(tail, n, sel),
                       sel.size());
    });
  }
  std::vector<std::string> scratch;
  const std::string* data =
      tail.col->Values<std::string>(tail.offset, n, &scratch);
  std::vector<uint64_t> bits(vec::BitmapWords(n));
  vec::PredBits(data, n, bits.data(), [&](const std::string& s) -> bool {
    return !s.empty() && pat.Match(s);
  });
  SelVector sel;
  vec::BitsToSel(bits.data(), n, &sel);
  return Bat::Make(TakeSide(b->head(), n, sel), TakeSide(tail, n, sel),
                   sel.size());
}

Result<BatPtr> SelectNotNil(const BatPtr& b) {
  const BatSide& tail = b->tail();
  if (tail.dense()) return b;  // dense oids are never nil
  TypeTag t = tail.LogicalType();
  return VisitPhysical(t, [&](auto tag) -> Result<BatPtr> {
    using T = typename decltype(tag)::type;
    size_t n = b->size();
    std::vector<T> scratch;
    const T* data = tail.col->Values<T>(tail.offset, n, &scratch);
    std::vector<uint64_t> bits(vec::BitmapWords(n));
    vec::NotNilBits(data, n, bits.data());
    if (vec::CountBits(bits.data(), n) == n)
      return b;  // nothing dropped; share the viewpoint
    SelVector sel;
    vec::BitsToSel(bits.data(), n, &sel);
    return Bat::Make(TakeSide(b->head(), n, sel), TakeSide(tail, n, sel),
                     sel.size());
  });
}

}  // namespace recycledb::engine
