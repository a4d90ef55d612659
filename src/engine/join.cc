#include "bat/hash_index.h"
#include "engine/detail.h"
#include "engine/materialize.h"
#include "engine/operators.h"
#include "engine/vec/bitmap.h"
#include "engine/vec/hashprobe.h"
#include "engine/vec/select.h"

namespace recycledb::engine {

using detail::PhysCompatible;
using detail::RawSideArray;

namespace {

/// True iff every `v[i] - lo` (unsigned) is below `width`: a branch-free
/// reduction, so the common all-match case costs one streaming pass.
template <typename V>
bool AllInWindow(const V* v, size_t n, uint64_t lo, uint64_t width) {
  bool ok = true;
  for (size_t i = 0; i < n; ++i)
    ok &= static_cast<uint64_t>(v[i]) - lo < width;
  return ok;
}

/// Strictly increasing values: a gather at them keeps a sorted source
/// sorted.
template <typename V>
bool Increasing(const V* v, size_t n) {
  for (size_t i = 1; i < n; ++i)
    if (v[i] <= v[i - 1]) return false;
  return true;
}

/// The positional join when every left value lands in r's window: l's head
/// is kept as it is (a dense head stays dense, so the result is charged for
/// its tail only and later joins against it stay positional) and r's tail
/// is gathered at `pos(i)` for every left row i. `vals` are the left tail
/// values in any monotone-equivalent form (oids or FOR codes).
template <typename V, typename Pos>
BatPtr FullMatchJoin(const BatPtr& l, const BatPtr& r, const V* vals,
                     Pos pos) {
  const size_t ln = l->size();
  const BatSide& rtail = r->tail();
  if (rtail.dense() || rtail.col->encoding() != nullptr) {
    // Dense tails gather to oids, encoded ones stay in code space: both go
    // through TakeSide's position list.
    SelVector pos_r(ln);
    for (size_t i = 0; i < ln; ++i) pos_r[i] = static_cast<uint32_t>(pos(i));
    return Bat::Make(l->head(), TakeSide(rtail, r->size(), pos_r), ln);
  }
  const bool sorted = rtail.col->sorted() && Increasing(vals, ln);
  return Bat::Make(l->head(), GatherRaw(rtail, ln, pos, sorted), ln);
}

/// Positional fetch join: r.head is a dense oid sequence, so the match for
/// l.tail value v sits at position v - r.seq. This is the projection join
/// that dominates MAL plans after markT/reverse candidate construction.
/// When every left value has its match, r's tail is gathered straight at
/// v - seq; otherwise the matching rows are collected first and both sides
/// gathered at them.
Result<BatPtr> PositionalJoin(const BatPtr& l, const BatPtr& r) {
  const BatSide& ltail = l->tail();
  Oid seq = r->head().seq;
  size_t rn = r->size();
  size_t ln = l->size();

  if (ltail.dense()) {
    // Both sides dense: the join is an offset window over r.
    Oid lo = ltail.seq, hi = ltail.seq + ln;  // values [lo, hi)
    Oid rlo = seq, rhi = seq + rn;
    Oid from = lo > rlo ? lo : rlo;
    Oid to = hi < rhi ? hi : rhi;
    // Disjoint windows slice nothing, at offset 0 so the views stay inside
    // their columns.
    size_t len = to > from ? to - from : 0;
    size_t loff = len == 0 ? 0 : from - lo, roff = len == 0 ? 0 : from - rlo;
    return Bat::Make(SliceSide(l->head(), loff, len),
                     SliceSide(r->tail(), roff, len), len);
  }

  if (const ColumnEncoding* enc = ltail.col->encoding();
      enc != nullptr && enc->kind() == ColumnEncoding::Kind::kFor) {
    // FOR-encoded oid tail: the window test [seq, seq+rn) translates to an
    // inclusive code range, and the r position is code + (base - seq) —
    // the whole probe runs over the narrow codes without decoding.
    return enc->VisitCodes([&](const auto& codes) -> Result<BatPtr> {
      using C = typename std::decay_t<decltype(codes)>::value_type;
      const C* cd = codes.data() + ltail.offset;
      const __int128 base =
          static_cast<__int128>(static_cast<uint64_t>(enc->base()));
      const __int128 max_code = ColumnEncoding::NilCode<C>() - 1;
      __int128 cl = static_cast<__int128>(seq) - base;
      __int128 ch = static_cast<__int128>(seq) + static_cast<__int128>(rn) -
                    1 - base;
      if (cl < 0) cl = 0;
      if (ch > max_code) ch = max_code;
      const int64_t delta = static_cast<int64_t>(base - seq);
      auto pos = [&](size_t i) {
        return static_cast<uint64_t>(static_cast<int64_t>(cd[i]) + delta);
      };
      if (cl <= ch &&
          AllInWindow(cd, ln, static_cast<uint64_t>(cl),
                      static_cast<uint64_t>(ch - cl + 1)))
        return FullMatchJoin(l, r, cd, pos);
      std::vector<uint64_t> bits(vec::BitmapWords(ln), 0);
      if (cl <= ch)
        vec::CodeRangeBits(cd, ln, static_cast<C>(cl), static_cast<C>(ch),
                           bits.data());
      SelVector sel_l;
      vec::BitsToSel(bits.data(), ln, &sel_l);
      SelVector pos_r;
      pos_r.reserve(sel_l.size());
      for (uint32_t i : sel_l) pos_r.push_back(static_cast<uint32_t>(pos(i)));
      return Bat::Make(TakeSide(l->head(), ln, sel_l),
                       TakeSide(r->tail(), rn, pos_r), sel_l.size());
    });
  }

  std::vector<Oid> lscratch;
  const Oid* lv = ltail.col->Values<Oid>(ltail.offset, ln, &lscratch);
  if (AllInWindow(lv, ln, seq, rn))
    return FullMatchJoin(l, r, lv, [&](size_t i) { return lv[i] - seq; });

  SelVector sel_l, pos_r;
  sel_l.reserve(ln);
  pos_r.reserve(ln);
  for (size_t i = 0; i < ln; ++i) {
    Oid v = lv[i];
    if (v == kNilOid) continue;
    if (v < seq || v - seq >= rn) continue;
    sel_l.push_back(static_cast<uint32_t>(i));
    pos_r.push_back(static_cast<uint32_t>(v - seq));
  }
  return Bat::Make(TakeSide(l->head(), ln, sel_l),
                   TakeSide(r->tail(), rn, pos_r), sel_l.size());
}

template <typename T>
Result<BatPtr> HashJoin(const BatPtr& l, const BatPtr& r) {
  const BatSide& rhead = r->head();
  size_t rn = r->size();
  std::vector<T> rtmp;
  const T* rdata = RawSideArray<T>(rhead, rn, &rtmp);
  HashIndexT<T> index(rdata, rn);

  const BatSide& ltail = l->tail();
  size_t ln = l->size();
  std::vector<T> tmp;
  const T* keys = RawSideArray<T>(ltail, ln, &tmp);
  SelVector sel_l, pos_r;
  if (rhead.col->key() && rn > 0) {
    // Unique inner: at most one match per probe, so the branch-free
    // compaction probe applies and the output size is bounded by ln.
    sel_l.resize(ln);
    pos_r.resize(ln);
    size_t o =
        vec::BatchProbeUnique(index, keys, ln, sel_l.data(), pos_r.data());
    sel_l.resize(o);
    pos_r.resize(o);
  } else {
    vec::BatchProbe(index, keys, ln, [&](size_t i, uint32_t j) {
      sel_l.push_back(static_cast<uint32_t>(i));
      pos_r.push_back(j);
    });
  }
  return Bat::Make(TakeSide(l->head(), ln, sel_l),
                   TakeSide(r->tail(), rn, pos_r), sel_l.size());
}

}  // namespace

Result<BatPtr> Join(const BatPtr& l, const BatPtr& r) {
  TypeTag lt = l->tail().LogicalType();
  TypeTag rt = r->head().LogicalType();
  if (!PhysCompatible(lt, rt))
    return Status::TypeMismatch("join key types are incompatible");

  if (r->head().dense()) return PositionalJoin(l, r);

  return VisitPhysical(rt, [&](auto tag) -> Result<BatPtr> {
    using T = typename decltype(tag)::type;
    return HashJoin<T>(l, r);
  });
}

namespace {

/// Semijoin (or, with `anti`, anti-semijoin) of a dense-headed l: its heads
/// are the window [lseq, lseq + ln), so membership is one bit per left
/// position, set from r's head values (nils and values outside the window
/// set nothing). No hash table is built, and one compaction pass yields the
/// qualifying positions in l's order.
Result<BatPtr> DenseSemijoin(const BatPtr& l, const BatPtr& r, bool anti) {
  const Oid lseq = l->head().seq;
  const size_t ln = l->size(), rn = r->size();
  std::vector<Oid> rtmp;
  const Oid* rv = RawSideArray<Oid>(r->head(), rn, &rtmp);
  std::vector<uint64_t> bits(vec::BitmapWords(ln), 0);
  for (size_t j = 0; j < rn; ++j) {
    const Oid p = rv[j] - lseq;
    if (p < ln) bits[p >> 6] |= uint64_t{1} << (p & 63);
  }
  if (anti) {
    for (uint64_t& w : bits) w = ~w;
    if (ln % 64 != 0) bits.back() &= (uint64_t{1} << (ln % 64)) - 1;
  }
  SelVector sel;
  vec::BitsToSel(bits.data(), ln, &sel);
  return Bat::Make(TakeSide(l->head(), ln, sel), TakeSide(l->tail(), ln, sel),
                   sel.size());
}

template <typename T>
Result<BatPtr> HashSemijoin(const BatPtr& l, const BatPtr& r, bool anti) {
  const BatSide& rhead = r->head();
  size_t rn = r->size();
  // Build over r.head; dense-headed l never lands here (DenseSemijoin).
  std::vector<T> rvals;
  const T* rdata = RawSideArray<T>(rhead, rn, &rvals);
  HashIndexT<T> index(rdata, rn);

  const BatSide& lhead = l->head();
  size_t ln = l->size();
  std::vector<T> ltmp;
  const T* keys = RawSideArray<T>(lhead, ln, &ltmp);
  std::vector<uint8_t> hits(ln);
  vec::BatchContains(index, keys, ln, hits.data());

  size_t nhits = 0;
  for (size_t i = 0; i < ln; ++i) nhits += hits[i];
  SelVector sel;
  sel.reserve(anti ? ln - nhits : nhits);
  for (size_t i = 0; i < ln; ++i) {
    if ((hits[i] != 0) != anti) sel.push_back(static_cast<uint32_t>(i));
  }
  return Bat::Make(TakeSide(l->head(), ln, sel), TakeSide(l->tail(), ln, sel),
                   sel.size());
}

}  // namespace

Result<BatPtr> Semijoin(const BatPtr& l, const BatPtr& r) {
  TypeTag lt = l->head().LogicalType();
  TypeTag rt = r->head().LogicalType();
  if (!PhysCompatible(lt, rt))
    return Status::TypeMismatch("semijoin key types are incompatible");

  if (l->head().dense() && r->head().dense()) {
    // Range intersection: a zero-copy slice of l.
    Oid llo = l->head().seq, lhi = llo + l->size();
    Oid rlo = r->head().seq, rhi = rlo + r->size();
    Oid from = llo > rlo ? llo : rlo;
    Oid to = lhi < rhi ? lhi : rhi;
    size_t len = to > from ? to - from : 0;
    size_t off = len == 0 ? 0 : from - llo;
    return Bat::Make(SliceSide(l->head(), off, len),
                     SliceSide(l->tail(), off, len), len);
  }
  if (l->head().dense()) return DenseSemijoin(l, r, /*anti=*/false);

  return VisitPhysical(rt, [&](auto tag) -> Result<BatPtr> {
    using T = typename decltype(tag)::type;
    return HashSemijoin<T>(l, r, /*anti=*/false);
  });
}

Result<BatPtr> AntiSemijoin(const BatPtr& l, const BatPtr& r) {
  TypeTag lt = l->head().LogicalType();
  TypeTag rt = r->head().LogicalType();
  if (!PhysCompatible(lt, rt))
    return Status::TypeMismatch("anti-semijoin key types are incompatible");
  if (l->head().dense()) return DenseSemijoin(l, r, /*anti=*/true);
  return VisitPhysical(rt, [&](auto tag) -> Result<BatPtr> {
    using T = typename decltype(tag)::type;
    return HashSemijoin<T>(l, r, /*anti=*/true);
  });
}

}  // namespace recycledb::engine
