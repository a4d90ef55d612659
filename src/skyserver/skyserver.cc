#include "skyserver/skyserver.h"

#include <algorithm>

#include "core/recycler_optimizer.h"
#include "mal/plan_builder.h"
#include "util/str.h"

namespace recycledb::skyserver {

const std::vector<std::string>& PhotoProperties() {
  static const std::vector<std::string>* kProps = new std::vector<std::string>{
      "run",        "rerun",      "camcol",      "field",      "obj",
      "type",       "psfmag_u",   "psfmag_g",    "psfmag_r",   "psfmag_i",
      "psfmag_z",   "petrorad_r", "petror50_r",  "petror90_r", "modelmag_r",
      "extinction_r", "rowc",     "colc",        "status"};
  return *kProps;
}

Status LoadSkyServer(Catalog* cat, const SkyConfig& cfg) {
  Rng rng(cfg.seed);
  size_t n = cfg.n_objects;

  std::vector<std::pair<std::string, TypeTag>> photo_cols = {
      {"objid", TypeTag::kOid}, {"ra", TypeTag::kDbl},
      {"dec", TypeTag::kDbl},   {"mode", TypeTag::kInt}};
  for (const std::string& p : PhotoProperties()) {
    TypeTag t = (p == "run" || p == "rerun" || p == "camcol" || p == "field" ||
                 p == "obj" || p == "type" || p == "status")
                    ? TypeTag::kInt
                    : TypeTag::kDbl;
    photo_cols.emplace_back(p, t);
  }
  cat->CreateTable("photoobj", photo_cols);

  {
    std::vector<Oid> objid(n);
    std::vector<double> ra(n), dec(n);
    std::vector<int32_t> mode(n);
    for (size_t i = 0; i < n; ++i) {
      objid[i] = i;
      ra[i] = rng.UniformDouble(0.0, 360.0);
      dec[i] = rng.UniformDouble(-90.0, 90.0);
      mode[i] = rng.Bernoulli(0.7) ? 1 : 2;  // 70% primary
    }
    RDB_RETURN_NOT_OK(
        cat->LoadColumn<Oid>("photoobj", "objid", std::move(objid), true, true));
    RDB_RETURN_NOT_OK(cat->LoadColumn<double>("photoobj", "ra", std::move(ra)));
    RDB_RETURN_NOT_OK(
        cat->LoadColumn<double>("photoobj", "dec", std::move(dec)));
    RDB_RETURN_NOT_OK(
        cat->LoadColumn<int32_t>("photoobj", "mode", std::move(mode)));
    for (const std::string& p : PhotoProperties()) {
      const Table* t = cat->FindTable("photoobj");
      if (t->column_type(t->FindColumn(p)) == TypeTag::kInt) {
        std::vector<int32_t> v(n);
        for (size_t i = 0; i < n; ++i)
          v[i] = static_cast<int32_t>(rng.UniformRange(0, 10000));
        RDB_RETURN_NOT_OK(cat->LoadColumn<int32_t>("photoobj", p, std::move(v)));
      } else {
        std::vector<double> v(n);
        for (size_t i = 0; i < n; ++i) v[i] = rng.UniformDouble(10.0, 30.0);
        RDB_RETURN_NOT_OK(cat->LoadColumn<double>("photoobj", p, std::move(v)));
      }
    }
  }

  // Spectro table: ~10% of objects have spectra.
  cat->CreateTable("elredshift", {{"specobjid", TypeTag::kOid},
                                  {"z", TypeTag::kDbl},
                                  {"zerr", TypeTag::kDbl},
                                  {"zconf", TypeTag::kDbl},
                                  {"specclass", TypeTag::kInt}});
  {
    size_t m = n / 10;
    std::vector<Oid> ids(m);
    std::vector<double> z(m), zerr(m), zconf(m);
    std::vector<int32_t> cls(m);
    for (size_t i = 0; i < m; ++i) {
      ids[i] = i * 10;  // sparse ids
      z[i] = rng.UniformDouble(0.0, 3.0);
      zerr[i] = rng.UniformDouble(0.0, 0.01);
      zconf[i] = rng.UniformDouble(0.9, 1.0);
      cls[i] = static_cast<int32_t>(rng.UniformRange(0, 6));
    }
    RDB_RETURN_NOT_OK(cat->LoadColumn<Oid>("elredshift", "specobjid",
                                           std::move(ids), true, true));
    RDB_RETURN_NOT_OK(cat->LoadColumn<double>("elredshift", "z", std::move(z)));
    RDB_RETURN_NOT_OK(
        cat->LoadColumn<double>("elredshift", "zerr", std::move(zerr)));
    RDB_RETURN_NOT_OK(
        cat->LoadColumn<double>("elredshift", "zconf", std::move(zconf)));
    RDB_RETURN_NOT_OK(
        cat->LoadColumn<int32_t>("elredshift", "specclass", std::move(cls)));
  }

  // Self-descriptive documentation tables of the web site (~36% of queries).
  cat->CreateTable("dbobjects", {{"name", TypeTag::kStr},
                                 {"type", TypeTag::kStr},
                                 {"access", TypeTag::kStr},
                                 {"description", TypeTag::kStr}});
  {
    const size_t kDocs = 600;
    std::vector<std::string> names(kDocs), types(kDocs), access(kDocs),
        text(kDocs);
    const char* kKinds[] = {"U", "V", "P", "F"};
    for (size_t i = 0; i < kDocs; ++i) {
      names[i] = StrFormat("DocPage%04zu", i);
      types[i] = kKinds[rng.Uniform(4)];
      access[i] = rng.Bernoulli(0.9) ? "public" : "admin";
      text[i] = StrFormat("documentation text for page %zu with details", i);
    }
    RDB_RETURN_NOT_OK(
        cat->LoadColumn<std::string>("dbobjects", "name", std::move(names)));
    RDB_RETURN_NOT_OK(
        cat->LoadColumn<std::string>("dbobjects", "type", std::move(types)));
    RDB_RETURN_NOT_OK(
        cat->LoadColumn<std::string>("dbobjects", "access", std::move(access)));
    RDB_RETURN_NOT_OK(cat->LoadColumn<std::string>("dbobjects", "description",
                                                   std::move(text)));
  }
  cat->BuildEncodings();
  return Status::OK();
}

Program BuildConeSearchTemplate() {
  PlanBuilder b("sky_cone");
  int ra_lo = b.Param("A0");
  int ra_hi = b.Param("A1");
  int dec_lo = b.Param("A2");
  int dec_hi = b.Param("A3");

  int ra = b.Bind("photoobj", "ra");
  int rsel = b.Select(ra, ra_lo, ra_hi, true, true);
  int cand = b.Recand(rsel);
  int dec = b.Join(cand, b.Bind("photoobj", "dec"));
  int dsel = b.Select(dec, dec_lo, dec_hi, true, true);
  int cand2 = b.Rebase(b.Semijoin(cand, dsel));
  // PhotoPrimary view: constant mode filter, self-materialised by recycling
  int mode = b.Join(cand2, b.Bind("photoobj", "mode"));
  int msel = b.Uselect(mode, b.ConstInt(1));
  int cand3 = b.Rebase(b.Semijoin(cand2, msel));
  // 19 projection joins + objid, then LIMIT 1
  int objid = b.Join(cand3, b.Bind("photoobj", "objid"));
  b.ExportBat(b.SliceN(objid, 0, 1), "objID");
  for (const std::string& p : PhotoProperties()) {
    int v = b.Join(cand3, b.Bind("photoobj", p));
    b.ExportBat(b.SliceN(v, 0, 1), p);
  }
  Program prog = b.Build();
  MarkForRecycling(&prog);
  return prog;
}

Program BuildDocQueryTemplate() {
  PlanBuilder b("sky_doc");
  int a0 = b.Param("A0");
  int names = b.Bind("dbobjects", "name");
  int sel = b.Uselect(names, a0);
  int cand = b.Recand(sel);
  int text = b.Join(cand, b.Bind("dbobjects", "description"));
  int type = b.Join(cand, b.Bind("dbobjects", "type"));
  b.ExportBat(text, "description");
  b.ExportBat(type, "type");
  Program prog = b.Build();
  MarkForRecycling(&prog);
  return prog;
}

Program BuildPointQueryTemplate() {
  PlanBuilder b("sky_point");
  int a0 = b.Param("A0");
  int ids = b.Bind("elredshift", "specobjid");
  int sel = b.Uselect(ids, a0);
  int cand = b.Recand(sel);
  b.ExportBat(b.Join(cand, b.Bind("elredshift", "z")), "z");
  b.ExportBat(b.Join(cand, b.Bind("elredshift", "zerr")), "zerr");
  b.ExportBat(b.Join(cand, b.Bind("elredshift", "zconf")), "zconf");
  b.ExportBat(b.Join(cand, b.Bind("elredshift", "specclass")), "specclass");
  Program prog = b.Build();
  MarkForRecycling(&prog);
  return prog;
}

Program BuildRaSelectTemplate() {
  PlanBuilder b("sky_ra_scan");
  int a0 = b.Param("A0");
  int a1 = b.Param("A1");
  int ra = b.Bind("photoobj", "ra");
  int sel = b.Select(ra, a0, a1, true, true);
  int cand = b.Recand(sel);
  int dec = b.Join(cand, b.Bind("photoobj", "dec"));
  b.ExportValue(b.AggrCount(dec), "n");
  Program prog = b.Build();
  MarkForRecycling(&prog);
  return prog;
}

SkyLogSampler::SkyLogSampler(const SkyConfig& cfg, uint64_t seed)
    : rng_(seed), cfg_(cfg) {
  // Two overlapping populations of cone parameters (§8.1): a handful of
  // popular sky regions, some shared between the populations.
  Rng pop_rng(cfg.seed ^ 0xabcdef);
  auto make_box = [&](double ra0, double dec0, double r) {
    return std::vector<Scalar>{Scalar::Dbl(ra0 - r), Scalar::Dbl(ra0 + r),
                               Scalar::Dbl(dec0 - r), Scalar::Dbl(dec0 + r)};
  };
  std::vector<std::vector<Scalar>> pop_a, pop_b;
  for (int i = 0; i < 8; ++i) {
    pop_a.push_back(make_box(pop_rng.UniformDouble(10, 350),
                             pop_rng.UniformDouble(-80, 80), 2.5));
  }
  // Population B: 4 fresh boxes + 4 shared with A.
  for (int i = 0; i < 4; ++i) {
    pop_b.push_back(make_box(pop_rng.UniformDouble(10, 350),
                             pop_rng.UniformDouble(-80, 80), 2.0));
  }
  for (int i = 0; i < 4; ++i) pop_b.push_back(pop_a[i]);
  cone_population_ = pop_a;
  cone_population_.insert(cone_population_.end(), pop_b.begin(), pop_b.end());
}

SkyQuery SkyLogSampler::Next() {
  SkyQuery q;
  double dice = rng_.NextDouble();
  if (dice < 0.62) {
    q.kind = 0;
    q.params = cone_population_[rng_.Uniform(cone_population_.size())];
  } else if (dice < 0.98) {
    q.kind = 1;
    // Documentation pages follow a small popular set.
    q.params = {Scalar::Str(StrFormat("DocPage%04d",
                                      static_cast<int>(rng_.Uniform(40))))};
  } else {
    q.kind = 2;
    q.params = {
        Scalar::OidVal(rng_.Uniform(cfg_.n_objects / 10) * 10)};
  }
  return q;
}

std::vector<SubsumptionBenchQuery> GenerateSubsumptionBench(int k, int n_seeds,
                                                            double s,
                                                            uint64_t seed) {
  Rng rng(seed);
  std::vector<SubsumptionBenchQuery> out;
  double domain = 360.0;
  double w_seed = s * domain;                 // seed width
  double w_cover = 1.5 * w_seed / (k - 1);    // covering-query width (§8.3)
  for (int i = 0; i < n_seeds; ++i) {
    double x = rng.UniformDouble(2 * w_seed, domain - 3 * w_seed);
    // k covering queries whose union covers [x, x + w_seed] with pairwise
    // overlaps, while no single one covers the whole seed range (otherwise
    // singleton subsumption short-circuits the combined algorithm):
    // covers 0..k-2 are anchored at interior right boundaries (each misses
    // the seed tail), the last hangs over the top but starts inside.
    for (int j = 0; j < k; ++j) {
      double lo, hi;
      if (j < k - 1) {
        hi = x + (j + 1) * w_seed / k;
        lo = hi - w_cover;
      } else {
        lo = std::max(x + 1.05 * w_seed - w_cover, x + 0.05 * w_seed);
        hi = lo + w_cover;
      }
      SubsumptionBenchQuery c;
      c.params = {Scalar::Dbl(lo), Scalar::Dbl(hi)};
      out.push_back(std::move(c));
    }
    SubsumptionBenchQuery seed_q;
    seed_q.params = {Scalar::Dbl(x), Scalar::Dbl(x + w_seed)};
    seed_q.is_seed = true;
    out.push_back(std::move(seed_q));
  }
  return out;
}

}  // namespace recycledb::skyserver
