#ifndef RECYCLEDB_TESTS_SUPPORT_RAW_TPCH_H_
#define RECYCLEDB_TESTS_SUPPORT_RAW_TPCH_H_

// The raw side of raw-vs-encoded comparisons. tpch::LoadTpch always ends
// with Catalog::BuildEncodings(), so a catalog without encodings is built
// here, outside the library: the same tables, rows, column properties and
// join indices, copied from an encoded load.

#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "tpch/tpch.h"

namespace recycledb::test_support {

/// Populates the empty `cat` with TPC-H exactly as tpch::LoadTpch(cfg)
/// does, except that no column carries an encoding.
inline Status LoadRawTpch(Catalog* cat, const tpch::TpchConfig& cfg) {
  Catalog encoded;
  RDB_RETURN_NOT_OK(tpch::LoadTpch(&encoded, cfg));
  for (const char* name : tpch::kTables) {
    const Table* t = encoded.FindTable(name);
    if (t == nullptr) return Status::NotFound(name);
    std::vector<std::pair<std::string, TypeTag>> defs;
    for (size_t ci = 0; ci < t->num_columns(); ++ci) {
      int i = static_cast<int>(ci);
      defs.emplace_back(t->column_name(i), t->column_type(i));
    }
    cat->CreateTable(name, defs);
    for (size_t ci = 0; ci < t->num_columns(); ++ci) {
      int i = static_cast<int>(ci);
      const ColumnPtr& col = t->column(i);
      RDB_RETURN_NOT_OK(VisitPhysical(col->type(), [&](auto tag) {
        using T = typename decltype(tag)::type;
        return cat->LoadColumn<T>(name, t->column_name(i), col->Data<T>(),
                                  col->sorted(), col->key());
      }));
    }
  }
  for (const tpch::FkIndexDef& fk : tpch::kFkIndexes) {
    RDB_RETURN_NOT_OK(cat->RegisterFkIndex(fk.name, fk.child_table,
                                           fk.child_key, fk.parent_table,
                                           fk.parent_key));
  }
  return Status::OK();
}

}  // namespace recycledb::test_support

#endif  // RECYCLEDB_TESTS_SUPPORT_RAW_TPCH_H_
