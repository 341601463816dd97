// The write helper the tests share: TimeUnionDB::Write reports a refused
// batch through its Status and a rejected row through
// WriteResult::first_error; tests that assert on one outcome want both in
// one Status.
#pragma once

#include "core/timeunion_db.h"

namespace tu {

/// Applies `batch`; OK only when every row applied. `result` (nullable)
/// receives the per-row outcome (resolved refs and group slots).
inline Status WriteAll(core::TimeUnionDB* db, const core::WriteBatch& batch,
                       core::WriteResult* result = nullptr) {
  core::WriteResult local;
  if (result == nullptr) result = &local;
  Status s = db->Write(batch, result);
  return s.ok() ? result->first_error : s;
}

}  // namespace tu
