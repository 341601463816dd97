// Quickstart: open a TimeUnion database, write a few timeseries through
// the slow and fast paths of WriteBatch, and query them back with tag
// selectors.
//
//   ./quickstart [workspace_dir]
#include <cstdio>
#include <memory>

#include "core/timeunion_db.h"
#include "util/mmap_file.h"

using tu::Status;
using tu::core::DBOptions;
using tu::core::QueryResult;
using tu::core::TimeUnionDB;
using tu::core::WriteBatch;
using tu::core::WriteResult;
using tu::index::Labels;
using tu::index::TagMatcher;

int main(int argc, char** argv) {
  DBOptions options;
  options.workspace = argc > 1 ? argv[1] : "/tmp/timeunion_quickstart";
  tu::RemoveDirRecursive(options.workspace);

  std::unique_ptr<TimeUnionDB> db;
  Status st = TimeUnionDB::Open(options, &db);
  if (!st.ok()) {
    std::fprintf(stderr, "open failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // ---- Put (Timeseries), slow path: a labeled row carries the full tag
  // set; Write registers the series and returns its reference. A second
  // series rides in the same batch to demonstrate selectors.
  WriteBatch batch;
  WriteResult written;
  batch.AddSample(Labels{{"hostname", "web-01"},
                         {"metric", "cpu_usage"},
                         {"region", "tokyo"}},
                  /*ts=*/0, /*value=*/12.5);
  batch.AddSample(Labels{{"hostname", "web-01"},
                         {"metric", "mem_usage"},
                         {"region", "tokyo"}},
                  /*ts=*/0, /*value=*/2048);
  st = db->Write(batch, &written);
  if (st.ok()) st = written.first_error;
  if (!st.ok()) {
    std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const uint64_t cpu_ref = written.resolved_refs[0];
  std::printf("registered series ref=%llu\n",
              static_cast<unsigned long long>(cpu_ref));

  // ---- Fast path: subsequent samples go by reference (no tag handling).
  batch.Clear();
  for (int i = 1; i <= 120; ++i) {
    batch.AddSample(cpu_ref, i * 30'000LL, 12.5 + i % 7);
  }
  st = db->Write(batch, &written);
  if (st.ok()) st = written.first_error;
  if (!st.ok()) {
    std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // ---- Get: time range + tag selectors (exact and regex).
  QueryResult result;
  st = db->Query(tu::query::ReadRequest::Range(
                     {TagMatcher::Equal("hostname", "web-01"),
                      TagMatcher::Regex("metric", "cpu.*")},
                     0, 3'600'000),
                 &result);
  if (!st.ok()) {
    std::fprintf(stderr, "query failed: %s\n", st.ToString().c_str());
    return 1;
  }
  for (const auto& series : result) {
    std::printf("series:");
    for (const auto& label : series.labels) {
      std::printf(" %s=%s", label.name.c_str(), label.value.c_str());
    }
    std::printf("\n  %zu samples; first=(%lld, %.1f) last=(%lld, %.1f)\n",
                series.samples.size(),
                static_cast<long long>(series.samples.front().timestamp),
                series.samples.front().value,
                static_cast<long long>(series.samples.back().timestamp),
                series.samples.back().value);
  }

  std::printf("index memory: %llu bytes for %llu series\n",
              static_cast<unsigned long long>(db->IndexMemoryUsage()),
              static_cast<unsigned long long>(db->NumSeries()));
  return 0;
}
