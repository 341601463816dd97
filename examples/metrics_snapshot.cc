// Observability tour: run a small write + query workload, then export the
// DB's introspection snapshot in both supported formats — JSON (stable,
// machine-readable schema) and Prometheus text exposition — and read a few
// health fields out of the same snapshot by name.
//
//   ./metrics_snapshot [workspace_dir]
#include <cstdio>
#include <memory>

#include "core/timeunion_db.h"
#include "obs/metrics.h"
#include "util/mmap_file.h"

using tu::Status;
using tu::core::DBOptions;
using tu::core::QueryResult;
using tu::core::TimeUnionDB;
using tu::index::TagMatcher;

int main(int argc, char** argv) {
  DBOptions options;
  options.workspace = argc > 1 ? argv[1] : "/tmp/timeunion_metrics_example";
  tu::RemoveDirRecursive(options.workspace);
  // Metrics are on by default; Validate() runs inside Open and rejects
  // incoherent configs (e.g. hard < soft admission watermarks).

  std::unique_ptr<TimeUnionDB> db;
  Status st = TimeUnionDB::Open(options, &db);
  if (!st.ok()) {
    std::fprintf(stderr, "open failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // A little traffic so the snapshot has something to say.
  tu::core::WriteBatch batch;
  for (int series = 0; series < 4; ++series) {
    for (int i = 0; i < 500; ++i) {
      batch.AddSample(
          tu::index::Labels{{"host", std::to_string(series)}, {"m", "cpu"}},
          i * 1000LL, 0.5 * i);
    }
  }
  tu::core::WriteResult written;
  st = db->Write(batch, &written);
  if (st.ok()) st = written.first_error;
  if (!st.ok()) {
    std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
    return 1;
  }
  db->Flush();
  QueryResult result;
  db->Query(tu::query::ReadRequest::Range({TagMatcher::Equal("m", "cpu")}, 0,
                                          500'000),
            &result);

  // One consistent snapshot: counters, gauges, latency histograms with
  // p50/p90/p99, and the recent-event ring buffer.
  tu::obs::MetricsSnapshot snap = db->Metrics();

  std::printf("--- JSON snapshot ---\n%s\n", snap.ToJson().c_str());
  std::printf("\n--- Prometheus exposition ---\n%s",
              snap.ToPrometheusText().c_str());

  // Scalar lookups against the same snapshot.
  std::printf("\nsamples ingested: %llu, queries run: %llu\n",
              static_cast<unsigned long long>(snap.CounterOr0("ingest.samples")),
              static_cast<unsigned long long>(snap.CounterOr0("query.runs")));
  if (const tu::obs::HistogramSnapshot* h =
          snap.FindHistogram("query.e2e_us")) {
    std::printf("query latency: p50=%.1fus p99=%.1fus max=%llu us\n",
                h->p50_us, h->p99_us,
                static_cast<unsigned long long>(h->max_us));
  }

  // Health questions read the same snapshot by name.
  const std::string* health = snap.FindString("db.health");
  const std::string* last_error = snap.FindString("db.last_background_error");
  std::printf("\nhealth=%s breaker_enabled=%d deferred_tables=%lld "
              "fast_bytes=%lld cache_hits=%llu background_error=%s\n",
              health != nullptr ? health->c_str() : "?",
              snap.GaugeOr0("breaker.enabled") != 0 ? 1 : 0,
              static_cast<long long>(snap.GaugeOr0("lsm.deferred_tables")),
              static_cast<long long>(snap.GaugeOr0("lsm.fast_bytes")),
              static_cast<unsigned long long>(snap.CounterOr0("cache.hits")),
              last_error != nullptr ? last_error->c_str() : "?");
  return 0;
}
