// The three TSBS DevOps workloads. Each has a timed ingest phase and a
// timed query phase (live_mixed runs both at once), checks every output
// against the Dataset model, and reports the end-to-end metrics plus the
// per-layer ledger: spans the benchmark records around its calls into the
// library, and counters diffed over each timed phase.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <random>
#include <thread>

#include "bench.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "util/memory_tracker.h"
#include "util/mmap_file.h"

namespace tsbsbench {

using tu::core::DBOptions;
using tu::core::TimeUnionDB;
using tu::core::WriteBatch;
using tu::core::WriteResult;
using tu::index::TagMatcher;
using tu::obs::MetricsSnapshot;
using tu::query::ReadRequest;

namespace {

/// Setup is repeated and its median reported: one open is a few ms, too
/// short to read steadily on its own.
constexpr int kSetupReps = 9;
constexpr int64_t kHourMs = 3'600'000;
constexpr int64_t kAggStepMs = tu::tsbs::QueryPattern::kAggWindowMs;
constexpr int kFields = Dataset::kFields;
const char* const kTenant = "devops";

// remote_ingest: 20 hosts scraped every 10 s over two connections. Sized so
// that the ingest of a 45 s run spans 12 simulated hours: memtable flushes,
// L0->L1 compactions, WAL purges and L1->L2 uploads all happen inside it.
// The query phase takes the remaining 40% of the run.
constexpr uint64_t kRemoteHosts = 20;
constexpr int kConnections = 2;
constexpr int64_t kRemoteIntervalMs = 10'000;
constexpr double kRemoteStepsPerSecond = 96;
constexpr double kRemoteQueryShare = 0.4;
/// Untimed scrapes written after the queries and left unflushed, so the
/// crash check's reopen replays them from the WAL. One short of a chunk
/// (DBOptions::samples_per_chunk = 32): after the pre-query Flush no head
/// seals, and every tail sample exists only in the WAL.
constexpr uint64_t kRemoteTailSteps = 31;

// history_query: 10 hosts every 60 s (the paper's end-to-end interval),
// backfilled one scrape per batch, so inline compaction stalls hit well
// under 1% of the batches. A 45 s run covers four and a half days, so most
// partitions end in L2 on the slow tier. Slow-tier reads make
// its queries milliseconds long, so the query phase takes 80% of the run,
// and at least kHistoryMinRounds rounds (1,000 aggregates).
constexpr uint64_t kHistoryHosts = 10;
constexpr int64_t kHistoryIntervalMs = 60'000;
constexpr double kHistoryStepsPerSecond = 144;
/// Smaller than the L2 blocks the historical queries touch (the hit ratio
/// stays well below 1 once warm).
constexpr size_t kHistoryCacheBytes = 4 << 20;
constexpr double kHistoryQueryShare = 0.8;
constexpr int kHistoryMinRounds = 167;
/// Windows end at least this far before the newest sample, in L2.
constexpr int64_t kHistoryRecentMs = 6 * kHourMs;

// live_mixed: one scrape of all 4 hosts (404 samples) per batch on a fixed
// schedule, 7,425 batches in a 30 s run, so write_p99 is read over seven
// blocks of 1,000. One closed-loop writer sustains about 360 k samples/s
// here, WAL purge stalls of 0.25-0.9 s included; at half of that the writer
// spends about half the run catching up after stalls and the median write
// swings with them, so the schedule runs at about a quarter of it.
constexpr uint64_t kLiveHosts = 4;
constexpr int64_t kLiveIntervalMs = 10'000;
constexpr double kLiveRateSps = 100'000;

uint64_t Steps(const Args& args) {
  const double s = args.seconds;
  if (args.workload == "remote_ingest") {
    return std::max<uint64_t>(2, std::llround(s * kRemoteStepsPerSecond)) +
           kRemoteTailSteps;
  }
  if (args.workload == "history_query") {
    return std::max<uint64_t>(2, std::llround(s * kHistoryStepsPerSecond));
  }
  const double batch = static_cast<double>(kLiveHosts * kFields);
  return std::max<uint64_t>(2, std::llround(s * kLiveRateSps / batch));
}

/// Query phase length of remote_ingest and history_query.
uint64_t QueryPhaseUs(const Args& args) {
  const double share = args.workload == "remote_ingest" ? kRemoteQueryShare
                                                        : kHistoryQueryShare;
  return static_cast<uint64_t>(args.seconds * share * 1e6);
}

std::string HostName(uint64_t host) { return "host_" + std::to_string(host); }

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

/// One query instance: which series it reads, its selectors, its range.
struct QuerySpec {
  std::vector<SeriesKey> keys;
  std::vector<TagMatcher> matchers;
  int64_t t0 = 0;
  int64_t t1 = 0;
};

/// TSBS selector shapes (as tsbs::PatternSelectors builds them): one host
/// by equality or `num_hosts` consecutive hosts from `first_host` by regex
/// union; one random cpu field, or the first `num_metrics` cpu fields by
/// regex union.
QuerySpec MakeSpec(const Dataset& ds, std::mt19937_64& rng,
                   uint64_t first_host, int num_metrics, int num_hosts,
                   int64_t t0, int64_t t1) {
  QuerySpec q;
  q.t0 = t0;
  q.t1 = t1;
  std::vector<uint64_t> hosts;
  for (int i = 0; i < num_hosts; ++i) {
    hosts.push_back((first_host + i) % ds.hosts());
  }
  std::vector<int> fields;
  if (num_metrics == 1) {
    fields.push_back(static_cast<int>(rng() % Dataset::kCpuFields));
  } else {
    for (int i = 0; i < num_metrics; ++i) fields.push_back(i);
  }
  auto union_of = [](const std::vector<std::string>& names) {
    std::string pat = "(";
    for (size_t i = 0; i < names.size(); ++i) {
      pat += (i > 0 ? "|" : "") + names[i];
    }
    return pat + ")";
  };
  std::vector<std::string> host_names, field_names;
  for (uint64_t h : hosts) host_names.push_back(HostName(h));
  for (int f : fields) field_names.push_back(ds.gen().FieldName(f));
  q.matchers.push_back(host_names.size() == 1
                           ? TagMatcher::Equal("hostname", host_names[0])
                           : TagMatcher::Regex("hostname",
                                               union_of(host_names)));
  q.matchers.push_back(field_names.size() == 1
                           ? TagMatcher::Equal("fieldname", field_names[0])
                           : TagMatcher::Regex("fieldname",
                                               union_of(field_names)));
  for (uint64_t h : hosts) {
    for (int f : fields) q.keys.push_back({h, f});
  }
  return q;
}

/// Per-phase query tallies shared by the workloads.
struct QueryLog {
  Latencies range;
  Latencies agg;
  uint64_t range_returned = 0;  // samples returned by range queries
  uint64_t range_decoded = 0;   // samples the library decoded for them
  std::vector<QuerySpec> sampled;  // traced runs: requests to decompose
};

/// Range requests of a traced run that are re-run after the timed phases to
/// split a query into iterator setup, drain and materialization.
constexpr size_t kDecomposeSamples = 300;

void CheckOutcome(const std::string& kind, const Status& s,
                  const std::string& mismatch, bool complete, RunOutput* out) {
  Tally& t = out->ops[kind];
  ++t.attempted;
  if (!s.ok()) {
    ++t.failed;
    out->Fail(kind + ": " + s.ToString());
    return;
  }
  if (!complete) out->Fail(kind + ": incomplete result");
  if (!mismatch.empty()) out->Fail(kind + ": " + mismatch);
}

/// Embedded range query, timed and checked.
void EmbeddedRange(TimeUnionDB* db, const Dataset& ds, const QuerySpec& q,
                   uint64_t acked_steps, Ledger::Buffer* buf,
                   uint64_t request, QueryLog* log, RunOutput* out) {
  tu::core::QueryResult res;
  const double start = NowUs();
  Status s = db->Query(ReadRequest::Range(q.matchers, q.t0, q.t1), &res);
  const double end = NowUs();
  if (buf != nullptr) buf->Record("query.range", start, end, request);
  log->range.Add(end - start);
  std::string mismatch;
  if (s.ok()) {
    mismatch =
        ds.CheckRange(q.keys, q.t0, q.t1, acked_steps, FromQuery(ds, res));
    for (const auto& series : res.series) {
      log->range_returned += series.samples.size();
    }
    log->range_decoded += res.stats.samples_decoded;
  }
  CheckOutcome("range", s, mismatch,
               res.complete && res.missing_ranges.empty(), out);
  if (buf != nullptr && log->sampled.size() < kDecomposeSamples) {
    log->sampled.push_back(q);
  }
}

/// Embedded 5-minute MAX aggregate, timed and checked.
void EmbeddedAgg(TimeUnionDB* db, const Dataset& ds, const QuerySpec& q,
                 uint64_t acked_steps, Ledger::Buffer* buf, uint64_t request,
                 QueryLog* log, RunOutput* out) {
  TimeUnionDB::AggregateResult res;
  const double start = NowUs();
  Status s = db->AggregateQuery(
      ReadRequest::Aggregate(q.matchers, q.t0, q.t1, kAggStepMs,
                             tu::query::AggFn::kMax),
      &res);
  const double end = NowUs();
  if (buf != nullptr) buf->Record("query.agg", start, end, request);
  log->agg.Add(end - start);
  std::string mismatch;
  if (s.ok()) {
    mismatch = ds.CheckMax(q.keys, q.t0, q.t1, kAggStepMs, acked_steps,
                           FromAggregate(ds, res));
  }
  CheckOutcome("agg", s, mismatch,
               res.complete && res.missing_ranges.empty(), out);
}

/// Remote query (range, or aggregate when `agg`), timed and checked.
void RemoteQuery(tu::server::Client* client, const Dataset& ds,
                 const QuerySpec& q, bool agg, uint64_t acked_steps,
                 Ledger::Buffer* buf, uint64_t request, QueryLog* log,
                 RunOutput* out) {
  const ReadRequest req =
      agg ? ReadRequest::Aggregate(q.matchers, q.t0, q.t1, kAggStepMs,
                                   tu::query::AggFn::kMax)
          : ReadRequest::Range(q.matchers, q.t0, q.t1);
  tu::server::QueryReply reply;
  const double start = NowUs();
  Status s = client->Query(req, &reply);
  const double end = NowUs();
  if (buf != nullptr) buf->Record("server.query_rpc", start, end, request);
  (agg ? log->agg : log->range).Add(end - start);
  if (s.ok()) s = reply.remote_status;
  std::string mismatch;
  if (s.ok()) {
    std::vector<GotSeries> got(reply.series.size());
    for (size_t i = 0; i < reply.series.size(); ++i) {
      if (!ds.Identify(reply.series[i].labels, &got[i].key)) {
        got[i].key.host = UINT64_MAX;
      }
      got[i].ts = reply.series[i].timestamps;
      got[i].values = reply.series[i].values;
      if (!agg) log->range_returned += got[i].ts.size();
    }
    if (!agg) log->range_decoded += reply.stats.samples_decoded;
    mismatch = agg ? ds.CheckMax(q.keys, q.t0, q.t1, kAggStepMs, acked_steps,
                                 got)
                   : ds.CheckRange(q.keys, q.t0, q.t1, acked_steps, got);
  }
  CheckOutcome(agg ? "agg" : "range", s, mismatch,
               reply.missing_ranges.empty(), out);
  if (!agg && buf != nullptr && log->sampled.size() < kDecomposeSamples) {
    log->sampled.push_back(q);
  }
}

/// Traced runs: re-runs sampled range requests embedded, after the timed
/// phases, as QueryIterators (setup) plus the NextBatch loop (drain), then
/// as Query. Materialization is that Query's time minus its own setup and
/// drain stage timers, so all three parts come from one execution.
Latencies DecomposeQueries(TimeUnionDB* db, const std::vector<QuerySpec>& specs,
                           Ledger::Buffer* buf) {
  Latencies materialize;
  uint64_t request = 1'000'000;
  for (const QuerySpec& q : specs) {
    const ReadRequest req = ReadRequest::Range(q.matchers, q.t0, q.t1);
    const uint64_t parent = buf->NextId();
    std::vector<TimeUnionDB::SeriesIterResult> iters;
    tu::query::QueryStats stats;
    const double setup_start = NowUs();
    if (!db->QueryIterators(req, &iters, &stats).ok()) continue;
    const double drain_start = NowUs();
    tu::query::SampleBatch batch;
    for (auto& it : iters) {
      while (it.iter->NextBatch(&batch)) batch.clear();
    }
    const double drain_end = NowUs();
    iters.clear();
    tu::core::QueryResult res;
    const double query_start = NowUs();
    if (!db->Query(req, &res).ok()) continue;
    const double query_end = NowUs();
    buf->Record("query.decompose", setup_start, query_end, request);
    buf->Record("query.setup", setup_start, drain_start, request, parent);
    buf->Record("query.drain", drain_start, drain_end, request, parent);
    buf->Record("query.e2e", query_start, query_end, request, parent);
    materialize.Add((query_end - query_start) -
                    static_cast<double>(res.stats.setup_us) -
                    static_cast<double>(res.stats.drain_us));
    ++request;
  }
  return materialize;
}

// ---------------------------------------------------------------------------
// Shared reporting
// ---------------------------------------------------------------------------

struct Phase {
  MetricsSnapshot before;
  MetricsSnapshot after;
  double wall_us = 0;

  uint64_t Delta(const char* name) const {
    return after.CounterOr0(name) - before.CounterOr0(name);
  }
  double HistMeanUs(const char* name) const {
    const auto* a = after.FindHistogram(name);
    const auto* b = before.FindHistogram(name);
    if (a == nullptr) return 0;
    const uint64_t count = a->count - (b != nullptr ? b->count : 0);
    const uint64_t sum = a->sum_us - (b != nullptr ? b->sum_us : 0);
    return count == 0 ? 0 : static_cast<double>(sum) / count;
  }
  double HistSumUs(const char* name) const {
    const auto* a = after.FindHistogram(name);
    const auto* b = before.FindHistogram(name);
    if (a == nullptr) return 0;
    return static_cast<double>(a->sum_us - (b != nullptr ? b->sum_us : 0));
  }
};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// The end-to-end metrics every workload reports.
void AddEndToEnd(TimeUnionDB* db, double setup_s, uint64_t acked_samples,
                 double ingest_wall_us, const Latencies& writes,
                 const QueryLog& queries, double query_wall_us,
                 RunOutput* out) {
  const double ms = 1e-3;
  const double fast = static_cast<double>(db->env().fast().TotalBytesUsed());
  const double slow = static_cast<double>(db->env().slow().TotalBytesUsed());
  const double samples = static_cast<double>(acked_samples);
  out->Add("setup_s", setup_s);
  out->Add("ingest_sps", Ratio(samples, ingest_wall_us * 1e-6));
  out->Add("write_p50_ms", writes.Percentile(0.5) * ms);
  out->Add("write_p90_ms", writes.Percentile(0.9) * ms);
  out->Add("query_qps",
           Ratio(static_cast<double>(queries.range.size() + queries.agg.size()),
                 query_wall_us * 1e-6));
  out->Add("range_p50_ms", queries.range.Percentile(0.5) * ms);
  out->Add("range_p90_ms", queries.range.Percentile(0.9) * ms);
  out->Add("agg_p50_ms", queries.agg.Percentile(0.5) * ms);
  out->Add("agg_p90_ms", queries.agg.Percentile(0.9) * ms);
  out->Add("stored_bytes_per_sample", Ratio(fast + slow, samples));
  out->Add("fast_bytes_per_sample", Ratio(fast, samples));
  out->Add("rss_mb", PeakRssMb());
}

/// Per-layer metrics read from counters diffed over the timed phases (the
/// span-derived ones are added by each workload).
void AddCounterLayers(TimeUnionDB* db, const Phase& ingest, const Phase& query,
                      uint64_t samples, const QueryLog& queries,
                      RunOutput* out) {
  const double s = static_cast<double>(samples);
  const double msamples = s / 1e6;
  const double ksamples = s / 1e3;
  const double nq =
      static_cast<double>(queries.range.size() + queries.agg.size());

  const double series = static_cast<double>(
      db->NumSeries() + db->NumGroups() * static_cast<uint64_t>(kFields));
  out->Add("core.wal_append_us_mean", ingest.HistMeanUs("wal.append_us"));
  out->Add("index.bytes_per_series",
           Ratio(static_cast<double>(db->IndexMemoryUsage()), series));
  const auto& mem = tu::MemoryTracker::Global();
  const double mb = 1.0 / (1 << 20);
  out->Add("mem.samples_mb", mem.Get(tu::MemCategory::kSamples) * mb);
  out->Add("mem.memtable_mb", mem.Get(tu::MemCategory::kMemtable) * mb);
  out->Add("mem.cache_mb", mem.Get(tu::MemCategory::kCache) * mb);
  out->Add("compress.l2_bytes_per_sample",
           Ratio(static_cast<double>(db->env().slow().TotalBytesUsed()), s));
  out->Add("compress.decoded_per_returned",
           Ratio(static_cast<double>(queries.range_decoded),
                 static_cast<double>(queries.range_returned)));

  out->Add("lsm.flushes_per_msample",
           Ratio(ingest.Delta("lsm.flushes"), msamples));
  out->Add("lsm.compactions_l0_l1_per_msample",
           Ratio(ingest.Delta("lsm.compactions_l0_l1"), msamples));
  out->Add("lsm.compactions_l1_l2_per_msample",
           Ratio(ingest.Delta("lsm.compactions_l1_l2"), msamples));
  out->Add("lsm.compaction_ms_per_msample",
           Ratio(ingest.Delta("lsm.compaction_us_total") / 1e3, msamples));
  out->Add("lsm.write_amp",
           Ratio(static_cast<double>(ingest.Delta("fast.written_bytes") +
                                     ingest.Delta("slow.written_bytes")),
                 16.0 * s));
  out->Add("lsm.tables_per_query",
           Ratio(query.Delta("query.tables_considered"), nq));
  out->Add("lsm.tables_pruned_per_query",
           Ratio(static_cast<double>(query.Delta("query.partitions_pruned") +
                                     query.Delta("query.tables_pruned_id") +
                                     query.Delta("query.tables_pruned_time") +
                                     query.Delta("query.tables_pruned_bloom")),
                 nq));
  out->Add("lsm.blocks_per_query", Ratio(query.Delta("query.blocks_read"), nq));
  const double hits = query.Delta("query.cache_hits");
  out->Add("lsm.cache_hit_ratio",
           Ratio(hits, hits + query.Delta("query.cache_misses")));

  out->Add("cloud.slow.gets_per_query", Ratio(query.Delta("slow.gets"), nq));
  out->Add("cloud.slow.get_ms_per_query",
           Ratio(query.HistSumUs("slow.get_us") / 1e3, nq));
  out->Add("cloud.slow.puts_per_msample",
           Ratio(ingest.Delta("slow.puts"), msamples));
  out->Add("cloud.fast.writes_per_ksample",
           Ratio(ingest.Delta("fast.puts"), ksamples));
  out->Add("cloud.fast.bytes_written_per_sample",
           Ratio(ingest.Delta("fast.written_bytes"), s));
  out->Add("cloud.fast.charged_ms_per_ksample",
           Ratio(ingest.Delta("fast.charged_us") / 1e3, ksamples));

  out->Add("query.rollup_buckets_per_agg",
           Ratio(query.Delta("query.rollup_buckets_served"),
                 static_cast<double>(queries.agg.size())));
  out->Add("query.raw_edge_samples_per_agg",
           Ratio(query.Delta("query.raw_edge_samples"),
                 static_cast<double>(queries.agg.size())));
}

/// Span-derived per-layer metrics common to every workload.
void AddSpanLayers(TimeUnionDB* db, const Ledger& ledger,
                   const QueryLog& queries, double timed_wall_us,
                   uint64_t timed_spans, RunOutput* out) {
  if (!ledger.enabled()) return;
  Ledger::Buffer* buf = const_cast<Ledger&>(ledger).NewBuffer();
  const Latencies materialize = DecomposeQueries(db, queries.sampled, buf);
  out->Add("query.setup_us", ledger.Durations("query.setup").Percentile(0.5));
  out->Add("query.drain_us", ledger.Durations("query.drain").Percentile(0.5));
  out->Add("query.materialize_us", materialize.Percentile(0.5));
  out->Add("obs.trace_overhead_pct",
           Ratio(100.0 * timed_spans * Ledger::CostPerSpanUs(),
                 static_cast<double>(timed_wall_us)));
}

/// core.write_us over every Write span (the first, registering batches
/// included) and the registration cost per series of those first batches.
void AddCoreSpans(const Ledger& ledger, uint64_t series_per_register,
                  RunOutput* out) {
  Latencies all = ledger.Durations("core.write");
  all.Append(ledger.Durations("core.register"));
  out->Add("core.write_us", all.Percentile(0.5));
  out->Add("core.register_us_per_series",
           ledger.Durations("core.register").Mean() /
               static_cast<double>(series_per_register));
}

/// Setup repeated kSetupReps times; the last state is kept.
template <typename State>
double RepeatSetup(const std::function<std::unique_ptr<State>(Status*)>& make,
                   std::unique_ptr<State>* state, Status* s) {
  Latencies reps;
  for (int i = 0; i < kSetupReps; ++i) {
    state->reset();
    const double start = NowUs();
    *state = make(s);
    if (!s->ok()) return 0;
    reps.Add(NowUs() - start);
  }
  return reps.Percentile(0.5) / 1e6;
}

Status FreshDb(const std::string& workload, const std::string& ws,
               std::unique_ptr<TimeUnionDB>* db) {
  TU_RETURN_IF_ERROR(tu::RemoveDirRecursive(ws));
  TU_RETURN_IF_ERROR(tu::EnsureDir(ws));
  return TimeUnionDB::Open(WorkloadOptions(workload, ws), db);
}

bool WriteAcked(const Status& s, const WriteResult& r, size_t rows) {
  return s.ok() && r.ok() && r.appended == rows && r.rejected == 0;
}

}  // namespace

DBOptions WorkloadOptions(const std::string& workload, const std::string& ws) {
  DBOptions o;
  o.workspace = ws;
  // S3 Gets are round trips the caller waits on, so the slow tier sleeps
  // its charged latency. EBS appends land in the page cache: the fast tier
  // keeps charging (counters) without sleeping.
  o.env_options.fast_sim = tu::cloud::TierSimOptions::EbsDefaults();
  o.env_options.fast_sim.real_sleep = false;
  o.env_options.slow_sim = tu::cloud::TierSimOptions::S3Defaults();
  if (workload == "history_query") {
    o.lsm.rollup_granularities_ms = {kAggStepMs};
    o.block_cache_bytes = kHistoryCacheBytes;
  } else {
    o.enable_wal = true;
  }
  return o;
}

Dataset WorkloadDataset(const Args& args) {
  if (args.workload == "remote_ingest") {
    return Dataset(args.seed, kRemoteHosts, kRemoteIntervalMs, Steps(args));
  }
  if (args.workload == "history_query") {
    return Dataset(args.seed, kHistoryHosts, kHistoryIntervalMs, Steps(args));
  }
  return Dataset(args.seed, kLiveHosts, kLiveIntervalMs, Steps(args));
}

// ---------------------------------------------------------------------------
// remote_ingest
// ---------------------------------------------------------------------------

namespace {

struct RemoteState {
  std::string ws;
  std::unique_ptr<Dataset> ds;
  std::unique_ptr<TimeUnionDB> db;
  std::unique_ptr<tu::server::Server> server;
  std::unique_ptr<tu::server::Client> clients[kConnections];

  ~RemoteState() {
    for (auto& c : clients) c.reset();
    if (server != nullptr) server->Shutdown();
    server.reset();
    db.reset();
    tu::RemoveDirRecursive(ws);
  }
};

/// Connection c owns hosts c, c + kConnections, ...; its hosts are
/// scraped kRemoteBatchHosts at a time.
constexpr uint64_t kRemoteBatchHosts = 2;
constexpr uint64_t kRemoteBatchesPerStep =
    kRemoteHosts / kConnections / kRemoteBatchHosts;
constexpr size_t kRemoteBatchSamples = kRemoteBatchHosts * kFields;

/// Batch `b` of connection `c` at `step`: one scrape of that connection's
/// hosts b * kRemoteBatchHosts, ...; the first by labels, later ones by the
/// refs the first ack returned (`refs` empty = first).
void FillScrape(const Dataset& ds, int c, uint64_t b, uint64_t step,
                const std::vector<uint64_t>& refs, WriteBatch* batch) {
  batch->Clear();
  const int64_t ts = ds.Ts(step);
  size_t i = 0;
  for (uint64_t j = b * kRemoteBatchHosts; j < (b + 1) * kRemoteBatchHosts;
       ++j) {
    const uint64_t h = c + j * kConnections;
    for (int f = 0; f < kFields; ++f, ++i) {
      if (refs.empty()) {
        batch->AddSample(ds.SeriesLabels(h, f), ts, ds.Value(h, f, step));
      } else {
        batch->AddSample(refs[i], ts, ds.Value(h, f, step));
      }
    }
  }
}

struct WriterLog {
  Latencies lat;
  Tally tally;
  uint64_t samples = 0;
  std::string error;
};

}  // namespace

RunOutput RunRemoteIngest(const Args& args, const std::string& ws,
                          Ledger& ledger) {
  RunOutput out;
  std::unique_ptr<RemoteState> st;
  Status s;
  const double setup_s = RepeatSetup<RemoteState>(
      [&](Status* s) {
        auto state = std::make_unique<RemoteState>();
        state->ws = ws;
        state->ds = std::make_unique<Dataset>(WorkloadDataset(args));
        *s = FreshDb(args.workload, ws, &state->db);
        if (!s->ok()) return state;
        state->server = std::make_unique<tu::server::Server>(
            state->db.get(), tu::server::ServerOptions());
        *s = state->server->Start();
        for (int c = 0; c < kConnections && s->ok(); ++c) {
          *s = tu::server::Client::Connect("127.0.0.1", state->server->port(),
                                           kTenant, &state->clients[c]);
        }
        return state;
      },
      &st, &s);
  out.ops["setup"].attempted = 1;
  if (!s.ok()) {
    out.ops["setup"].failed = 1;
    out.Fail("setup: " + s.ToString());
    return out;
  }
  const Dataset& ds = *st->ds;
  TimeUnionDB* db = st->db.get();
  out.crash_check = true;
  out.acked.assign(ds.hosts(), 0);
  const uint64_t timed_steps = ds.steps() - kRemoteTailSteps;

  // Timed ingest: connection c owns hosts c, c + 2, ...; one batch is one
  // scrape of them.
  Phase ingest;
  ingest.before = db->Metrics();
  WriterLog writers[kConnections];
  // refs[c][b]: the refs batch b of connection c resolved on its first ack.
  std::vector<std::vector<uint64_t>> refs[kConnections];
  std::vector<Ledger::Buffer*> bufs;
  for (int c = 0; c < kConnections; ++c) bufs.push_back(ledger.NewBuffer());
  const double ingest_start = NowUs();
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        WriterLog& w = writers[c];
        refs[c].resize(kRemoteBatchesPerStep);
        WriteBatch batch;
        tu::server::WriteAck ack;
        uint64_t request = 0;
        for (uint64_t step = 0; step < timed_steps; ++step) {
         for (uint64_t b = 0; b < kRemoteBatchesPerStep; ++b) {
          FillScrape(ds, c, b, step, refs[c][b], &batch);
          const double start = NowUs();
          Status ws = st->clients[c]->Write(batch, &ack);
          const double end = NowUs();
          if (bufs[c] != nullptr) {
            bufs[c]->Record("server.write_rpc", start, end, request++);
          }
          w.lat.Add(end - start);
          ++w.tally.attempted;
          if (ws.ok()) ws = ack.remote_status;
          if (!ws.ok() || ack.appended != kRemoteBatchSamples ||
              ack.rejected != 0 ||
              (step == 0 && ack.resolved_refs.size() != kRemoteBatchSamples)) {
            ++w.tally.failed;
            w.error = "write connection " + std::to_string(c) + " step " +
                      std::to_string(step) + ": " + ws.ToString();
            return;
          }
          if (step == 0) refs[c][b] = ack.resolved_refs;
          for (uint64_t j = b * kRemoteBatchHosts;
               j < (b + 1) * kRemoteBatchHosts; ++j) {
            out.acked[c + j * kConnections] = step + 1;
          }
          w.samples += kRemoteBatchSamples;
         }
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  ingest.wall_us = NowUs() - ingest_start;
  ingest.after = db->Metrics();
  Latencies writes;
  uint64_t acked_samples = 0;
  for (const WriterLog& w : writers) {
    writes.Append(w.lat);
    out.ops["write"].attempted += w.tally.attempted;
    out.ops["write"].failed += w.tally.failed;
    acked_samples += w.samples;
    if (!w.error.empty()) out.Fail(w.error);
  }

  // Untimed: flush what the ingest left in heads and memtables, so every
  // run queries the same on-disk state however the two connections
  // interleaved (without it the query rate swung between runs by 1.7x).
  Status fs = db->Flush();
  if (!fs.ok()) out.Fail("flush before queries: " + fs.ToString());
  // Timed queries through the first connection, alternating a 1-1-1 range
  // and a 5-1-1 aggregate over the newest hour, in whole rounds, until the
  // phase ends. With both connections querying, each request's three thread
  // hand-offs in the server made query_qps and p90 swing 2x between runs.
  Phase query;
  query.before = db->Metrics();
  const int64_t newest = ds.Ts(timed_steps - 1);
  const double query_start = NowUs();
  const double deadline = query_start + QueryPhaseUs(args);
  QueryLog queries;
  {
    std::mt19937_64 rng(args.seed * 7919);
    uint64_t request = 1u << 31;
    do {
      const QuerySpec range = MakeSpec(ds, rng, rng() % ds.hosts(), 1, 1,
                                       newest - kHourMs + 1, newest);
      RemoteQuery(st->clients[0].get(), ds, range, false, out.acked[0],
                  bufs[0], request++, &queries, &out);
      const QuerySpec agg = MakeSpec(ds, rng, rng() % ds.hosts(), 5, 1,
                                     newest - kHourMs + 1, newest);
      RemoteQuery(st->clients[0].get(), ds, agg, true, out.acked[0], bufs[0],
                  request++, &queries, &out);
    } while (NowUs() < deadline);
  }
  query.wall_us = NowUs() - query_start;
  query.after = db->Metrics();
  for (uint64_t h = 1; h < ds.hosts(); ++h) {
    if (out.acked[h] != out.acked[0]) out.Fail("hosts acked unevenly");
  }

  AddEndToEnd(db, setup_s, acked_samples, ingest.wall_us, writes, queries,
              query.wall_us, &out);
  AddCounterLayers(db, ingest, query, acked_samples, queries, &out);
  const uint64_t timed_spans = ledger.NumSpans();
  uint64_t wire_bytes = 0;
  for (auto& c : st->clients) wire_bytes += c->bytes_sent();
  out.Add("server.wire_bytes_per_sample",
          Ratio(static_cast<double>(wire_bytes),
                static_cast<double>(acked_samples)));

  if (ledger.enabled()) {
    // Codec cost of the same batches: encode, frame, extract, decode.
    Ledger::Buffer* buf = ledger.NewBuffer();
    {
      std::vector<uint64_t> wire_refs(kRemoteBatchSamples);
      for (size_t i = 0; i < wire_refs.size(); ++i) wire_refs[i] = i + 1;
      WriteBatch batch;
      std::string body, frame, extracted;
      tu::server::WriteReq req;
      uint64_t request = 0;
      for (uint64_t step = 0; step < timed_steps; ++step) {
        for (uint64_t n = 0; n < kConnections * kRemoteBatchesPerStep; ++n) {
          FillScrape(ds, static_cast<int>(n % kConnections),
                     n / kConnections, step,
                     step == 0 ? std::vector<uint64_t>() : wire_refs, &batch);
          const double start = NowUs();
          body.clear();
          frame.clear();
          tu::server::EncodeWriteReq(request, kTenant, batch, &body);
          tu::server::EncodeFrame(tu::server::MsgType::kWriteReq, body, &frame);
          tu::server::MsgType type;
          bool have = false;
          Status cs = tu::server::ExtractFrame(
              &frame, tu::server::kDefaultMaxFrameBytes, &type, &extracted,
              &have);
          if (cs.ok() && have) {
            cs = tu::server::DecodeWriteReq(tu::Slice(extracted), &req);
          }
          buf->Record("server.codec", start, NowUs(), request++);
          if (!cs.ok() || !have ||
              req.batch.NumSamples() != kRemoteBatchSamples) {
            out.Fail("codec round trip: " + cs.ToString());
          }
        }
      }
    }
    out.Add("server.codec_us_per_batch",
            ledger.Durations("server.codec").Mean());

    // Embedded replay of the same batches, two writer threads as above:
    // the core's own share of each remote write.
    std::unique_ptr<TimeUnionDB> replay;
    const std::string replay_ws = ws + "-replay";
    Status rs = FreshDb(args.workload, replay_ws, &replay);
    if (!rs.ok()) {
      out.Fail("replay open: " + rs.ToString());
    } else {
      std::vector<std::thread> threads;
      std::vector<Ledger::Buffer*> rbufs;
      for (int c = 0; c < kConnections; ++c) {
        rbufs.push_back(ledger.NewBuffer());
      }
      for (int c = 0; c < kConnections; ++c) {
        threads.emplace_back([&, c] {
          std::vector<std::vector<uint64_t>> replay_refs(
              kRemoteBatchesPerStep);
          WriteBatch batch;
          WriteResult res;
          uint64_t request = 0;
          for (uint64_t step = 0; step < timed_steps; ++step) {
            for (uint64_t b = 0; b < kRemoteBatchesPerStep; ++b) {
              FillScrape(ds, c, b, step, replay_refs[b], &batch);
              const double start = NowUs();
              Status s = replay->Write(batch, &res);
              const double end = NowUs();
              rbufs[c]->Record(step == 0 ? "core.register" : "core.write",
                               start, end, request++);
              if (!WriteAcked(s, res, kRemoteBatchSamples)) return;
              if (step == 0) replay_refs[b] = res.resolved_refs;
            }
          }
        });
      }
      for (auto& t : threads) t.join();
      replay.reset();
      tu::RemoveDirRecursive(replay_ws);
    }
    Latencies core_all = ledger.Durations("core.write");
    core_all.Append(ledger.Durations("core.register"));
    const Latencies rpc = ledger.Durations("server.write_rpc");
    out.Add("server.write_rpc_us", rpc.Percentile(0.5));
    out.Add("server.overhead_us_per_batch", rpc.Mean() - core_all.Mean());
    out.Add("server.query_rpc_us",
            ledger.Durations("server.query_rpc").Percentile(0.5));
    AddCoreSpans(ledger, kRemoteBatchSamples, &out);
    AddSpanLayers(db, ledger, queries, ingest.wall_us + query.wall_us,
                  timed_spans, &out);
  }
  // Untimed WAL tail: the last kRemoteTailSteps scrapes, acked but never
  // flushed. The DB stays open: the parent process kills this one and
  // checks that a crash-style reopen, replaying this tail, returns every
  // acked sample.
  WriteBatch batch;
  tu::server::WriteAck ack;
  for (uint64_t step = timed_steps; step < ds.steps() && out.correct; ++step) {
    for (int c = 0; c < kConnections; ++c) {
      for (uint64_t b = 0; b < kRemoteBatchesPerStep; ++b) {
        FillScrape(ds, c, b, step, refs[c][b], &batch);
        Tally& t = out.ops["write"];
        ++t.attempted;
        Status ts = st->clients[c]->Write(batch, &ack);
        if (ts.ok()) ts = ack.remote_status;
        if (!ts.ok() || ack.appended != kRemoteBatchSamples ||
            ack.rejected != 0) {
          ++t.failed;
          out.Fail("tail write step " + std::to_string(step) + ": " +
                   ts.ToString());
        }
      }
    }
    if (out.correct) out.acked.assign(ds.hosts(), step + 1);
  }
  st.release();
  return out;
}


// ---------------------------------------------------------------------------
// history_query
// ---------------------------------------------------------------------------

namespace {

struct EmbeddedState {
  std::string ws;
  std::unique_ptr<Dataset> ds;
  std::unique_ptr<TimeUnionDB> db;

  ~EmbeddedState() {
    db.reset();
    tu::RemoveDirRecursive(ws);
  }
};

double EmbeddedSetup(const Args& args, const std::string& ws,
                     std::unique_ptr<EmbeddedState>* st, RunOutput* out) {
  Status s;
  const double setup_s = RepeatSetup<EmbeddedState>(
      [&](Status* s) {
        auto state = std::make_unique<EmbeddedState>();
        state->ws = ws;
        state->ds = std::make_unique<Dataset>(WorkloadDataset(args));
        *s = FreshDb(args.workload, ws, &state->db);
        return state;
      },
      st, &s);
  out->ops["setup"].attempted = 1;
  if (!s.ok()) {
    out->ops["setup"].failed = 1;
    out->Fail("setup: " + s.ToString());
  }
  return setup_s;
}

/// The first half of the hosts are written as TU-Groups (one group per
/// host, 101 members), the rest as independent series.
bool IsGroupHost(const Dataset& ds, uint64_t host) {
  return host < ds.hosts() / 2;
}

/// One backfill batch: one scrape of `host`. The first addresses the host
/// by labels (as a group row or as 101 samples); later ones reuse the
/// ref-addressed batch the first ack made possible, rewriting only the
/// timestamp and value columns.
void FillBackfill(const Dataset& ds, uint64_t host, uint64_t step,
                  WriteBatch* batch) {
  const int64_t ts = ds.Ts(step);
  if (step == 0) {
    batch->Clear();
    if (IsGroupHost(ds, host)) {
      std::vector<double> values(kFields);
      for (int f = 0; f < kFields; ++f) values[f] = ds.Value(host, f, step);
      batch->AddGroupRow(ds.HostTags(host), ds.MemberTags(), ts,
                         std::move(values));
    } else {
      for (int f = 0; f < kFields; ++f) {
        batch->AddSample(ds.SeriesLabels(host, f), ts, ds.Value(host, f, step));
      }
    }
  } else if (IsGroupHost(ds, host)) {
    WriteBatch::GroupRow& row = batch->group_rows[0];
    row.ts = ts;
    for (int f = 0; f < kFields; ++f) row.values[f] = ds.Value(host, f, step);
  } else {
    for (int f = 0; f < kFields; ++f) {
      batch->sample_ts[f] = ts;
      batch->sample_values[f] = ds.Value(host, f, step);
    }
  }
}

/// Turns a host's acked labeled batch into its ref-addressed form.
bool ToRefBatch(const Dataset& ds, uint64_t host, const WriteResult& res,
                WriteBatch* batch) {
  batch->Clear();
  if (IsGroupHost(ds, host)) {
    if (res.resolved_groups.size() != 1) return false;
    const WriteResult::ResolvedGroup& g = res.resolved_groups[0];
    if (g.group_ref == 0 || g.slots.size() != kFields) return false;
    batch->AddGroupRow(g.group_ref, g.slots, 0, std::vector<double>(kFields));
    return true;
  }
  if (res.resolved_refs.size() != kFields) return false;
  for (uint64_t ref : res.resolved_refs) {
    if (ref == 0) return false;
    batch->AddSample(ref, 0, 0);
  }
  return true;
}

}  // namespace

RunOutput RunHistoryQuery(const Args& args, const std::string& ws,
                          Ledger& ledger) {
  RunOutput out;
  std::unique_ptr<EmbeddedState> st;
  const double setup_s = EmbeddedSetup(args, ws, &st, &out);
  if (!out.correct) return out;
  const Dataset& ds = *st->ds;
  TimeUnionDB* db = st->db.get();
  Ledger::Buffer* buf = ledger.NewBuffer();

  // Timed backfill, time-major: one scrape of every host, then the next.
  // The WAL is off, as for a bulk load.
  Phase ingest;
  ingest.before = db->Metrics();
  std::vector<WriteBatch> batches(ds.hosts());
  WriteResult res;
  Latencies writes;
  uint64_t acked_samples = 0;
  Tally& wt = out.ops["write"];
  const double ingest_start = NowUs();
  uint64_t request = 0;
  for (uint64_t step = 0; step < ds.steps(); ++step) {
    for (uint64_t h = 0; h < ds.hosts(); ++h) {
      WriteBatch& batch = batches[h];
      FillBackfill(ds, h, step, &batch);
      const size_t rows = batch.NumRows();
      const double start = NowUs();
      Status s = db->Write(batch, &res);
      const double end = NowUs();
      if (buf != nullptr) {
        buf->Record(step == 0 ? "core.register" : "core.write", start, end,
                    request++);
      }
      writes.Add(end - start);
      ++wt.attempted;
      if (!WriteAcked(s, res, rows) ||
          (step == 0 && !ToRefBatch(ds, h, res, &batch))) {
        ++wt.failed;
        out.Fail("write host_" + std::to_string(h) + " step " +
                 std::to_string(step) + ": " + s.ToString() + " " +
                 res.first_error.ToString());
        break;
      }
      acked_samples += kFields;
    }
    if (wt.failed != 0) break;
  }
  ingest.wall_us = NowUs() - ingest_start;
  ingest.after = db->Metrics();
  const uint64_t acked_steps = wt.failed == 0 ? ds.steps() : 0;

  // Timed queries: the seven TSBS Table 2 patterns in whole rounds over
  // seeded historical windows, each as a raw range read and (except
  // lastpoint) as a 5-minute MAX aggregate.
  const std::vector<tu::tsbs::QueryPattern> patterns =
      tu::tsbs::StandardPatterns();
  std::mt19937_64 rng(args.seed * 104729 + 1);
  const int64_t span_ms = static_cast<int64_t>(ds.steps()) * ds.interval_ms();
  const int64_t newest = ds.Ts(ds.steps() - 1);
  QueryLog queries;
  Phase query;
  query.before = db->Metrics();
  const double query_start = NowUs();
  const double deadline = query_start + QueryPhaseUs(args);
  for (int round = 0; round < kHistoryMinRounds || NowUs() < deadline;
       ++round) {
    for (size_t i = 0; i < patterns.size(); ++i) {
      const tu::tsbs::QueryPattern& p = patterns[i];
      int64_t t0, t1;
      if (p.lastpoint) {
        t1 = newest;
        t0 = newest - kAggStepMs + 1;
      } else {
        const int64_t len = p.hours * kHourMs;
        const int64_t slack_min =
            std::max<int64_t>(0, (span_ms - kHistoryRecentMs - len) / 60'000);
        t0 = ds.Ts(0) + static_cast<int64_t>(rng() % (slack_min + 1)) * 60'000;
        t1 = t0 + len - 1;
      }
      // Hosts rotate instead of being drawn, so every run reads group and
      // series hosts in the same proportion: their aggregate costs differ
      // several-fold, and a drawn mix moved agg_p50 by 45% between seeds.
      const uint64_t first_host = (args.seed + round + i) % ds.hosts();
      const QuerySpec q = MakeSpec(ds, rng, first_host, p.num_metrics,
                                   p.num_hosts, t0, t1);
      EmbeddedRange(db, ds, q, acked_steps, buf, request++, &queries, &out);
      if (!p.lastpoint) {
        EmbeddedAgg(db, ds, q, acked_steps, buf, request++, &queries, &out);
      }
    }
  }
  query.wall_us = NowUs() - query_start;
  query.after = db->Metrics();

  AddEndToEnd(db, setup_s, acked_samples, ingest.wall_us, writes, queries,
              query.wall_us, &out);
  AddCounterLayers(db, ingest, query, acked_samples, queries, &out);
  if (ledger.enabled()) {
    const uint64_t timed_spans = ledger.NumSpans();
    AddCoreSpans(ledger, kFields, &out);
    AddSpanLayers(db, ledger, queries, ingest.wall_us + query.wall_us,
                  timed_spans, &out);
  }
  st.release();  // the parent process kills this one; nothing to flush
  return out;
}

// ---------------------------------------------------------------------------
// live_mixed
// ---------------------------------------------------------------------------

RunOutput RunLiveMixed(const Args& args, const std::string& ws,
                       Ledger& ledger) {
  RunOutput out;
  std::unique_ptr<EmbeddedState> st;
  const double setup_s = EmbeddedSetup(args, ws, &st, &out);
  if (!out.correct) return out;
  const Dataset& ds = *st->ds;
  TimeUnionDB* db = st->db.get();
  out.crash_check = true;
  out.acked.assign(ds.hosts(), 0);
  Ledger::Buffer* wbuf = ledger.NewBuffer();
  Ledger::Buffer* rbuf = ledger.NewBuffer();

  const size_t batch_samples = ds.hosts() * kFields;
  const double period_us = batch_samples * 1e6 / kLiveRateSps;
  std::atomic<uint64_t> acked_steps{0};
  std::atomic<bool> writer_done{false};
  Latencies writes, lag;
  Tally& wt = out.ops["write"];
  std::string writer_error;
  QueryLog queries;
  RunOutput reader_out;

  Phase phase;
  phase.before = db->Metrics();
  const double start = NowUs();
  double writer_end = start;
  double reader_start = 0, reader_end = 0;
  // Open-loop writer: scrape i of every host is due at start + i * period
  // and its latency counts from then, so a stall also delays the batches
  // queued behind it.
  std::thread writer([&] {
    WriteBatch batch;
    WriteResult res;
    for (uint64_t step = 0; step < ds.steps(); ++step) {
      const int64_t ts = ds.Ts(step);
      if (step == 0) {
        for (uint64_t h = 0; h < ds.hosts(); ++h) {
          for (int f = 0; f < kFields; ++f) {
            batch.AddSample(ds.SeriesLabels(h, f), ts, ds.Value(h, f, step));
          }
        }
      } else {
        size_t i = 0;
        for (uint64_t h = 0; h < ds.hosts(); ++h) {
          for (int f = 0; f < kFields; ++f, ++i) {
            batch.sample_ts[i] = ts;
            batch.sample_values[i] = ds.Value(h, f, step);
          }
        }
      }
      const double due = start + static_cast<double>(step) * period_us;
      double now = NowUs();
      if (now < due) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::micro>(due - now));
        now = NowUs();
      }
      lag.Add(now - due);
      const size_t rows = batch.NumRows();
      Status s = db->Write(batch, &res);
      const double end = NowUs();
      if (wbuf != nullptr) {
        wbuf->Record(step == 0 ? "core.register" : "core.write", now, end,
                     step);
      }
      writes.Add(end - due);
      ++wt.attempted;
      if (!WriteAcked(s, res, rows) ||
          (step == 0 && res.resolved_refs.size() != rows)) {
        ++wt.failed;
        writer_error = "write step " + std::to_string(step) + ": " +
                       s.ToString() + " " + res.first_error.ToString();
        break;
      }
      if (step == 0) {
        batch.Clear();
        for (uint64_t ref : res.resolved_refs) batch.AddSample(ref, 0, 0);
      }
      for (uint64_t h = 0; h < ds.hosts(); ++h) out.acked[h] = step + 1;
      acked_steps.store(step + 1, std::memory_order_release);
    }
    writer_end = NowUs();
    writer_done.store(true, std::memory_order_release);
  });
  // Closed-loop reader beside it: 1-1-1 ranges and 5-1-1 aggregates over
  // the newest acked hour, in whole rounds.
  std::thread reader([&] {
    std::mt19937_64 rng(args.seed * 15485863 + 3);
    uint64_t request = 0;
    while (acked_steps.load(std::memory_order_acquire) == 0 &&
           !writer_done.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    reader_start = NowUs();
    while (!writer_done.load(std::memory_order_acquire)) {
      const uint64_t acked = acked_steps.load(std::memory_order_acquire);
      const int64_t newest = ds.Ts(acked - 1);
      const QuerySpec range =
          MakeSpec(ds, rng, rng() % ds.hosts(), 1, 1,
                       newest - kHourMs + 1, newest);
      EmbeddedRange(db, ds, range, acked, rbuf, request++, &queries,
                    &reader_out);
      const QuerySpec agg =
          MakeSpec(ds, rng, rng() % ds.hosts(), 5, 1,
                       newest - kHourMs + 1, newest);
      EmbeddedAgg(db, ds, agg, acked, rbuf, request++, &queries, &reader_out);
    }
    reader_end = NowUs();
  });
  writer.join();
  reader.join();
  phase.wall_us = writer_end - start;
  phase.after = db->Metrics();
  if (!writer_error.empty()) out.Fail(writer_error);
  for (const auto& [kind, t] : reader_out.ops) {
    out.ops[kind].attempted += t.attempted;
    out.ops[kind].failed += t.failed;
  }
  for (const auto& e : reader_out.errors) out.Fail(e);

  const uint64_t acked_samples =
      acked_steps.load() * static_cast<uint64_t>(batch_samples);
  AddEndToEnd(db, setup_s, acked_samples, phase.wall_us, writes, queries,
              reader_end - reader_start, &out);
  AddCounterLayers(db, phase, phase, acked_samples, queries, &out);
  if (ledger.enabled()) {
    const uint64_t timed_spans = ledger.NumSpans();
    AddCoreSpans(ledger, batch_samples, &out);
    out.Add("bench.generator_lag_ms", lag.Percentile(0.99) / 1e3);
    AddSpanLayers(db, ledger, queries, phase.wall_us, timed_spans, &out);
  }
  // The DB stays open: the parent process kills this one and checks that a
  // crash-style reopen returns every acked sample.
  st.release();
  return out;
}

}  // namespace tsbsbench
