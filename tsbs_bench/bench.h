// Shared pieces of the TSBS DevOps benchmark: run arguments, the
// generator-backed model the outputs are checked against, latency sets,
// the span ledger of traced runs, and the result a workload hands back.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/timeunion_db.h"
#include "index/labels.h"
#include "tsbs/devops.h"

namespace tsbsbench {

using tu::Status;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  /// Scratch root for DB workspaces and span files (inside the checkout).
  std::string workdir = ".bench_build/work";
};

/// Steady-clock microseconds, with sub-microsecond digits.
double NowUs();

/// Peak resident set of this process (getrusage ru_maxrss, as VmHWM), in MB.
double PeakRssMb();

/// One timed operation kind: every latency in microseconds.
class Latencies {
 public:
  void Add(double us) { us_.push_back(us); }
  void Append(const Latencies& o) {
    us_.insert(us_.end(), o.us_.begin(), o.us_.end());
  }
  size_t size() const { return us_.size(); }
  double Mean() const;
  /// Nearest-rank percentile, p in (0, 1].
  double Percentile(double p) const;

 private:
  std::vector<double> us_;
};

/// Attempted / failed operations of one kind.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// A (host, field) series of the DevOps data set.
struct SeriesKey {
  uint64_t host = 0;
  int field = 0;
  bool operator<(const SeriesKey& o) const {
    return host != o.host ? host < o.host : field < o.field;
  }
};

/// One returned series, normalized from the embedded and the wire results
/// (for aggregates `ts` holds window starts and `values` the maxima).
struct GotSeries {
  SeriesKey key;
  std::vector<int64_t> ts;
  std::vector<double> values;
};

/// The inputs of one workload and the model its outputs are checked
/// against. Samples sit on a fixed grid: host h, field f, step s has
/// timestamp start + s * interval and the generator's value for it. The
/// expected answers are computed here from that grid alone — never through
/// the library's query or aggregation kernels.
class Dataset {
 public:
  /// The cpu family (fields 0..9) is what the TSBS queries read; its
  /// values are tabulated up front so checks stay cheap.
  static constexpr int kCpuFields = 10;

  Dataset(uint64_t seed, uint64_t hosts, int64_t interval_ms, uint64_t steps);

  const tu::tsbs::DevOpsGenerator& gen() const { return gen_; }
  uint64_t hosts() const { return hosts_; }
  uint64_t steps() const { return steps_; }
  int64_t interval_ms() const { return interval_ms_; }
  int64_t Ts(uint64_t step) const {
    return start_ + static_cast<int64_t>(step) * interval_ms_;
  }
  double Value(uint64_t host, int field, uint64_t step) const;

  /// Labels of a whole series, and the per-host group / member split.
  const tu::index::Labels& SeriesLabels(uint64_t host, int field) const {
    return series_labels_[host * kFields + field];
  }
  const tu::index::Labels& HostTags(uint64_t host) const {
    return host_tags_[host];
  }
  const std::vector<tu::index::Labels>& MemberTags() const {
    return member_tags_;
  }

  /// Maps a result's labels back to its (host, field).
  bool Identify(const tu::index::Labels& labels, SeriesKey* key) const;

  /// Returns "" when `got` is exactly the samples of `keys` in [t0, t1]
  /// among steps [0, acked_steps), else what differs.
  std::string CheckRange(const std::vector<SeriesKey>& keys, int64_t t0,
                         int64_t t1, uint64_t acked_steps,
                         const std::vector<GotSeries>& got) const;
  /// Same for MAX per `step_ms` window (window start = floor(ts/step)).
  std::string CheckMax(const std::vector<SeriesKey>& keys, int64_t t0,
                       int64_t t1, int64_t step_ms, uint64_t acked_steps,
                       const std::vector<GotSeries>& got) const;
  /// Checks one host's full history: every field, every acked step.
  std::string CheckHost(uint64_t host, uint64_t acked_steps,
                        const std::vector<GotSeries>& got) const;

  static constexpr int kFields = tu::tsbs::DevOpsGenerator::kSeriesPerHost;

 private:
  /// Expected (ts, value) of one series in [t0, t1] ∩ acked steps.
  void Expected(const SeriesKey& key, int64_t t0, int64_t t1,
                uint64_t acked_steps, std::vector<int64_t>* ts,
                std::vector<double>* values) const;
  std::string Compare(const std::vector<SeriesKey>& keys,
                      const std::map<SeriesKey, GotSeries>& expected,
                      const std::vector<GotSeries>& got) const;

  tu::tsbs::DevOpsGenerator gen_;
  uint64_t hosts_;
  int64_t interval_ms_;
  uint64_t steps_;
  int64_t start_;
  std::vector<double> cpu_;  // [host][field < kCpuFields][step]
  std::vector<tu::index::Labels> series_labels_;
  std::vector<tu::index::Labels> host_tags_;
  std::vector<tu::index::Labels> member_tags_;
  std::unordered_map<std::string, int> field_index_;
};

/// Span ledger of a traced run: each thread records into its own buffer;
/// everything is kept in memory and written out once, at exit.
class Ledger {
 public:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    uint64_t id;
    uint64_t parent;   // 0 = root
    uint64_t request;  // batch or query number; spans of one request share it
  };
  class Buffer {
   public:
    /// Records a finished span and returns its id.
    uint64_t Record(const char* name, double start_us, double end_us,
                    uint64_t request, uint64_t parent = 0) {
      const uint64_t id = (index_ << 40) | (spans_.size() + 1);
      spans_.push_back({name, start_us, end_us, id, parent, request});
      return id;
    }
    /// Reserves an id for a parent span recorded after its children.
    uint64_t NextId() const { return (index_ << 40) | (spans_.size() + 1); }

   private:
    friend class Ledger;
    explicit Buffer(uint64_t index) : index_(index) {}
    uint64_t index_;
    std::vector<Span> spans_;
  };

  explicit Ledger(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// A fresh per-thread buffer, or nullptr when tracing is off.
  Buffer* NewBuffer();

  /// Durations (us) of every span called `name`.
  Latencies Durations(const char* name) const;
  uint64_t NumSpans() const;
  /// Cost of recording one span (clock reads + append), measured here.
  static double CostPerSpanUs();
  /// One JSON object per span.
  Status WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// What a workload hands back to the parent process.
struct RunOutput {
  bool correct = true;
  std::vector<std::string> errors;  // first few mismatches
  std::map<std::string, Tally> ops;
  /// Metric values by name; units live with the metric table in main.cc.
  std::map<std::string, double> metrics;
  /// WAL-on workloads: options to reopen with, and acked steps per host
  /// (every sample of host h at a step below acked[h] was acknowledged).
  bool crash_check = false;
  std::vector<uint64_t> acked;

  void Fail(const std::string& what) {
    correct = false;
    if (errors.size() < 8) errors.push_back(what);
  }
  void Add(const std::string& name, double value) { metrics[name] = value; }
};

/// Workload entry points (run inside the forked child). `ledger` records
/// spans when the run is traced.
RunOutput RunRemoteIngest(const Args& args, const std::string& ws,
                          Ledger& ledger);
RunOutput RunHistoryQuery(const Args& args, const std::string& ws,
                          Ledger& ledger);
RunOutput RunLiveMixed(const Args& args, const std::string& ws,
                       Ledger& ledger);

/// DB options of a workload; the crash check reopens with the same ones.
tu::core::DBOptions WorkloadOptions(const std::string& workload,
                                    const std::string& ws);
/// Rebuilds the data set a run used (crash check in the parent).
Dataset WorkloadDataset(const Args& args);

/// Normalizes results into GotSeries (unidentifiable series are flagged
/// with host = UINT64_MAX so the comparison reports them).
std::vector<GotSeries> FromQuery(const Dataset& ds,
                                 const tu::core::QueryResult& r);
std::vector<GotSeries> FromAggregate(
    const Dataset& ds, const tu::core::TimeUnionDB::AggregateResult& r);

}  // namespace tsbsbench
