#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>

#include "bench.h"

namespace tsbsbench {

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Latencies::Mean() const {
  if (us_.empty()) return 0;
  double sum = 0;
  for (double v : us_) sum += v;
  return sum / static_cast<double>(us_.size());
}

double Latencies::Percentile(double p) const {
  if (us_.empty()) return 0;
  std::vector<double> sorted = us_;
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  const size_t idx = std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(sorted.begin(), sorted.begin() + idx, sorted.end());
  return sorted[idx];
}

// ---------------------------------------------------------------------------
// Dataset
// ---------------------------------------------------------------------------

namespace {

constexpr int64_t kDayMs = 86'400'000;
// Midnight UTC, so every seed keeps the same partition alignment.
constexpr int64_t kBaseTs = 1'600'041'600'000;

tu::tsbs::DevOpsOptions GenOptions(uint64_t seed, uint64_t hosts,
                                   int64_t interval_ms, uint64_t steps) {
  tu::tsbs::DevOpsOptions o;
  o.num_hosts = hosts;
  // The seed moves the data by whole days: the per-sample jitter and the
  // host tag values change, the daily wave and partition layout do not.
  o.start_ts = kBaseTs + static_cast<int64_t>(seed % 64) * kDayMs;
  o.interval_ms = interval_ms;
  o.duration_ms = static_cast<int64_t>(steps) * interval_ms;
  o.seed = seed;
  return o;
}

}  // namespace

Dataset::Dataset(uint64_t seed, uint64_t hosts, int64_t interval_ms,
                 uint64_t steps)
    : gen_(GenOptions(seed, hosts, interval_ms, steps)),
      hosts_(hosts),
      interval_ms_(interval_ms),
      steps_(steps),
      start_(gen_.start_ts()) {
  cpu_.resize(hosts * kCpuFields * steps);
  for (uint64_t h = 0; h < hosts; ++h) {
    for (int f = 0; f < kCpuFields; ++f) {
      double* row = &cpu_[(h * kCpuFields + f) * steps];
      for (uint64_t s = 0; s < steps; ++s) row[s] = gen_.Value(h, f, Ts(s));
    }
  }
  series_labels_.reserve(hosts * kFields);
  host_tags_.reserve(hosts);
  for (uint64_t h = 0; h < hosts; ++h) {
    host_tags_.push_back(gen_.HostTags(h));
    for (int f = 0; f < kFields; ++f) {
      series_labels_.push_back(gen_.SeriesLabels(h, f));
    }
  }
  for (int f = 0; f < kFields; ++f) {
    member_tags_.push_back(gen_.UniqueTags(f));
    field_index_[gen_.FieldName(f)] = f;
  }
}

double Dataset::Value(uint64_t host, int field, uint64_t step) const {
  if (field < kCpuFields) {
    return cpu_[(host * kCpuFields + field) * steps_ + step];
  }
  return gen_.Value(host, field, Ts(step));
}

bool Dataset::Identify(const tu::index::Labels& labels, SeriesKey* key) const {
  bool have_host = false, have_field = false;
  for (const tu::index::Label& l : labels) {
    if (l.name == "hostname" && l.value.rfind("host_", 0) == 0) {
      key->host = std::strtoull(l.value.c_str() + 5, nullptr, 10);
      have_host = key->host < hosts_;
    } else if (l.name == "fieldname") {
      auto it = field_index_.find(l.value);
      if (it != field_index_.end()) {
        key->field = it->second;
        have_field = true;
      }
    }
  }
  return have_host && have_field;
}

void Dataset::Expected(const SeriesKey& key, int64_t t0, int64_t t1,
                       uint64_t acked_steps, std::vector<int64_t>* ts,
                       std::vector<double>* values) const {
  ts->clear();
  values->clear();
  if (t1 < start_ || acked_steps == 0) return;
  const int64_t lo = std::max<int64_t>(0, (t0 - start_ + interval_ms_ - 1) /
                                              interval_ms_);
  const int64_t hi = std::min<int64_t>(static_cast<int64_t>(acked_steps) - 1,
                                       (t1 - start_) / interval_ms_);
  for (int64_t s = lo; s <= hi; ++s) {
    ts->push_back(Ts(static_cast<uint64_t>(s)));
    values->push_back(Value(key.host, key.field, static_cast<uint64_t>(s)));
  }
}

std::string Dataset::Compare(const std::vector<SeriesKey>& keys,
                             const std::map<SeriesKey, GotSeries>& expected,
                             const std::vector<GotSeries>& got) const {
  std::set<SeriesKey> seen;
  for (const GotSeries& g : got) {
    if (g.key.host == UINT64_MAX) return "unidentifiable series in result";
    auto it = expected.find(g.key);
    if (it == expected.end()) {
      if (!g.ts.empty()) {
        return "unexpected series host_" + std::to_string(g.key.host) +
               " field " + std::to_string(g.key.field);
      }
      continue;
    }
    if (!seen.insert(g.key).second) return "series returned twice";
    if (g.ts != it->second.ts || g.values != it->second.values) {
      std::ostringstream os;
      os << "host_" << g.key.host << " field " << g.key.field << ": got "
         << g.ts.size() << " points, expected " << it->second.ts.size();
      for (size_t i = 0; i < std::min(g.ts.size(), it->second.ts.size());
           ++i) {
        if (g.ts[i] != it->second.ts[i] ||
            g.values[i] != it->second.values[i]) {
          os << "; first difference at " << i << " (" << g.ts[i] << ","
             << g.values[i] << ") vs (" << it->second.ts[i] << ","
             << it->second.values[i] << ")";
          break;
        }
      }
      return os.str();
    }
  }
  for (const SeriesKey& k : keys) {
    if (expected.count(k) != 0 && seen.count(k) == 0) {
      return "missing series host_" + std::to_string(k.host) + " field " +
             std::to_string(k.field);
    }
  }
  return "";
}

std::string Dataset::CheckRange(const std::vector<SeriesKey>& keys, int64_t t0,
                                int64_t t1, uint64_t acked_steps,
                                const std::vector<GotSeries>& got) const {
  std::map<SeriesKey, GotSeries> expected;
  for (const SeriesKey& k : keys) {
    GotSeries e;
    e.key = k;
    Expected(k, t0, t1, acked_steps, &e.ts, &e.values);
    if (!e.ts.empty()) expected[k] = std::move(e);
  }
  return Compare(keys, expected, got);
}

std::string Dataset::CheckMax(const std::vector<SeriesKey>& keys, int64_t t0,
                              int64_t t1, int64_t step_ms,
                              uint64_t acked_steps,
                              const std::vector<GotSeries>& got) const {
  std::map<SeriesKey, GotSeries> expected;
  std::vector<int64_t> ts;
  std::vector<double> values;
  for (const SeriesKey& k : keys) {
    Expected(k, t0, t1, acked_steps, &ts, &values);
    if (ts.empty()) continue;
    GotSeries e;
    e.key = k;
    for (size_t i = 0; i < ts.size(); ++i) {
      const int64_t window = ts[i] / step_ms * step_ms;
      if (e.ts.empty() || e.ts.back() != window) {
        e.ts.push_back(window);
        e.values.push_back(values[i]);
      } else if (values[i] > e.values.back()) {
        e.values.back() = values[i];
      }
    }
    expected[k] = std::move(e);
  }
  return Compare(keys, expected, got);
}

std::string Dataset::CheckHost(uint64_t host, uint64_t acked_steps,
                               const std::vector<GotSeries>& got) const {
  std::vector<SeriesKey> keys;
  for (int f = 0; f < kFields; ++f) keys.push_back({host, f});
  return CheckRange(keys, Ts(0), Ts(steps_), acked_steps, got);
}

std::vector<GotSeries> FromQuery(const Dataset& ds,
                                 const tu::core::QueryResult& r) {
  std::vector<GotSeries> out(r.series.size());
  for (size_t i = 0; i < r.series.size(); ++i) {
    if (!ds.Identify(r.series[i].labels, &out[i].key)) {
      out[i].key.host = UINT64_MAX;
    }
    out[i].ts.reserve(r.series[i].samples.size());
    out[i].values.reserve(r.series[i].samples.size());
    for (const tu::compress::Sample& s : r.series[i].samples) {
      out[i].ts.push_back(s.timestamp);
      out[i].values.push_back(s.value);
    }
  }
  return out;
}

std::vector<GotSeries> FromAggregate(
    const Dataset& ds, const tu::core::TimeUnionDB::AggregateResult& r) {
  std::vector<GotSeries> out(r.series.size());
  for (size_t i = 0; i < r.series.size(); ++i) {
    if (!ds.Identify(r.series[i].labels, &out[i].key)) {
      out[i].key.host = UINT64_MAX;
    }
    for (const tu::query::AggPoint& p : r.series[i].points) {
      out[i].ts.push_back(p.window_start);
      out[i].values.push_back(p.value);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Ledger
// ---------------------------------------------------------------------------

Ledger::Buffer* Ledger::NewBuffer() {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(
      std::unique_ptr<Buffer>(new Buffer(buffers_.size() + 1)));
  buffers_.back()->spans_.reserve(1 << 16);
  return buffers_.back().get();
}

Latencies Ledger::Durations(const char* name) const {
  std::lock_guard<std::mutex> lock(mu_);
  Latencies out;
  const std::string wanted(name);
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans_) {
      if (wanted == s.name) out.Add(static_cast<double>(s.end_us - s.start_us));
    }
  }
  return out;
}

uint64_t Ledger::NumSpans() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& b : buffers_) n += b->spans_.size();
  return n;
}

double Ledger::CostPerSpanUs() {
  constexpr int kSpans = 200'000;
  Ledger probe(true);
  Buffer* buf = probe.NewBuffer();
  const double start = NowUs();
  for (int i = 0; i < kSpans; ++i) {
    const double t = NowUs();
    buf->Record("probe", t, NowUs(), static_cast<uint64_t>(i));
  }
  return (NowUs() - start) / kSpans;
}

Status Ledger::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                   "\"id\":%llu,\"parent\":%llu,\"request\":%llu}\n",
                   s.name, s.start_us, s.end_us,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
  }
  return std::fclose(f) == 0 ? Status::OK()
                             : Status::IOError("cannot close " + path);
}

}  // namespace tsbsbench
