// TSBS DevOps benchmark: command-line entry point.
//
//   tsbs_bench --workload <remote_ingest|history_query|live_mixed>
//              --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]
//
// The workload runs in a forked child. When it has reported, the parent
// kills it with SIGKILL; for the WAL-on workloads the parent then reopens
// the DB crash-style and checks that every acked sample came back. The last
// line of stdout is one JSON object: correct, attempted, failed and the
// end-to-end metrics (--trace 0) or the per-layer ledger (--trace 1).
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <span>
#include <sstream>

#include "bench.h"
#include "util/mmap_file.h"

namespace tsbsbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"ingest_sps", "samples/s"},
    {"write_p50_ms", "ms"},
    {"write_p90_ms", "ms"},
    {"query_qps", "queries/s"},
    {"range_p50_ms", "ms"},
    {"range_p90_ms", "ms"},
    {"agg_p50_ms", "ms"},
    {"agg_p90_ms", "ms"},
    {"stored_bytes_per_sample", "B"},
    {"fast_bytes_per_sample", "B"},
    {"rss_mb", "MB"},
};

/// The ledger. A metric whose layer a workload does not touch reads 0
/// there (server.* on the embedded workloads, WAL metrics without a WAL).
constexpr MetricDef kPerLayer[] = {
    {"server.write_rpc_us", "us"},
    {"server.codec_us_per_batch", "us"},
    {"server.overhead_us_per_batch", "us"},
    {"server.wire_bytes_per_sample", "B/sample"},
    {"server.query_rpc_us", "us"},
    {"core.write_us", "us"},
    {"core.register_us_per_series", "us"},
    {"core.wal_append_us_mean", "us"},
    {"core.reopen_s", "s"},
    {"index.bytes_per_series", "B/series"},
    {"mem.samples_mb", "MB"},
    {"mem.memtable_mb", "MB"},
    {"mem.cache_mb", "MB"},
    {"compress.l2_bytes_per_sample", "B/sample"},
    {"compress.decoded_per_returned", "ratio"},
    {"lsm.flushes_per_msample", "1/Msample"},
    {"lsm.compactions_l0_l1_per_msample", "1/Msample"},
    {"lsm.compactions_l1_l2_per_msample", "1/Msample"},
    {"lsm.compaction_ms_per_msample", "ms/Msample"},
    {"lsm.write_amp", "ratio"},
    {"lsm.tables_per_query", "count/query"},
    {"lsm.tables_pruned_per_query", "count/query"},
    {"lsm.blocks_per_query", "count/query"},
    {"lsm.cache_hit_ratio", "ratio"},
    {"cloud.slow.gets_per_query", "count/query"},
    {"cloud.slow.get_ms_per_query", "ms/query"},
    {"cloud.slow.puts_per_msample", "1/Msample"},
    {"cloud.fast.writes_per_ksample", "1/ksample"},
    {"cloud.fast.bytes_written_per_sample", "B/sample"},
    {"cloud.fast.charged_ms_per_ksample", "ms/ksample"},
    {"query.setup_us", "us"},
    {"query.drain_us", "us"},
    {"query.materialize_us", "us"},
    {"query.rollup_buckets_per_agg", "count/query"},
    {"query.raw_edge_samples_per_agg", "count/query"},
    {"obs.trace_overhead_pct", "%"},
    {"bench.generator_lag_ms", "ms"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: tsbs_bench --workload "
               "<remote_ingest|history_query|live_mixed> --seed <n> "
               "--seconds <s> --trace <0|1> [--workdir <dir>]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && args->seconds > 0 &&
         (args->workload == "remote_ingest" ||
          args->workload == "history_query" ||
          args->workload == "live_mixed");
}

// Child -> parent report, one item per line.
std::string Serialize(const RunOutput& out) {
  std::ostringstream os;
  os.precision(17);
  os << "correct " << (out.correct ? 1 : 0) << "\n";
  os << "crash_check " << (out.crash_check ? 1 : 0) << "\n";
  for (const auto& [kind, t] : out.ops) {
    os << "op " << kind << " " << t.attempted << " " << t.failed << "\n";
  }
  for (const auto& [name, value] : out.metrics) {
    os << "metric " << name << " " << value << "\n";
  }
  for (uint64_t a : out.acked) os << "acked " << a << "\n";
  for (std::string e : out.errors) {
    for (char& c : e) {
      if (c == '\n') c = ' ';
    }
    os << "error " << e << "\n";
  }
  return os.str();
}

RunOutput Deserialize(const std::string& blob) {
  RunOutput out;
  std::istringstream in(blob);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "correct") {
      int v = 0;
      ls >> v;
      out.correct = v == 1;
    } else if (tag == "crash_check") {
      int v = 0;
      ls >> v;
      out.crash_check = v == 1;
    } else if (tag == "op") {
      std::string kind;
      Tally t;
      ls >> kind >> t.attempted >> t.failed;
      out.ops[kind] = t;
    } else if (tag == "metric") {
      std::string name;
      double v = 0;
      ls >> name >> v;
      out.metrics[name] = v;
    } else if (tag == "acked") {
      uint64_t a = 0;
      ls >> a;
      out.acked.push_back(a);
    } else if (tag == "error") {
      out.errors.push_back(line.substr(6));
    }
  }
  return out;
}

RunOutput RunWorkload(const Args& args, const std::string& ws,
                      Ledger& ledger) {
  if (args.workload == "remote_ingest") {
    return RunRemoteIngest(args, ws, ledger);
  }
  if (args.workload == "history_query") {
    return RunHistoryQuery(args, ws, ledger);
  }
  return RunLiveMixed(args, ws, ledger);
}

/// Pins the calling process (and the threads it starts later) to `n`
/// CPUs, starting at the one it runs on. On this 4-vCPU VM every thread
/// hand-off or migration across vCPUs waits on a cross-CPU wake-up whose
/// latency follows the host's load. remote_ingest crosses three hand-offs
/// per request (client, epoll loop, worker, loop): unpinned, query_qps
/// moved 650-1,100 between runs of one build, pinned to one CPU 1,890-1,914.
/// history_query's ingest moved 796-1,019 k samples/s unpinned and
/// 1,046-1,093 k pinned. live_mixed gets two CPUs, one per load thread, so
/// its reader never takes CPU time from the open-loop writer. The cost:
/// no workload can show a change that spreads work over more cores.
bool PinCpus(int n) {
  const int first = sched_getcpu();
  const int cpus = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  if (first < 0 || cpus < 1) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int i = 0; i < std::min(n, cpus); ++i) CPU_SET((first + i) % cpus, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

[[noreturn]] void RunChild(const Args& args, const std::string& ws,
                           const std::string& spans_path, int fd) {
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() == 1) _exit(1);
  if (!PinCpus(args.workload == "live_mixed" ? 2 : 1)) {
    std::fprintf(stderr, "cannot pin the workload to its CPUs\n");
    _exit(1);
  }
  Ledger ledger(args.trace);
  const RunOutput out = RunWorkload(args, ws, ledger);
  if (ledger.enabled()) {
    Status s = ledger.WriteJsonl(spans_path);
    if (!s.ok()) std::fprintf(stderr, "%s\n", s.ToString().c_str());
  }
  const std::string blob = Serialize(out);
  size_t off = 0;
  while (off < blob.size()) {
    const ssize_t n = write(fd, blob.data() + off, blob.size() - off);
    if (n <= 0) _exit(1);
    off += static_cast<size_t>(n);
  }
  close(fd);
  // Keep the DB as it stands until the parent's SIGKILL.
  for (;;) pause();
}

/// Crash-style reopen of a killed WAL-on run: every acked sample of every
/// host must come back, bit for bit.
void CrashCheck(const Args& args, const std::string& ws, RunOutput* out) {
  const Dataset ds = WorkloadDataset(args);
  Tally& t = out->ops["recover"];
  ++t.attempted;
  std::unique_ptr<tu::core::TimeUnionDB> db;
  const double start = NowUs();
  Status s = tu::core::TimeUnionDB::Open(WorkloadOptions(args.workload, ws),
                                         &db);
  out->Add("core.reopen_s", (NowUs() - start) / 1e6);
  if (!s.ok()) {
    ++t.failed;
    out->Fail("reopen: " + s.ToString());
    return;
  }
  for (uint64_t h = 0; h < ds.hosts() && h < out->acked.size(); ++h) {
    ++t.attempted;
    tu::core::QueryResult res;
    s = db->Query(tu::query::ReadRequest::Range(
                      {tu::index::TagMatcher::Equal(
                          "hostname", "host_" + std::to_string(h))},
                      ds.Ts(0), ds.Ts(ds.steps())),
                  &res);
    if (!s.ok()) {
      ++t.failed;
      out->Fail("recover query: " + s.ToString());
      continue;
    }
    const std::string mismatch =
        ds.CheckHost(h, out->acked[h], FromQuery(ds, res));
    if (!mismatch.empty()) out->Fail("after crash: " + mismatch);
    if (!res.complete) out->Fail("after crash: incomplete result");
  }
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", args.workdir.c_str());
    return 1;
  }
  const std::string tag = args.workload + "-" + std::to_string(args.seed);
  const std::string ws =
      args.workdir + "/" + tag + "-" + std::to_string(getpid());
  const std::string spans_path = args.workdir + "/" + tag + ".spans.jsonl";

  int fds[2];
  if (pipe(fds) != 0) return 1;
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) return 1;
  if (pid == 0) {
    close(fds[0]);
    RunChild(args, ws, spans_path, fds[1]);
  }
  close(fds[1]);
  std::string blob;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    blob.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  kill(pid, SIGKILL);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (blob.empty()) {
    std::fprintf(stderr, "workload process ended without a report\n");
    tu::RemoveDirRecursive(ws);
    return 1;
  }
  RunOutput out = Deserialize(blob);
  if (out.crash_check) CrashCheck(args, ws, &out);
  tu::RemoveDirRecursive(ws);

  uint64_t attempted = 0, failed = 0;
  std::string ops;
  for (const auto& [kind, t] : out.ops) {
    attempted += t.attempted;
    failed += t.failed;
    ops += " " + kind + "=" + std::to_string(t.attempted) + "/" +
           std::to_string(t.failed);
  }
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  std::printf("ops attempted/failed:%s\n", ops.c_str());
  std::string json = std::string("{\"correct\": ") +
                     (out.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  const std::span<const MetricDef> defs =
      args.trace ? std::span<const MetricDef>(kPerLayer)
                 : std::span<const MetricDef>(kEndToEnd);
  for (const MetricDef& m : defs) {
    auto it = out.metrics.find(m.name);
    const double v = it != out.metrics.end() ? it->second : 0;
    json += std::string(first ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + JsonNumber(v) + ", \"unit\": \"" + m.unit +
            "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace tsbsbench

int main(int argc, char** argv) { return tsbsbench::Main(argc, argv); }
