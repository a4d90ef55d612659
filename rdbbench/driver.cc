// RecycleDB benchmark driver: runs one workload against an in-process
// QueryService (and, for wire_hot, a loopback RecycleServer), then prints
// one JSON object with its measurements as the last line of stdout.
//
//   rdbbench_driver --workload reuse_hot --seed 1 --seconds 10 --trace 0
//
// --trace 0 is the timed run: set-up is repeated kSetups times (the median
// is setup_s), then one closed-loop window of --seconds is measured with no
// spans. --trace 1 is the traced run: part A repeats the closed loop with
// spans off and on; part B replays the SELECT stream single-threaded through
// the service's public parts, again off and on. Spans go to --spans.
// Progress and errors go to stderr.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "server/query_service.h"
#include "spans.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "tpch/tpch.h"
#include "util/str.h"
#include "util/timer.h"
#include "workload.h"

#ifndef RDBBENCH_BUILD_TYPE
#define RDBBENCH_BUILD_TYPE "unknown"
#endif

namespace rdbbench {
namespace {

using namespace recycledb;  // NOLINT: the driver calls every layer

// --- fixed configuration (the same for every workload) ----------------------

constexpr int kWorkers = 3;        // they share the one CPU (see PinToOneCpu)
constexpr int kInflight = 8;       // in-process generator window
constexpr int kWireConns = 1;      // wire_hot: blocking clients, one thread each
constexpr int kSetups = 3;         // timed run: set-ups, setup_s is their median
constexpr size_t kBudgetBytes = size_t{256} << 20;
// mixed_rw write events per second. Each commit that touches `orders` makes
// the next reads of every orders pattern recompute; every in-flight copy of
// the lineitem x orders join misses until the first one is admitted, and the
// closed loop stalls for tens of ms. A low rate keeps those stalls well under
// 5% of the reads, so neither the rate nor the p95 of the workload swings
// with the host's speed.
constexpr double kWriterRate = 1;
constexpr size_t kStreamLen = size_t{1} << 16;  // SELECTs generated per run
constexpr size_t kMaxSamples = 32;              // answer-check sample cap
constexpr int64_t kNsPerSec = 1000000000;
constexpr size_t kDumpRequests = 40000;  // span trees dumped per log, at most

/// Closed-loop statements run before timing starts: for adhoc_evict enough
/// to fill the pool up to its budget. The pooled streams first run each
/// distinct text once (see WarmPool).
size_t WarmupStatements(Workload w) {
  return w == Workload::kAdhocEvict ? 160 : 400;
}

/// The sample is taken in runs of consecutive statements. Statements issued
/// back to back read the same snapshot, so under mixed_rw the sample pins
/// only kMaxSamples / kSampleRun catalog versions until the check.
constexpr size_t kSampleRun = 4;

int64_t Now() { return NowNanos(); }
double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "rdbbench: %s\n", msg.c_str());
  std::exit(2);
}

/// Linear interpolation between order statistics; 0 for an empty sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

/// Mean of the middle half of the values (the interquartile mean): steadier
/// than the mean when a few values are disturbed, and than the median when
/// none are.
double MiddleMean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t drop = v.size() / 4;
  double sum = 0;
  for (size_t i = drop; i < v.size() - drop; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * drop);
}

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  return x ^ (x >> 33);
}

/// Forgets the memory high-water mark of earlier set-up repetitions: hands
/// freed heap back to the OS and resets VmHWM to the current resident set.
void ResetPeakRss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// Cumulative time of the CPU the process is pinned to, from its line of
/// /proc/stat, in clock ticks.
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  const std::string prefix = StrFormat("cpu%d ", sched_getcpu());
  if (std::FILE* f = std::fopen("/proc/stat", "r")) {
    char line[512];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::string(line).rfind(prefix, 0) != 0) continue;
      unsigned long long v[8] = {};
      if (std::sscanf(line + prefix.size(),
                      "%llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                      &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
        for (unsigned long long x : v) t.total += x;
        t.steal = v[7];
      }
      break;
    }
    std::fclose(f);
  }
  return t;
}

/// Peak resident set in MiB since the last ResetPeakRss(): VmHWM from
/// /proc/self/status, or getrusage's process-lifetime maximum without it.
double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- counters read by name from MetricsSnapshot() ---------------------------

using Counters = std::map<std::string, uint64_t>;

Counters ReadCounters(const QueryService& svc) {
  Counters out;
  for (const obs::MetricValue& m : svc.MetricsSnapshot().metrics) {
    if (m.kind != obs::MetricValue::Kind::kHistogram) out[m.name] = m.value;
  }
  return out;
}

/// Counter movement over a window. A name the service no longer exports
/// stops the run instead of reading as zero.
double Delta(const Counters& before, const Counters& after,
             const std::string& name) {
  auto a = before.find(name);
  auto b = after.find(name);
  if (a == before.end() || b == after.end())
    Die("service exports no metric named " + name);
  return static_cast<double>(b->second) - static_cast<double>(a->second);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --- JSON output ------------------------------------------------------------

class JsonObject {
 public:
  void Num(const std::string& k, double v) {
    Key(k);
    body_ += std::isfinite(v) ? StrFormat("%.12g", v) : std::string("null");
  }
  void Str(const std::string& k, const std::string& v) {
    Key(k);
    body_ += '"';
    for (char c : v) {
      if (c == '"' || c == '\\') body_ += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) body_ += c;
    }
    body_ += '"';
  }
  void Bool(const std::string& k, bool v) {
    Key(k);
    body_ += v ? "true" : "false";
  }
  void Raw(const std::string& k, const std::string& json) {
    Key(k);
    body_ += json;
  }
  std::string Build() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& k) {
    if (!body_.empty()) body_ += ", ";
    body_ += '"' + k + "\": ";
  }
  std::string body_;
};

// --- the system under test --------------------------------------------------

/// CPUs the process may run on.
int AllowedCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

/// Pins the process to the last CPU it may run on; threads started later
/// inherit the pin. Every workload runs pinned, so a run measures what a
/// statement costs on one CPU, and the hypervisor's steal slows it in
/// proportion rather than many times over:
///  - With all vCPUs busy, the host stole 10-22% of this guest's CPU time in
///    some runs, and reuse_hot's rate dropped from 72k to 21k stmt/s.
///  - A hit takes tens of microseconds and crosses threads several times.
///    Across vCPUs each handoff waits until the hypervisor runs the woken
///    vCPU again; on one CPU it is a context switch.
void PinToOneCpu() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) != 0)
    Die("sched_getaffinity failed");
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) last = c;
  CPU_ZERO(&set);
  CPU_SET(last, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0)
    Die("sched_setaffinity failed");
}

struct Options {
  Workload workload = Workload::kReuseHot;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double sf = 0.05;
  std::string spans_path;
};

/// Catalog, service, and for wire_hot the loopback server and its clients.
/// Members are destroyed in reverse order: clients, server, service, catalog.
struct Env {
  std::unique_ptr<Catalog> cat;
  std::unique_ptr<QueryService> svc;
  std::unique_ptr<net::RecycleServer> server;
  std::vector<std::unique_ptr<net::Client>> clients;
  double load_s = 0;
  uint64_t base_orders = 0;
};

ServiceConfig MakeServiceConfig() {
  ServiceConfig cfg;
  cfg.num_workers = kWorkers;
  cfg.recycler.max_bytes = kBudgetBytes;
  return cfg;
}

std::unique_ptr<Env> StartEnv(const Options& opt) {
  auto env = std::make_unique<Env>();
  env->cat = std::make_unique<Catalog>();
  tpch::TpchConfig tc;
  tc.scale_factor = opt.sf;
  const int64_t t0 = Now();
  Status st = tpch::LoadTpch(env->cat.get(), tc);
  env->load_s = static_cast<double>(Now() - t0) / kNsPerSec;
  if (!st.ok()) Die("LoadTpch: " + st.ToString());
  env->base_orders = env->cat->FindTable("orders")->num_rows();
  env->svc =
      std::make_unique<QueryService>(env->cat.get(), MakeServiceConfig());
  if (opt.workload == Workload::kWireHot) {
    env->server = std::make_unique<net::RecycleServer>(env->svc.get());
    st = env->server->Start();
    if (!st.ok()) Die("RecycleServer::Start: " + st.ToString());
    net::ClientConfig cc;
    cc.port = env->server->port();
    for (int i = 0; i < kWireConns; ++i) {
      env->clients.push_back(std::make_unique<net::Client>());
      st = env->clients.back()->Connect(cc);
      if (!st.ok()) Die("Client::Connect: " + st.ToString());
    }
  }
  return env;
}

// --- the read stream --------------------------------------------------------

/// One SELECT kept for the answer check: its text, the snapshot it read, and
/// the answer the system under test returned.
struct Sample {
  std::string sql;
  CatalogSnapshotPtr snap;
  QueryResult got;
  bool answered = false;
};

/// Shared state of one run's read stream: the generated statements, the
/// position the next statement is taken from, and the answer-check samples.
/// Sample slots are reserved up front, so callbacks may fill them while the
/// generator claims further slots.
class ReadStream {
 public:
  ReadStream(Workload w, uint64_t seed)
      : seed_(seed),
        stmts_(GenerateReads(w, seed, kStreamLen)),
        sessions_(kMaxSamples) {
    samples_.reserve(kMaxSamples);
    for (auto& s : sessions_) s = std::make_unique<Session>();
  }

  size_t Claim() { return next_.fetch_add(1, std::memory_order_relaxed); }
  /// The stream's distinct texts, sorted.
  std::vector<std::string> Distinct() const {
    std::vector<std::string> d = stmts_;
    std::sort(d.begin(), d.end());
    d.erase(std::unique(d.begin(), d.end()), d.end());
    return d;
  }
  const std::string& At(size_t i) const { return stmts_[i % stmts_.size()]; }

  /// Samples are only taken in the measured window: 1 in `every_`
  /// statements, a stride that spreads the sample over `seconds` when
  /// statements complete at `rate` per second (the warm-up's rate).
  void StartSampling(double rate, double seconds) {
    every_ = std::max<uint64_t>(
        1, static_cast<uint64_t>(rate * seconds /
                                 (1.5 * static_cast<double>(kMaxSamples))));
  }
  void StopSampling() { every_ = 0; }

  /// Whether statement `i` belongs to the seeded answer-check sample.
  bool Selected(size_t i) const {
    return every_ != 0 &&
           Mix(seed_ * 1315423911u + i / kSampleRun) % every_ == 0;
  }
  /// Claims a sample slot for selected statement `i` reading `snap`; -1 once
  /// the slots are used up. Called by generator threads only.
  int AddSample(size_t i, CatalogSnapshotPtr snap) {
    std::lock_guard<std::mutex> lock(mu_);
    if (samples_.size() >= kMaxSamples) return -1;
    samples_.push_back(Sample{At(i), std::move(snap), QueryResult{}, false});
    return static_cast<int>(samples_.size() - 1);
  }
  Sample& sample(int k) { return samples_[k]; }
  Session* sample_session(int k) { return sessions_[k].get(); }
  std::vector<Sample>& samples() { return samples_; }

 private:
  uint64_t seed_;
  std::vector<std::string> stmts_;
  std::atomic<size_t> next_{0};
  uint64_t every_ = 0;
  std::mutex mu_;
  std::vector<Sample> samples_;
  std::vector<std::unique_ptr<Session>> sessions_;
};

/// Per-read timestamps. Stored in fixed chunks so a completion callback can
/// hold a pointer to its record while the generator appends more.
struct ReadRec {
  int64_t submit = 0;
  int64_t ret = 0;  ///< SubmitAsync returned (in-process only)
  int64_t done = 0;
  bool ok = false;
};

class RecStore {
 public:
  ReadRec* Next() {
    if (n_ % kChunk == 0) chunks_.push_back(std::make_unique<ReadRec[]>(kChunk));
    return &chunks_.back()[n_++ % kChunk];
  }
  size_t size() const { return n_; }
  const ReadRec& operator[](size_t i) const {
    return chunks_[i / kChunk][i % kChunk];
  }

 private:
  static constexpr size_t kChunk = 1 << 14;
  std::vector<std::unique_ptr<ReadRec[]>> chunks_;
  size_t n_ = 0;
};

struct ReadStats {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// (submit, done) of every read that completed OK.
  std::vector<std::pair<int64_t, int64_t>> ok;
};

/// Reports the first few errors of a run on stderr.
void LogError(const std::string& what, const Status& st) {
  static std::atomic<int> logged{0};
  if (logged.fetch_add(1) < 5)
    std::fprintf(stderr, "rdbbench: %s failed: %s\n", what.c_str(),
                 st.ToString().c_str());
}

/// Waits until `pred` holds without sleeping: on a virtual machine a
/// sleeping thread's wake-up costs tens of microseconds and varies with the
/// host's load, which would otherwise set reuse_hot's rate. Yielding rather
/// than spinning hands the CPU to a worker the scheduler placed beside the
/// generator.
template <typename Pred>
void SpinUntil(Pred pred) {
  while (!pred()) std::this_thread::yield();
}

/// Closed loop through QueryService::SubmitAsync: one generator thread keeps
/// kInflight SELECTs outstanding until `max_stmts` were issued or the
/// deadline passed, then waits for the stragglers. With `spans` set, each
/// read records read / server.route / server.pending spans.
ReadStats RunInProcessReads(QueryService* svc, ReadStream* stream,
                            size_t max_stmts, int64_t deadline,
                            SpanLog* spans) {
  std::atomic<int> inflight{0};
  RecStore recs;
  Session session;
  size_t issued = 0;
  while (issued < max_stmts && Now() < deadline) {
    SpinUntil([&] {
      return inflight.load(std::memory_order_acquire) < kInflight;
    });
    inflight.fetch_add(1, std::memory_order_relaxed);
    const size_t i = stream->Claim();
    ++issued;
    ReadRec* rec = recs.Next();
    Session* sess = &session;
    const int k =
        stream->Selected(i) ? stream->AddSample(i, svc->CurrentSnapshot()) : -1;
    if (k >= 0) {
      // The sample reads exactly the snapshot it records.
      sess = stream->sample_session(k);
      sess->Pin(stream->sample(k).snap);
    }
    rec->submit = Now();
    svc->SubmitAsync(
        Request{stream->At(i), sess, {}},
        [&, rec, k](Result<QueryResult> r) {
          rec->done = Now();
          rec->ok = r.ok();
          if (!r.ok()) {
            LogError("SELECT", r.status());
          } else if (k >= 0) {
            stream->sample(k).got = std::move(r).value();
            stream->sample(k).answered = true;
          }
          // The last access: once inflight reaches 0 the generator may
          // return and destroy it.
          inflight.fetch_sub(1, std::memory_order_release);
        });
    rec->ret = Now();
  }
  SpinUntil([&] { return inflight.load(std::memory_order_acquire) == 0; });
  ReadStats out;
  out.attempted = recs.size();
  out.ok.reserve(recs.size());
  for (size_t i = 0; i < recs.size(); ++i) {
    const ReadRec& r = recs[i];
    if (!r.ok) {
      ++out.failed;
      continue;
    }
    out.ok.emplace_back(r.submit, r.done);
    if (spans != nullptr) {
      // A callback may fire before SubmitAsync returns; the pending span
      // then has zero length and the route span covers the execution.
      const int64_t end = std::max(r.done, r.ret);
      uint32_t root = spans->Add(SpanName::kRead, 0, i + 1, r.submit, end);
      spans->Add(SpanName::kRoute, root, i + 1, r.submit, r.ret);
      spans->Add(SpanName::kPending, root, i + 1, r.ret, end);
    }
  }
  return out;
}

/// wire_hot closed loop: kWireConns threads, each a blocking net::Client with
/// one request outstanding.
ReadStats RunWireReads(Env* env, ReadStream* stream, size_t max_stmts,
                       int64_t deadline, SpanLog* spans) {
  std::atomic<size_t> issued{0};
  std::vector<std::vector<ReadRec>> recs(env->clients.size());
  std::vector<std::thread> threads;
  const CatalogSnapshotPtr snap = env->svc->CurrentSnapshot();
  for (size_t c = 0; c < env->clients.size(); ++c) {
    threads.emplace_back([&, c] {
      net::Client* client = env->clients[c].get();
      while (issued.fetch_add(1) < max_stmts && Now() < deadline) {
        const size_t i = stream->Claim();
        const int k = stream->Selected(i) ? stream->AddSample(i, snap) : -1;
        ReadRec rec;
        rec.submit = Now();
        auto r = client->Query(stream->At(i));
        rec.done = rec.ret = Now();
        rec.ok = r.ok();
        if (!r.ok()) {
          LogError("wire SELECT", r.status());
        } else if (k >= 0) {
          stream->sample(k).got = std::move(r).value().result;
          stream->sample(k).answered = true;
        }
        recs[c].push_back(rec);
      }
    });
  }
  for (auto& t : threads) t.join();
  ReadStats out;
  uint64_t req = 0;
  for (const auto& per_conn : recs) {
    for (const ReadRec& r : per_conn) {
      ++out.attempted;
      ++req;
      if (!r.ok) {
        ++out.failed;
        continue;
      }
      out.ok.emplace_back(r.submit, r.done);
      if (spans != nullptr)
        spans->Add(SpanName::kRoundtrip, 0, req, r.submit, r.done);
    }
  }
  return out;
}

ReadStats RunReads(Env* env, ReadStream* stream, size_t max_stmts,
                   int64_t deadline, SpanLog* spans) {
  if (env->server != nullptr)
    return RunWireReads(env, stream, max_stmts, deadline, spans);
  return RunInProcessReads(env->svc.get(), stream, max_stmts, deadline, spans);
}

/// Runs every distinct text of a pooled stream once, one at a time, in sorted
/// order. Which intermediates the pool keeps depends on the order and overlap
/// of first executions (a later statement may be answered by subsumption from
/// an earlier one's entry), so a fixed order makes the pool, and with it
/// memory and per-statement cost, the same for every seed.
void WarmPool(Env* env, const std::vector<std::string>& distinct) {
  Session session;
  for (const std::string& text : distinct) {
    Status st;
    if (env->server != nullptr) {
      auto r = env->clients[0]->Query(text);
      st = r.ok() ? Status::OK() : r.status();
    } else {
      auto r = env->svc->Submit(Request{text, &session, {}}).future.get();
      st = r.ok() ? Status::OK() : r.status();
    }
    if (!st.ok()) Die("warm-up " + text + ": " + st.ToString());
  }
}

// --- the mixed_rw writer ----------------------------------------------------

struct WriteStats {
  uint64_t attempted = 0;  ///< statements submitted
  std::vector<int64_t> ok_done;  ///< completion times of OK statements
  uint64_t conflicts = 0;  ///< expected first-writer-wins refusals
  uint64_t failed = 0;     ///< unexpected outcomes
  uint64_t txns = 0;
  std::vector<double> txn_ms;  ///< scheduled start -> commit result
  std::vector<double> late_ms;  ///< actual start - scheduled start
};

/// Runs the writer's transaction sequence open-loop at kWriterRate from its
/// own thread. Every statement goes through QueryService::Submit(Request).
/// `dml_mu` is held around each Submit, so the part-B replay can compile a
/// plan while no commit is in progress.
class Writer {
 public:
  Writer(QueryService* svc, const std::vector<WriteEvent>* events,
         std::mutex* dml_mu)
      : svc_(svc), events_(events), dml_mu_(dml_mu) {}
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;
  ~Writer() { Join(); }

  void Start(int64_t t0, int64_t deadline, SpanLog* spans) {
    stats_ = WriteStats{};
    thread_ = std::thread(
        [this, t0, deadline, spans] { Loop(t0, deadline, spans); });
  }
  void Join() {
    if (thread_.joinable()) thread_.join();
  }
  const WriteStats& stats() const { return stats_; }

 private:
  void Loop(int64_t t0, int64_t deadline, SpanLog* spans) {
    const int64_t period = static_cast<int64_t>(kNsPerSec / kWriterRate);
    for (int64_t k = 0;; ++k) {
      const int64_t sched = t0 + k * period;
      if (sched >= deadline || next_event_ >= events_->size()) return;
      std::this_thread::sleep_for(std::chrono::nanoseconds(sched - Now()));
      stats_.late_ms.push_back(Ms(std::max<int64_t>(0, Now() - sched)));
      Run((*events_)[next_event_++], sched, spans);
    }
  }

  /// Submits one statement; returns its status and records a catalog span.
  Status Exec(const std::string& sql, Session* sess, bool commits,
              uint32_t parent, uint64_t txn, SpanLog* spans) {
    const int64_t t0 = Now();
    Status st;
    {
      std::lock_guard<std::mutex> lock(*dml_mu_);
      auto r = svc_->Submit(Request{sql, sess, {}}).future.get();
      st = r.ok() ? Status::OK() : r.status();
    }
    const int64_t t1 = Now();
    if (spans != nullptr)
      spans->Add(commits ? SpanName::kCatalogCommit : SpanName::kCatalogStmt,
                 parent, txn, t0, t1);
    ++stats_.attempted;
    if (st.ok()) stats_.ok_done.push_back(t1);
    return st;
  }

  void Expect(const Status& st, bool want_conflict, const std::string& what) {
    if (want_conflict && st.code() == StatusCode::kWriteConflict) {
      ++stats_.conflicts;
    } else if (want_conflict || !st.ok()) {
      ++stats_.failed;
      LogError(what, st.ok() ? Status::Internal("expected a WriteConflict")
                             : st);
    }
  }

  void Run(const WriteEvent& e, int64_t sched, SpanLog* spans) {
    const uint64_t id_a = ++txn_seq_;
    uint32_t root_a = spans ? spans->Open(SpanName::kWriteTxn, 0, id_a, sched)
                            : 0;
    if (e.kind != WriteEvent::Kind::kPair) {
      Status st = Exec(e.sql[0], &sess_a_, true, root_a, id_a, spans);
      Expect(st, false, "autocommit DML");
      Finish(root_a, sched, spans);
      return;
    }
    const uint64_t id_b = ++txn_seq_;
    uint32_t root_b = spans ? spans->Open(SpanName::kWriteTxn, 0, id_b, sched)
                            : 0;
    // B begins before A commits, so overlapping bands must conflict.
    Status a = Exec("begin", &sess_a_, false, root_a, id_a, spans);
    Status b = Exec("begin", &sess_b_, false, root_b, id_b, spans);
    if (a.ok()) a = Exec(e.sql[0], &sess_a_, false, root_a, id_a, spans);
    if (b.ok()) b = Exec(e.sql[1], &sess_b_, false, root_b, id_b, spans);
    if (a.ok()) a = Exec("commit", &sess_a_, true, root_a, id_a, spans);
    Finish(root_a, sched, spans);
    const bool a_committed = a.ok();
    Expect(a, false, "UPDATE transaction A");
    if (b.ok()) b = Exec("commit", &sess_b_, true, root_b, id_b, spans);
    Finish(root_b, sched, spans);
    Expect(b, e.overlap && a_committed, "UPDATE transaction B");
    // A failed statement leaves its transaction open; close it.
    for (Session* s : {&sess_a_, &sess_b_}) {
      if (!s->in_txn()) continue;
      std::lock_guard<std::mutex> lock(*dml_mu_);
      svc_->Submit(Request{"rollback", s, {}}).future.get();
    }
  }

  void Finish(uint32_t root, int64_t sched, SpanLog* spans) {
    const int64_t end = Now();
    ++stats_.txns;
    stats_.txn_ms.push_back(Ms(end - sched));
    if (spans != nullptr) spans->Close(root, end);
  }

  QueryService* svc_;
  const std::vector<WriteEvent>* events_;
  std::mutex* dml_mu_;
  Session sess_a_, sess_b_;
  size_t next_event_ = 0;
  uint64_t txn_seq_ = 0;
  WriteStats stats_;
  std::thread thread_;
};

// --- part B: single-threaded replay through the service's public parts -------

struct ReplayStats {
  uint64_t stmts = 0;
  uint64_t failed = 0;
  double result_bytes = 0;  ///< Σ encoded RESULT frame bytes (wire_hot)
};

ReplayStats Replay(Env* env, ReadStream* stream, int64_t deadline, bool wire,
                   std::mutex* dml_mu, SpanLog* spans) {
  QueryService* svc = env->svc.get();
  std::unique_ptr<ConcurrentRecycler::Session> rsess =
      svc->recycler().NewSession();
  Interpreter interp(svc->catalog(), rsess.get());
  net::FrameDecoder decoder;
  ReplayStats out;
  while (Now() < deadline) {
    const size_t i = stream->Claim();
    const std::string& text = stream->At(i);
    const uint64_t req = i + 1;
    ++out.stmts;
    const int64_t t0 = Now();
    auto parsed = sql::ParseStatement(text);
    const int64_t t1 = Now();
    if (!parsed.ok()) {
      ++out.failed;
      LogError("replay parse", parsed.status());
      continue;
    }
    const sql::SelectStmt& stmt = parsed.value().select;
    const std::string fp = sql::Fingerprint(stmt);
    PlanCache::EntryPtr entry = svc->plan_cache().Lookup(fp);
    std::vector<Scalar> params;
    Status st;
    if (entry == nullptr) {
      std::lock_guard<std::mutex> lock(*dml_mu);
      auto plan = sql::CompileStmt(svc->catalog(), stmt, &params);
      if (plan.ok()) {
        PlanCache::Entry e;
        e.prog = std::make_shared<const Program>(std::move(plan.value().prog));
        e.param_types = std::move(plan.value().param_types);
        e.table_ids = std::move(plan.value().table_ids);
        entry = svc->plan_cache().Insert(fp, std::move(e));
      } else {
        st = plan.status();
      }
    } else {
      auto bound = sql::BindLiterals(stmt, entry->param_types);
      if (bound.ok())
        params = std::move(bound).value();
      else
        st = bound.status();
    }
    const int64_t t2 = Now();
    if (!st.ok()) {
      ++out.failed;
      LogError("replay plan", st);
      continue;
    }
    const CatalogSnapshotPtr snap = svc->CurrentSnapshot();
    interp.set_snapshot(snap.get());
    rsess->set_epoch(snap->epoch());
    const int64_t t3 = Now();
    auto r = interp.Run(*entry->prog, params);
    const int64_t t4 = Now();
    interp.set_snapshot(nullptr);
    rsess->set_epoch(kEpochLatest);
    const RunStats& rs = interp.last_run();
    if (!r.ok()) {
      ++out.failed;
      LogError("replay run", r.status());
      continue;
    }
    int64_t t5 = t4, t6 = t4, t7 = t4;
    if (wire) {
      t5 = Now();
      net::Frame f;
      f.kind = net::FrameKind::kResult;
      f.request_id = req;
      net::PutString(&f.payload, net::EncodeResultSet(r.value()));
      const std::string bytes = net::EncodeFrame(f);
      t6 = Now();
      out.result_bytes += static_cast<double>(bytes.size());
      decoder.Feed(bytes.data(), bytes.size());
      net::Frame back;
      std::string rs_bytes;
      bool ok = decoder.Next(&back) == net::FrameDecoder::Outcome::kFrame;
      net::Cursor c{&back.payload};
      ok = ok && net::GetString(&c, &rs_bytes).ok() &&
           net::DecodeResultSet(rs_bytes).ok();
      t7 = Now();
      if (!ok) {
        ++out.failed;
        LogError("replay decode", Status::Internal("round trip failed"));
      }
    }
    if (spans != nullptr) {
      const uint32_t root = spans->Add(SpanName::kReplayStmt, 0, req, t0, t7);
      spans->Add(SpanName::kParse, root, req, t0, t1);
      spans->Add(SpanName::kPlan, root, req, t1, t2);
      const uint32_t run = spans->Add(SpanName::kInterpRun, root, req, t3, t4);
      const int64_t exec_ns = std::min<int64_t>(
          t4 - t3, static_cast<int64_t>(rs.exec_ms * 1e6));
      spans->Add(SpanName::kEngineExec, run, req, t3, t3 + exec_ns);
      if (wire) {
        spans->Add(SpanName::kNetEncode, root, req, t5, t6);
        spans->Add(SpanName::kNetDecode, root, req, t6, t7);
      }
    }
  }
  return out;
}

// --- answer check -----------------------------------------------------------

struct CheckStats {
  size_t samples = 0;
  size_t mismatches = 0;
  size_t unanswered = 0;
};

/// Re-runs every answered sample on a plain Interpreter (no recycler) at the
/// snapshot the sample read, and compares the answers. Runs after every
/// writer stopped, so compiling against the live catalog is serialised.
CheckStats CheckAnswers(Env* env, ReadStream* stream) {
  CheckStats out;
  Interpreter plain(env->cat.get());
  std::map<std::pair<std::string, uint64_t>, QueryResult> reference;
  for (const Sample& s : stream->samples()) {
    ++out.samples;
    if (!s.answered) {
      ++out.unanswered;  // the read failed, and counts as failed already
      continue;
    }
    auto key = std::make_pair(s.sql, s.snap->epoch());
    auto it = reference.find(key);
    if (it == reference.end()) {
      auto q = sql::CompileSql(env->cat.get(), s.sql);
      if (!q.ok()) Die("reference compile: " + q.status().ToString());
      plain.set_snapshot(s.snap.get());
      auto r = plain.Run(q.value().plan.prog, q.value().params);
      plain.set_snapshot(nullptr);
      if (!r.ok()) Die("reference run: " + r.status().ToString());
      it = reference.emplace(key, std::move(r).value()).first;
    }
    auto parsed = sql::ParseSelect(s.sql);
    if (!parsed.ok()) Die("sample parse: " + parsed.status().ToString());
    if (!SameResult(s.got, it->second, parsed.value().order_by.present)) {
      ++out.mismatches;
      std::fprintf(stderr, "rdbbench: ANSWER MISMATCH for %s\n got:\n%s want:\n%s",
                   s.sql.c_str(), s.got.ToString().c_str(),
                   it->second.ToString().c_str());
    }
  }
  return out;
}

// --- the run ----------------------------------------------------------------

std::string TableRowsJson(const Catalog& cat) {
  JsonObject o;
  for (const char* t : {"region", "nation", "supplier", "customer", "part",
                        "partsupp", "orders", "lineitem"}) {
    const Table* tab = cat.FindTable(t);
    o.Num(t, tab ? static_cast<double>(tab->num_rows()) : 0);
  }
  return o.Build();
}

std::string StampJson(const Options& opt) {
  JsonObject o;
  o.Str("workload", WorkloadName(opt.workload));
  o.Num("seed", static_cast<double>(opt.seed));
  o.Num("seconds", opt.seconds);
  o.Num("nproc", std::thread::hardware_concurrency());
  o.Num("cpus", AllowedCpus());
  o.Num("sf", opt.sf);
  o.Num("workers", kWorkers);
  o.Num("inflight",
        opt.workload == Workload::kWireHot ? kWireConns : kInflight);
  o.Num("budget_bytes", static_cast<double>(kBudgetBytes));
  o.Num("writer_rate",
        opt.workload == Workload::kMixedRw ? kWriterRate : 0);
  o.Str("build_type", RDBBENCH_BUILD_TYPE);
  return o.Build();
}

/// One measured window of the workload's own traffic: the closed loop plus,
/// for mixed_rw, the open-loop writer.
struct Window {
  int64_t t0 = 0;
  int64_t deadline = 0;
  CpuTimes cpu_before, cpu_after;
  ReadStats reads;
  WriteStats writes;
  Counters before, after;
};

Window MeasureWindow(Env* env, ReadStream* stream, Writer* writer,
                     double seconds, SpanLog* read_spans,
                     SpanLog* write_spans) {
  Window w;
  w.before = ReadCounters(*env->svc);
  w.cpu_before = ReadCpuTimes();
  w.t0 = Now();
  w.deadline = w.t0 + static_cast<int64_t>(seconds * kNsPerSec);
  if (writer != nullptr) writer->Start(w.t0, w.deadline, write_spans);
  w.reads = RunReads(env, stream, SIZE_MAX, w.deadline, read_spans);
  if (writer != nullptr) {
    writer->Join();
    w.writes = writer->stats();
  }
  w.after = ReadCounters(*env->svc);
  w.cpu_after = ReadCpuTimes();
  return w;
}

/// The window cut into kSlices equal slices: each slice gets the rate of
/// statements completed in it and the percentiles of the reads submitted in
/// it. qps, read_p50_ms and read_p95_ms are the middle means over the
/// slices, so a burst of outside load in one or two slices does not move
/// them.
struct SliceFigures {
  std::vector<double> qps, p50_ms, p95_ms;  ///< one value per slice
};

std::string JsonArray(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i)
    out += (i ? ", " : "") + StrFormat("%.6g", v[i]);
  return out + "]";
}

SliceFigures Slices(const Window& w) {
  constexpr int kSlices = 10;
  const int64_t len = (w.deadline - w.t0) / kSlices;
  auto slice_of = [&](int64_t t) {
    const int64_t k = (t - w.t0) / len;
    return t < w.t0 || k >= kSlices ? -1 : static_cast<int>(k);
  };
  std::vector<std::vector<double>> lat(kSlices);
  std::vector<double> done(kSlices, 0);
  for (const auto& [submit, end] : w.reads.ok) {
    if (int k = slice_of(submit); k >= 0) lat[k].push_back(Ms(end - submit));
    if (int k = slice_of(end); k >= 0) ++done[k];
  }
  for (int64_t end : w.writes.ok_done) {
    if (int k = slice_of(end); k >= 0) ++done[k];
  }
  SliceFigures f;
  for (int k = 0; k < kSlices; ++k) {
    f.qps.push_back(done[k] * kNsPerSec / static_cast<double>(len));
    f.p50_ms.push_back(Percentile(lat[k], 50));
    f.p95_ms.push_back(Percentile(lat[k], 95));
  }
  return f;
}

/// error_frac as defined for the benchmark: every statement that did not
/// complete OK (write conflicts included) plus wrong answers, over attempts.
double ErrorFrac(const Window& w, size_t mismatches) {
  const double attempted =
      static_cast<double>(w.reads.attempted + w.writes.attempted);
  const double bad = static_cast<double>(w.reads.failed + w.writes.failed +
                                         w.writes.conflicts + mismatches);
  return Ratio(bad, attempted);
}

void AddWindowMetrics(JsonObject* m, const Window& w, size_t mismatches) {
  const SliceFigures f = Slices(w);
  m->Num("qps", MiddleMean(f.qps));
  m->Num("read_p50_ms", MiddleMean(f.p50_ms));
  m->Num("read_p95_ms", MiddleMean(f.p95_ms));
  m->Raw("slices.qps", JsonArray(f.qps));
  m->Raw("slices.read_p50_ms", JsonArray(f.p50_ms));
  m->Raw("slices.read_p95_ms", JsonArray(f.p95_ms));
  m->Num("read_samples", static_cast<double>(w.reads.ok.size()));
  m->Num("write_p50_ms", Percentile(w.writes.txn_ms, 50));
  m->Num("write_p95_ms", Percentile(w.writes.txn_ms, 95));
  m->Num("write_samples", static_cast<double>(w.writes.txn_ms.size()));
  m->Num("error_frac", ErrorFrac(w, mismatches));
}

/// Counter-derived per-layer metrics over one untraced window.
void AddCounterMetrics(JsonObject* m, const Window& w, Workload wl) {
  auto d = [&](const char* name) { return Delta(w.before, w.after, name); };
  const double stmts = static_cast<double>(w.reads.attempted);
  const double commits = d("dml_commits");
  const double txns = static_cast<double>(w.writes.txns);
  m->Num("sql.compiles_per_kstmt", 1000 * Ratio(d("plan_cache_compiles"), stmts));
  m->Num("server.plan_hit_ratio",
         Ratio(d("plan_cache_hits"), d("plan_cache_lookups")));
  m->Num("interp.instrs_per_stmt", Ratio(d("instrs_executed"), stmts));
  m->Num("core.hit_ratio", Ratio(d("pool_hits"), d("pool_monitored")));
  m->Num("core.exact_hits_per_stmt", Ratio(d("pool_exact_hits"), stmts));
  m->Num("core.subsumed_hits_per_stmt", Ratio(d("pool_subsumed_hits"), stmts));
  m->Num("core.admitted_per_stmt", Ratio(d("pool_admitted"), stmts));
  m->Num("core.evicted_per_stmt", Ratio(d("pool_evicted"), stmts));
  m->Num("core.pool_mb",
         static_cast<double>(w.after.at("pool_bytes")) / (1024.0 * 1024.0));
  m->Num("core.excl_locks_per_stmt", Ratio(d("pool_excl_locks"), stmts));
  m->Num("core.shared_locks_per_stmt", Ratio(d("pool_shared_locks"), stmts));
  m->Num("core.borrows_per_kstmt", 1000 * Ratio(d("pool_borrows"), stmts));
  m->Num("core.stale_declines_per_kstmt",
         1000 * Ratio(d("pool_stale_declines"), stmts));
  // Raw counts behind the ratios, for the self-check's consistency rules.
  m->Num("count.plan_lookups", d("plan_cache_lookups"));
  m->Num("count.plan_hits", d("plan_cache_hits"));
  m->Num("count.plan_compiles", d("plan_cache_compiles"));
  m->Num("count.pool_monitored", d("pool_monitored"));
  m->Num("count.pool_hits", d("pool_hits"));
  if (wl == Workload::kMixedRw) {
    m->Num("core.invalidated_per_commit", Ratio(d("pool_invalidated"), commits));
    m->Num("core.propagated_per_commit", Ratio(d("pool_propagated"), commits));
    m->Num("catalog.conflicts_per_ktxn", 1000 * Ratio(d("txn_conflicts"), txns));
    double late = 0;
    for (double l : w.writes.late_ms) late += l;
    m->Num("bench.writer_late_ms",
           Ratio(late, static_cast<double>(w.writes.late_ms.size())));
  }
}

int Main(const Options& opt) {
  const int64_t process_start = Now();
  PinToOneCpu();
  std::mutex dml_mu;
  std::unique_ptr<Env> env;
  std::unique_ptr<ReadStream> stream;
  std::vector<WriteEvent> events;
  std::vector<double> setup_s;
  double load_s = 0;
  double warm_rate = 0;  // statements per second of the last warm-up
  const int setups = opt.trace ? 1 : kSetups;
  for (int s = 0; s < setups; ++s) {
    // Set-up: generate the inputs, load, start the service (and server),
    // warm up. The previous repetition is torn down first.
    stream.reset();
    env.reset();
    ResetPeakRss();
    const int64_t t0 = s == 0 ? process_start : Now();
    stream = std::make_unique<ReadStream>(opt.workload, opt.seed);
    env = StartEnv(opt);
    if (opt.workload == Workload::kMixedRw) {
      // Enough events for any window of up to 60 s at kWriterRate.
      events = GenerateWrites(opt.seed, 4 * 60 * static_cast<size_t>(kWriterRate),
                              uint64_t{1} << 40, env->base_orders);
    }
    if (opt.workload != Workload::kAdhocEvict) WarmPool(env.get(), stream->Distinct());
    const int64_t warm_t0 = Now();
    ReadStats warm = RunReads(env.get(), stream.get(),
                              WarmupStatements(opt.workload), INT64_MAX,
                              nullptr);
    const int64_t warm_t1 = Now();
    if (warm.failed > 0) Die("warm-up statements failed");
    warm_rate = static_cast<double>(warm.attempted) * kNsPerSec /
                static_cast<double>(std::max<int64_t>(1, warm_t1 - warm_t0));
    setup_s.push_back(static_cast<double>(warm_t1 - t0) / kNsPerSec);
    load_s = env->load_s;
  }
  const uint64_t pool_after_warmup = env->svc->recycler().pool_bytes();
  const std::string rows = TableRowsJson(*env->cat);

  std::unique_ptr<Writer> writer;
  if (opt.workload == Workload::kMixedRw)
    writer = std::make_unique<Writer>(env->svc.get(), &events, &dml_mu);
  const bool wire = opt.workload == Workload::kWireHot;

  JsonObject metrics;
  Window main_window;
  if (!opt.trace) {
    stream->StartSampling(warm_rate, opt.seconds);
    main_window = MeasureWindow(env.get(), stream.get(), writer.get(),
                                opt.seconds, nullptr, nullptr);
    stream->StopSampling();
  } else {
    // Part A off, part A on, part B off, part B on; a quarter each.
    const double part = opt.seconds / 4;
    SpanLog read_spans, write_spans, replay_spans, replay_write_spans;
    stream->StartSampling(warm_rate, part);
    main_window = MeasureWindow(env.get(), stream.get(), writer.get(), part,
                                nullptr, nullptr);
    stream->StopSampling();
    Window traced = MeasureWindow(env.get(), stream.get(), writer.get(), part,
                                  &read_spans, &write_spans);
    // The writer runs the same schedule in all four quarters; its latency
    // figures pool them, so they rest on enough transactions.
    WriteStats& all_writes = main_window.writes;
    auto pool_writes = [&](const WriteStats& more) {
      all_writes.txn_ms.insert(all_writes.txn_ms.end(), more.txn_ms.begin(),
                               more.txn_ms.end());
      all_writes.late_ms.insert(all_writes.late_ms.end(),
                                more.late_ms.begin(), more.late_ms.end());
    };
    pool_writes(traced.writes);
    ReplayStats off, on;
    for (int traced_b = 0; traced_b < 2; ++traced_b) {
      SpanLog* rs = traced_b ? &replay_spans : nullptr;
      SpanLog* ws = traced_b ? &replay_write_spans : nullptr;
      const int64_t t0 = Now();
      const int64_t deadline = t0 + static_cast<int64_t>(part * kNsPerSec);
      if (writer) writer->Start(t0, deadline, ws);
      ReplayStats r = Replay(env.get(), stream.get(), deadline, wire, &dml_mu, rs);
      if (writer) {
        writer->Join();
        pool_writes(writer->stats());
      }
      (traced_b ? on : off) = r;
    }
    if (off.failed + on.failed > 0) Die("replayed statements failed");
    std::FILE* f = std::fopen(opt.spans_path.c_str(), "w");
    if (f == nullptr) Die("cannot write " + opt.spans_path);
    std::fprintf(f, "id\tparent\trequest\tname\tstart_ns\tend_ns\n");
    uint64_t next_id = 1;
    for (const SpanLog* log :
         {&read_spans, &write_spans, &replay_spans, &replay_write_spans})
      log->Dump(f, &next_id, kDumpRequests);
    if (std::fclose(f) != 0) Die("cannot write " + opt.spans_path);
    metrics.Num("tpch.load_s", load_s);
    // Part A takes the same timestamps with spans off and on and builds its
    // spans after the window, so only part B can show what tracing costs.
    metrics.Num("bench.trace_overhead",
                Ratio(static_cast<double>(off.stmts),
                      static_cast<double>(on.stmts)) - 1);
    if (wire)
      metrics.Num("net.result_bytes",
                  Ratio(on.result_bytes + off.result_bytes,
                        static_cast<double>(on.stmts + off.stmts)));
    AddCounterMetrics(&metrics, main_window, opt.workload);
  }

  const CheckStats check = CheckAnswers(env.get(), stream.get());
  AddWindowMetrics(&metrics, main_window, check.mismatches);
  metrics.Num("setup_s", Median(setup_s));
  const uint64_t pool_end = env->svc->recycler().pool_bytes();
  const double evicted = Delta(main_window.before, main_window.after,
                               "pool_evicted");
  metrics.Num("peak_rss_mb", PeakRssMb());

  JsonObject info;
  info.Raw("stamp", StampJson(opt));
  info.Raw("rows", rows);
  info.Raw("setup_s_each", JsonArray(setup_s));
  info.Num("pool_bytes_after_warmup", static_cast<double>(pool_after_warmup));
  info.Num("pool_bytes_end", static_cast<double>(pool_end));
  info.Num("pool_evicted_in_window", evicted);
  info.Num("check_samples", static_cast<double>(check.samples));
  info.Num("check_mismatches", static_cast<double>(check.mismatches));
  info.Num("write_conflicts", static_cast<double>(main_window.writes.conflicts));
  // Time the hypervisor gave to other guests during the window, on the CPU
  // the run is pinned to: a run with a high share measured a slower host,
  // not a slower program.
  info.Num("host_steal_share",
           Ratio(static_cast<double>(main_window.cpu_after.steal -
                                     main_window.cpu_before.steal),
                 static_cast<double>(main_window.cpu_after.total -
                                     main_window.cpu_before.total)));
  // The working-set claims: reuse_hot fits the budget (nothing is evicted),
  // adhoc_evict exceeds it (the window evicts).
  if (opt.workload == Workload::kReuseHot)
    info.Bool("claim_fits_budget", evicted == 0 && pool_end <= kBudgetBytes);
  if (opt.workload == Workload::kAdhocEvict)
    info.Bool("claim_exceeds_budget", evicted > 0);

  const uint64_t attempted =
      main_window.reads.attempted + main_window.writes.attempted;
  const uint64_t failed = main_window.reads.failed +
                          main_window.writes.failed + check.mismatches;
  const bool correct = check.mismatches == 0 && check.samples > 0 &&
                       check.unanswered == 0 && failed == 0;
  JsonObject out;
  out.Bool("correct", correct);
  out.Num("attempted", static_cast<double>(attempted));
  out.Num("failed", static_cast<double>(failed));
  out.Raw("metrics", metrics.Build());
  out.Raw("info", info.Build());
  std::printf("%s\n", out.Build().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace rdbbench

int main(int argc, char** argv) {
  using rdbbench::Die;
  rdbbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) Die("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      if (!rdbbench::ParseWorkload(v, &opt.workload))
        Die("unknown workload " + v);
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      opt.trace = v != "0";
    } else if (a == "--sf") {
      opt.sf = std::atof(v.c_str());
    } else if (a == "--spans") {
      opt.spans_path = v;
    } else {
      Die("unknown flag " + a);
    }
  }
  if (!have_workload) Die("--workload is required");
  if (opt.seconds <= 0 || opt.sf <= 0)
    Die("--seconds and --sf must be positive");
  if (opt.trace && opt.spans_path.empty()) Die("--trace 1 needs --spans");
  return rdbbench::Main(opt);
}
