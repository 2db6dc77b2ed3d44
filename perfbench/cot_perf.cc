// cot_perf: the repository benchmark program.
//
//   cot_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Real-path workloads drive 20 logical front-end clients (each a
// FrontendClient with its own local cache and op stream, seeded seed + i)
// closed-loop over a preloaded 8-shard, 1M-key CacheCluster, round-robin on
// T = max(1, min(4, nproc - 1)) load threads. The model workload runs
// sim::RunEndToEnd on the paper's Figure 5 setup. Every op is generated
// before timing starts; every read is checked against the key it asked for;
// the accounting identities and the 1-thread determinism of the logical
// counters are checked before the result is printed.
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// Per-layer numbers come only from spans this file takes around calls into
// the library's public functions (see README.md for the layer map). The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Exit code 0 iff every check passed; 2 on bad arguments.

#include <malloc.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cache_cluster.h"
#include "cluster/experiment.h"
#include "cluster/frontend_client.h"
#include "cluster/storage_layer.h"
#include "core/cot_cache.h"
#include "core/policy_factory.h"
#include "harness.h"
#include "sim/end_to_end_sim.h"
#include "sim/latency_model.h"
#include "workload/op_stream.h"

#ifndef COT_PERF_BUILD_TYPE
#define COT_PERF_BUILD_TYPE "unknown"
#endif

namespace cot::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using cluster::BackendServer;
using cluster::CacheCluster;
using cluster::FrontendClient;
using cluster::FrontendStats;
using cluster::StorageLayer;

// The paper's cluster (Section 5): 8 shards, a 1M-key usertable, 20
// front-end threads with 512-line caches.
constexpr uint32_t kClients = 20;
constexpr uint32_t kShards = 8;
constexpr uint64_t kKeys = 1000000;
constexpr uint32_t kVirtualNodes = 16384;
constexpr size_t kCacheLines = 512;

// One pass is each client's whole pre-generated stream; the timed phase
// cycles through it. The logical counters are taken over exactly one pass,
// so they are a pure function of the seed whatever the run length.
constexpr uint64_t kPassOps = uint64_t{1} << 16;
// Ops a client issues per round-robin turn (divides kPassOps).
constexpr uint32_t kSlice = 32;
// One in kSampleEvery untraced calls is timed for the latency percentiles,
// into buffers sized for kMaxSampledOpsPerS, allocated before set-up.
constexpr uint32_t kSampleEvery = 64;
constexpr double kMaxSampledOpsPerS = 40e6;
// Set-up repetitions per run; setup_s is their median.
constexpr int kSetups = 5;
// Simulated lookups per model run: the paper's Figure 5 size. The model's
// tail moves with the seed, so each benchmark run pools the runs of
// kModelSeeds model seeds.
constexpr uint64_t kModelOps = 1000000;
constexpr int kModelSeeds = 12;
// The timed phase is cut into windows of this length; throughput and the
// median latency are medians over the windows, the p99.9 their lower
// quartile.
constexpr std::chrono::milliseconds kWindow{500};
constexpr double kWindowSeconds =
    std::chrono::duration<double>(kWindow).count();
// Keys kept per load thread for the isolated layer replays.
constexpr size_t kReplayKeysPerThread = size_t{1} << 17;

struct Workload {
  const char* name;
  double skew;
  double read_fraction;
  const char* policy;  // core::MakePolicy name; "none" = no front-end cache
  size_t tracker_ratio;
  bool model;  // sim::RunEndToEnd instead of the real path
};

constexpr Workload kWorkloads[] = {
    {"zipf12-cot", 1.2, 0.998, "cot", 4, false},
    {"zipf99-nocache", 0.99, 0.998, "none", 4, false},
    {"zipf99-cot-rw50", 0.99, 0.5, "cot", 8, false},
    {"paper-fig5-model", 0.99, 0.998, "cot", 8, true},
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "cot_perf: %s\n", message.c_str());
  std::exit(2);
}

double NsBetween(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The nearest-rank first quartile. A window's p99.9 is the statistic a
/// disturbed window moves most: one preempted lock holder multiplies it
/// several times while the median call barely changes. The quietest
/// quarter of the windows reads the program's tail; a regression raises
/// every window, so it still shows.
double LowerQuartile(std::vector<double> v) {
  return Percentile(v, 25.0).value;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Cost of one steady_clock read: the median over many short batches, so a
/// preempted batch does not move it.
double ClockReadNs() {
  constexpr int kBatches = 63;
  constexpr int kReads = 4096;
  std::vector<double> per_read;
  Clock::time_point sink{};
  for (int b = 0; b < kBatches; ++b) {
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kReads; ++i) sink = std::max(sink, Clock::now());
    per_read.push_back(NsBetween(t0, std::max(sink, Clock::now())) / kReads);
  }
  return Median(per_read);
}

/// CPU time this thread has run. Unlike wall time it stops while the
/// hypervisor runs another guest on this vCPU (steal).
double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Bytes the process holds from malloc: in use in the arenas plus mmapped
/// chunks. Unlike the resident set it ignores freed pages the allocator
/// keeps, and unlike the peak resident set it is not inherited from the
/// parent process.
uint64_t HeapInUseBytes() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<uint64_t>(mi.uordblks + mi.hblkhd);
}

/// The highest HeapInUseBytes() seen, every millisecond, while `fn` runs.
template <typename Fn>
uint64_t PeakHeapWhile(Fn&& fn) {
  std::atomic<bool> done{false};
  uint64_t peak = HeapInUseBytes();
  std::thread watcher([&] {
    while (!done.load(std::memory_order_acquire)) {
      peak = std::max(peak, HeapInUseBytes());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  fn();
  done.store(true, std::memory_order_release);
  watcher.join();
  return std::max(peak, HeapInUseBytes());
}

uint32_t LoadThreads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  int cpus = sched_getaffinity(0, sizeof(set), &set) == 0
                 ? CPU_COUNT(&set)
                 : static_cast<int>(std::thread::hardware_concurrency());
  return static_cast<uint32_t>(std::max(1, std::min(4, cpus - 1)));
}

std::unique_ptr<cache::Cache> MakeCache(const Workload& w) {
  auto cache = core::MakePolicy(w.policy, kCacheLines, w.tracker_ratio);
  if (!cache.ok()) Die("policy: " + cache.status().ToString());
  return std::move(cache).value();
}

workload::PhaseSpec Phase(const Workload& w) {
  workload::PhaseSpec phase;
  phase.distribution = workload::Distribution::kZipfian;
  phase.skew = w.skew;
  phase.read_fraction = w.read_fraction;
  return phase;
}

// --- output -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note = "";  // text output only
};

std::string Num(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void PrintLine(const Metric& m) {
  std::printf("  %-34s %16.6g %-9s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.note.c_str());
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// --- correctness bookkeeping ----------------------------------------------

struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;  // ops whose reply failed the value check
  std::vector<std::string> broken;  // identities / determinism that failed

  void Expect(bool ok, const std::string& what) {
    if (!ok) broken.push_back(what);
  }
  bool correct() const { return failed == 0 && broken.empty(); }
  double error_rate() const {
    return Ratio(static_cast<double>(failed), static_cast<double>(attempted));
  }
};

// --- the core layer, timed from outside ------------------------------------

/// Span and outcome counters of one TimedCotCache (single-threaded use).
struct CoreCounters {
  uint64_t get_calls = 0, put_calls = 0, invalidate_calls = 0;
  uint64_t get_raw_ns = 0, put_raw_ns = 0, invalidate_raw_ns = 0;
  uint64_t admitted = 0;   // Puts after which the key was cached
  uint64_t evictions = 0;  // cached entries dropped other than by Invalidate

  uint64_t calls() const { return get_calls + put_calls + invalidate_calls; }
  uint64_t raw_ns() const {
    return get_raw_ns + put_raw_ns + invalidate_raw_ns;
  }
  /// Field-wise this + sign * o.
  void Add(const CoreCounters& o, int sign = 1) {
    using C = CoreCounters;
    for (auto field : {&C::get_calls, &C::put_calls, &C::invalidate_calls,
                       &C::get_raw_ns, &C::put_raw_ns, &C::invalidate_raw_ns,
                       &C::admitted, &C::evictions}) {
      this->*field += static_cast<uint64_t>(sign) * (o.*field);
    }
  }
};

/// core::CotCache with a span around each virtual entry point. The client's
/// dynamic_cast<CotCache*> still binds to it, so the client runs exactly the
/// code it runs with the factory-made cache.
class TimedCotCache final : public core::CotCache {
 public:
  using core::CotCache::CotCache;

  std::optional<Value> Get(Key key) override {
    const size_t before = size();
    Clock::time_point t0 = Clock::now();
    std::optional<Value> v = core::CotCache::Get(key);
    Clock::time_point t1 = Clock::now();
    c_.get_raw_ns += static_cast<uint64_t>(NsBetween(t0, t1));
    ++c_.get_calls;
    c_.evictions += before - std::min(before, size());
    return v;
  }

  void Put(Key key, Value value) override {
    const size_t before = size();
    const bool had = Contains(key);
    Clock::time_point t0 = Clock::now();
    core::CotCache::Put(key, value);
    Clock::time_point t1 = Clock::now();
    c_.put_raw_ns += static_cast<uint64_t>(NsBetween(t0, t1));
    ++c_.put_calls;
    const bool admitted = Contains(key);
    c_.admitted += admitted ? 1 : 0;
    c_.evictions += before + (admitted && !had ? 1 : 0) - size();
  }

  void Invalidate(Key key) override {
    Clock::time_point t0 = Clock::now();
    core::CotCache::Invalidate(key);
    Clock::time_point t1 = Clock::now();
    c_.invalidate_raw_ns += static_cast<uint64_t>(NsBetween(t0, t1));
    ++c_.invalidate_calls;
  }

  const CoreCounters& counters() const { return c_; }

 private:
  CoreCounters c_;
};

// --- inputs ----------------------------------------------------------------

struct Inputs {
  std::vector<std::vector<workload::Op>> ops;  // one pass per client
  double gen_ns_per_op = 0.0;                  // OpStream::Next cost
};

Inputs Generate(const Workload& w, uint64_t seed) {
  Inputs in;
  in.ops.resize(kClients);
  double next_ns = 0.0;
  for (uint32_t i = 0; i < kClients; ++i) {
    auto stream = workload::OpStream::Create(kKeys, {Phase(w)}, seed + i);
    if (!stream.ok()) Die("op stream: " + stream.status().ToString());
    std::vector<workload::Op>& ops = in.ops[i];
    ops.resize(kPassOps);
    Clock::time_point t0 = Clock::now();
    for (workload::Op& op : ops) op = stream->Next();
    next_ns += NsBetween(t0, Clock::now());
  }
  in.gen_ns_per_op = next_ns / static_cast<double>(kClients * kPassOps);
  return in;
}

// --- the real path -----------------------------------------------------------

/// Logical counters of one client that depend only on its own op stream.
struct Logical {
  uint64_t reads = 0, updates = 0, local_hits = 0, backend_lookups = 0,
           invalidations = 0;
  std::vector<uint64_t> per_shard;

  static Logical Of(const FrontendClient& c) {
    const FrontendStats& s = c.stats();
    return {s.reads, s.updates, s.local_hits, s.backend_lookups,
            s.invalidations, c.cumulative_lookups()};
  }
  Logical Minus(const Logical& o) const {
    Logical d{reads - o.reads, updates - o.updates, local_hits - o.local_hits,
              backend_lookups - o.backend_lookups,
              invalidations - o.invalidations, per_shard};
    for (size_t s = 0; s < d.per_shard.size() && s < o.per_shard.size(); ++s) {
      d.per_shard[s] -= o.per_shard[s];
    }
    return d;
  }
  bool operator==(const Logical&) const = default;
};

struct ClientSlot {
  std::unique_ptr<FrontendClient> client;
  TimedCotCache* timed = nullptr;  // the client's cache, if timed
  const std::vector<workload::Op>* ops = nullptr;
  uint64_t cursor = 0;  // next op of the pass
  uint64_t passes = 0;  // completed passes
  uint64_t issued = 0;  // ops issued in total
  uint64_t update_seq = 0;
  uint64_t snapshot_at_pass = 0;  // capture `snapshot` when passes hits it
  Logical snapshot;
};

struct Rig {
  std::unique_ptr<CacheCluster> cluster;
  // Declared after the cluster they borrow, so they are destroyed first.
  std::vector<ClientSlot> plain;
  std::vector<ClientSlot> timed;
};

std::unique_ptr<CacheCluster> BuildCluster() {
  auto cluster = std::make_unique<CacheCluster>(kShards, kKeys, kVirtualNodes);
  for (uint64_t key = 0; key < kKeys; ++key) {
    cluster->server(cluster->ring().ServerFor(key))
        .Set(key, StorageLayer::InitialValue(key));
  }
  cluster->ResetServerCounters();
  return cluster;
}

std::vector<ClientSlot> MakeClients(CacheCluster* cluster, const Workload& w,
                                    const Inputs& in, bool timed) {
  std::vector<ClientSlot> slots(kClients);
  for (uint32_t i = 0; i < kClients; ++i) {
    std::unique_ptr<cache::Cache> cache;
    if (timed && std::strcmp(w.policy, "cot") == 0) {
      auto t = std::make_unique<TimedCotCache>(kCacheLines,
                                               kCacheLines * w.tracker_ratio);
      slots[i].timed = t.get();
      cache = std::move(t);
    } else {
      cache = MakeCache(w);
    }
    slots[i].client =
        std::make_unique<FrontendClient>(cluster, std::move(cache));
    slots[i].ops = &in.ops[i];
  }
  return slots;
}

/// What one load thread saw during a segment.
struct ThreadOut {
  uint64_t ops = 0;
  uint64_t failed = 0;
  Clock::time_point end{};
  std::vector<uint64_t> window_ops;  // ops completed in each window
  std::vector<float> samples;  // untraced: sampled call latency, ns
  std::vector<size_t> window_sample_end;  // samples.size() at window end
  double cpu_s = 0.0;  // this thread's CPU time in the segment
  // Traced segments only.
  std::vector<float> hit_ns, miss_ns, update_ns;
  double client_ns = 0.0;     // corrected client spans
  double core_ns = 0.0;       // corrected core spans nested in them
  double miss_path_ns = 0.0;  // read-miss client time outside core
  std::vector<uint64_t> miss_keys, update_keys;
};

using SampleBuffers = std::vector<std::vector<float>>;

/// One empty, already-resident sample buffer per load thread, so sampling
/// allocates nothing inside the timed phase or the measured memory.
SampleBuffers MakeSampleBuffers(uint32_t threads, double seconds) {
  const size_t per_thread = static_cast<size_t>(
      seconds * kMaxSampledOpsPerS / kSampleEvery / threads);
  SampleBuffers buffers(threads);
  for (std::vector<float>& b : buffers) {
    b.resize(per_thread, 1.0f);
    b.clear();
  }
  return buffers;
}

struct SegmentSpec {
  double seconds = 0.0;     // run at least this long...
  uint64_t min_passes = 0;  // ...and until every client did this many passes
  bool traced = false;
  SampleBuffers* samples = nullptr;  // untraced: sample call latency into
};

struct Segment {
  double seconds = 0.0;
  uint64_t ops = 0;
  uint64_t failed = 0;
  std::vector<float> hit_ns, miss_ns, update_ns;
  double client_ns = 0.0, core_ns = 0.0, miss_path_ns = 0.0;
  std::vector<uint64_t> miss_keys, update_keys;
  // Per window of kWindow; only the first `full_windows` lie wholly inside
  // the timed span.
  std::vector<uint64_t> window_ops;
  size_t full_windows = 0;
  double cpu_s = 0.0;  // CPU time of all load threads
  // Each thread's latency samples, cut into windows by window_sample_end.
  // Merged per window only on demand, after memory has been measured.
  std::vector<ThreadOut> threads;

  /// Median over the full windows of their throughput: the steady rate,
  /// robust to a stall in a few windows. The mean rate if no window is full.
  double WindowedOpsPerS() const {
    if (full_windows == 0) return Ratio(static_cast<double>(ops), seconds);
    std::vector<double> rates;
    for (size_t k = 0; k < full_windows; ++k) {
      rates.push_back(static_cast<double>(window_ops[k]) / kWindowSeconds);
    }
    return Median(rates);
  }

  /// Each full window's percentile `p` of the sampled latencies, reduced
  /// over the windows by `over_windows`; `count` and `beyond` add up over
  /// those windows.
  PercentileResult WindowedPercentile(
      double p, double (*over_windows)(std::vector<double>)) const {
    PercentileResult sum;
    std::vector<double> values;
    std::vector<float> window;
    for (size_t k = 0; k < full_windows; ++k) {
      window.clear();
      for (const ThreadOut& o : threads) {
        if (k >= o.window_sample_end.size()) continue;
        const size_t begin = k == 0 ? 0 : o.window_sample_end[k - 1];
        window.insert(window.end(), o.samples.begin() + begin,
                      o.samples.begin() + o.window_sample_end[k]);
      }
      PercentileResult r = Percentile(window, p);
      if (r.count == 0) continue;
      values.push_back(r.value);
      sum.count += r.count;
      sum.beyond += r.beyond;
    }
    sum.value = over_windows(std::move(values));
    return sum;
  }
};

/// Appends `*from` to `*to` and frees `*from`.
template <typename T>
void MoveAppend(std::vector<T>* to, std::vector<T>* from) {
  to->insert(to->end(), from->begin(), from->end());
  *from = {};
}

void CheckRead(uint64_t key, uint64_t value, ThreadOut* out) {
  if (!ValueIsFor(key, value, StorageLayer::InitialValue(key))) ++out->failed;
}

template <bool kTraced>
void RunOp(ClientSlot* s, [[maybe_unused]] const SegmentSpec& spec,
           uint32_t* tick, double clock_ns, ThreadOut* out) {
  const workload::Op& op = (*s->ops)[s->cursor++];
  ++s->issued;
  FrontendClient& client = *s->client;
  const bool read = op.type == workload::OpType::kRead;
  const uint64_t update_value =
      read ? 0 : EncodeValue(op.key, ++s->update_seq);
  if constexpr (!kTraced) {
    const bool sample = spec.samples != nullptr && ++*tick == kSampleEvery &&
                        out->samples.size() < out->samples.capacity();
    Clock::time_point t0 = sample ? Clock::now() : Clock::time_point{};
    uint64_t value = 0;
    if (read) {
      value = client.Get(op.key);
    } else {
      client.Set(op.key, update_value);
    }
    if (sample) {
      *tick = 0;
      // The caller-observed span, one clock read included: per-CPU clock
      // costs differ by several ns here, more than a calibration can undo.
      out->samples.push_back(static_cast<float>(NsBetween(t0, Clock::now())));
    }
    if (read) CheckRead(op.key, value, out);
  } else {
    CoreCounters before;
    if (s->timed != nullptr) before = s->timed->counters();
    const uint64_t hits_before = client.stats().local_hits;
    Clock::time_point t0 = Clock::now();
    uint64_t value = 0;
    if (read) {
      value = client.Get(op.key);
    } else {
      client.Set(op.key, update_value);
    }
    Clock::time_point t1 = Clock::now();
    uint64_t nested = 0;
    double core_ns = 0.0;
    if (s->timed != nullptr) {
      const CoreCounters& after = s->timed->counters();
      nested = after.calls() - before.calls();
      core_ns = SpansNs(static_cast<double>(after.raw_ns() - before.raw_ns()),
                        nested, clock_ns);
    }
    const double span = SpanNs(NsBetween(t0, t1), nested, clock_ns);
    out->client_ns += span;
    out->core_ns += core_ns;
    const float span_ns = static_cast<float>(span);
    if (!read) {
      out->update_ns.push_back(span_ns);
      if (out->update_keys.size() < kReplayKeysPerThread) {
        out->update_keys.push_back(op.key);
      }
    } else if (client.stats().local_hits != hits_before) {
      out->hit_ns.push_back(span_ns);
    } else {
      out->miss_ns.push_back(span_ns);
      out->miss_path_ns += span - core_ns;
      if (out->miss_keys.size() < kReplayKeysPerThread) {
        out->miss_keys.push_back(op.key);
      }
    }
    if (read) CheckRead(op.key, value, out);
  }
}

template <bool kTraced>
void Drive(const std::vector<ClientSlot*>& owned, const SegmentSpec& spec,
           Clock::time_point start, Clock::time_point deadline,
           double clock_ns, ThreadOut* out) {
  std::vector<uint64_t> target;
  for (ClientSlot* s : owned) target.push_back(s->passes + spec.min_passes);
  uint32_t tick = 0;
  const double cpu_start = ThreadCpuSeconds();
  for (;;) {
    for (ClientSlot* s : owned) {
      for (uint32_t j = 0; j < kSlice; ++j) {
        RunOp<kTraced>(s, spec, &tick, clock_ns, out);
      }
      if (s->cursor == kPassOps) {
        s->cursor = 0;
        if (++s->passes == s->snapshot_at_pass) {
          s->snapshot = Logical::Of(*s->client);
        }
      }
    }
    const uint64_t round_ops = uint64_t{kSlice} * owned.size();
    out->ops += round_ops;
    bool passes_done = true;
    for (size_t k = 0; k < owned.size(); ++k) {
      passes_done = passes_done && owned[k]->passes >= target[k];
    }
    const Clock::time_point now = Clock::now();
    const size_t window = static_cast<size_t>((now - start) / kWindow);
    if (window >= out->window_ops.size()) {
      out->window_ops.resize(window + 1, 0);
      out->window_sample_end.resize(window + 1, out->samples.size());
    }
    out->window_ops[window] += round_ops;
    out->window_sample_end[window] = out->samples.size();
    if (passes_done && now >= deadline) break;
  }
  out->cpu_s = ThreadCpuSeconds() - cpu_start;
  out->end = Clock::now();
}

/// Drives `slots` round-robin on `threads` threads (slot i on thread
/// i % threads) under `spec`, and merges what the threads saw.
Segment RunSegment(std::vector<ClientSlot>& slots, uint32_t threads,
                   const SegmentSpec& spec, double clock_ns) {
  std::vector<std::vector<ClientSlot*>> owned(threads);
  for (size_t i = 0; i < slots.size(); ++i) {
    owned[i % threads].push_back(&slots[i]);
  }
  std::vector<ThreadOut> outs(threads);
  if (spec.samples != nullptr) {
    for (uint32_t t = 0; t < threads; ++t) {
      outs[t].samples = std::move((*spec.samples)[t]);
    }
  }
  std::atomic<bool> go{false};
  Clock::time_point start{};
  Clock::time_point deadline{};
  std::vector<std::thread> workers;
  for (uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      if (spec.traced) {
        Drive<true>(owned[t], spec, start, deadline, clock_ns, &outs[t]);
      } else {
        Drive<false>(owned[t], spec, start, deadline, clock_ns, &outs[t]);
      }
    });
  }
  start = Clock::now();
  deadline = start + std::chrono::nanoseconds(
                         static_cast<int64_t>(spec.seconds * 1e9));
  go.store(true, std::memory_order_release);
  for (std::thread& w : workers) w.join();

  Segment seg;
  Clock::time_point end = start;
  for (ThreadOut& o : outs) {
    end = std::max(end, o.end);
    if (o.window_ops.size() > seg.window_ops.size()) {
      seg.window_ops.resize(o.window_ops.size(), 0);
    }
    for (size_t k = 0; k < o.window_ops.size(); ++k) {
      seg.window_ops[k] += o.window_ops[k];
    }
    seg.ops += o.ops;
    seg.failed += o.failed;
    seg.cpu_s += o.cpu_s;
    MoveAppend(&seg.hit_ns, &o.hit_ns);
    MoveAppend(&seg.miss_ns, &o.miss_ns);
    MoveAppend(&seg.update_ns, &o.update_ns);
    MoveAppend(&seg.miss_keys, &o.miss_keys);
    MoveAppend(&seg.update_keys, &o.update_keys);
    seg.client_ns += o.client_ns;
    seg.core_ns += o.core_ns;
    seg.miss_path_ns += o.miss_path_ns;
  }
  seg.seconds = NsBetween(start, end) * 1e-9;
  seg.full_windows = std::min(
      seg.window_ops.size(),
      static_cast<size_t>(spec.seconds / kWindowSeconds + 1e-9));
  seg.threads = std::move(outs);
  return seg;
}

/// The accounting identities of a fault-free run, over everything `slots`
/// did on `cluster` since it was built.
void CheckIdentities(const CacheCluster& cluster,
                     const std::vector<const std::vector<ClientSlot>*>& sets,
                     const char* label, Checks* checks) {
  std::vector<uint64_t> client_per_shard(kShards, 0);
  uint64_t updates = 0, invalidations = 0;
  bool ops_ok = true, reads_ok = true;
  for (const std::vector<ClientSlot>* slots : sets) {
    for (const ClientSlot& s : *slots) {
      const FrontendStats& st = s.client->stats();
      ops_ok = ops_ok && st.reads + st.updates == s.issued;
      reads_ok = reads_ok && st.reads == st.local_hits + st.backend_lookups;
      updates += st.updates;
      invalidations += st.invalidations;
      const std::vector<uint64_t>& per = s.client->cumulative_lookups();
      for (size_t k = 0; k < per.size() && k < kShards; ++k) {
        client_per_shard[k] += per[k];
      }
    }
  }
  std::string at = std::string(" (") + label + ")";
  checks->Expect(ops_ok, "ops == reads + updates" + at);
  checks->Expect(reads_ok, "reads == local_hits + backend_lookups" + at);
  checks->Expect(cluster.PerServerLookups() == client_per_shard,
                 "shard lookups == client backend lookups, per shard" + at);
  checks->Expect(cluster.storage().write_count() == updates,
                 "storage writes == updates" + at);
  checks->Expect(invalidations == updates,
                 "delivered invalidations == updates" + at);
}

Rig BuildRig(const Workload& w, const Inputs& in) {
  Rig rig;
  rig.cluster = BuildCluster();
  rig.plain = MakeClients(rig.cluster.get(), w, in, /*timed=*/false);
  return rig;
}

/// Runs one untimed pass of every client in `slots`, checked like any other.
void Warm(std::vector<ClientSlot>& slots, uint32_t threads, double clock_ns,
          Checks* checks) {
  Segment warm =
      RunSegment(slots, threads, SegmentSpec{0.0, 1, false, nullptr}, clock_ns);
  checks->attempted += warm.ops;
  checks->failed += warm.failed;
}

/// Warms `slots`, then runs `spec`, with the logical counters of every
/// client taken over the first pass `spec` completes. The caller accounts
/// for the returned segment's ops and failures.
Segment RunCounted(std::vector<ClientSlot>& slots, uint32_t threads,
                   SegmentSpec spec, double clock_ns,
                   std::vector<Logical>* counted, Checks* checks) {
  Warm(slots, threads, clock_ns, checks);
  std::vector<Logical> before;
  for (ClientSlot& s : slots) {
    before.push_back(Logical::Of(*s.client));
    s.snapshot_at_pass = s.passes + 1;
  }
  spec.min_passes = std::max<uint64_t>(spec.min_passes, 1);
  Segment seg = RunSegment(slots, threads, spec, clock_ns);
  counted->clear();
  for (size_t i = 0; i < slots.size(); ++i) {
    counted->push_back(slots[i].snapshot.Minus(before[i]));
  }
  return seg;
}

struct LogicalSummary {
  double imbalance = 0.0, local_hit_rate = 0.0, requests_per_op = 0.0;
};

LogicalSummary Summarize(const std::vector<Logical>& counted) {
  std::vector<uint64_t> per_shard(kShards, 0);
  uint64_t ops = 0, reads = 0, hits = 0, requests = 0;
  for (const Logical& l : counted) {
    for (size_t k = 0; k < l.per_shard.size() && k < kShards; ++k) {
      per_shard[k] += l.per_shard[k];
    }
    ops += l.reads + l.updates;
    reads += l.reads;
    hits += l.local_hits;
    requests += l.backend_lookups + l.invalidations;
  }
  auto [lo, hi] = std::minmax_element(per_shard.begin(), per_shard.end());
  LogicalSummary sum;
  sum.imbalance = Ratio(static_cast<double>(*hi), static_cast<double>(*lo));
  sum.local_hit_rate =
      Ratio(static_cast<double>(hits), static_cast<double>(reads));
  sum.requests_per_op =
      Ratio(static_cast<double>(requests), static_cast<double>(ops));
  return sum;
}

void Header(const Workload& w, uint64_t seed, double seconds, bool trace,
            uint32_t threads, double clock_ns) {
  std::printf(
      "cot_perf workload=%s seed=%llu seconds=%g trace=%d threads=%u "
      "build_type=%s clock_read_ns=%.1f\n",
      w.name, static_cast<unsigned long long>(seed), seconds, trace ? 1 : 0,
      threads, COT_PERF_BUILD_TYPE, clock_ns);
}

void ReportChecks(const Checks& checks) {
  std::printf("checks: attempted=%llu failed=%llu error_rate=%.9g\n",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed),
              checks.error_rate());
  for (const std::string& b : checks.broken) {
    std::printf("CHECK FAILED: %s\n", b.c_str());
  }
}

int Finish(const Checks& checks, const std::vector<Metric>& json) {
  ReportChecks(checks);
  std::fflush(stdout);
  PrintJson(checks.correct(), checks.attempted, checks.failed, json);
  return checks.correct() ? 0 : 1;
}

int RealPathEndToEnd(const Workload& w, uint64_t seed, double seconds,
                     uint32_t threads, double clock_ns) {
  Checks checks;
  Inputs in = Generate(w, seed);
  SampleBuffers samples = MakeSampleBuffers(threads, seconds);
  const uint64_t heap_before = HeapInUseBytes();

  std::vector<double> setup_s;
  auto timed_build = [&] {
    Clock::time_point t0 = Clock::now();
    Rig rig = BuildRig(w, in);
    setup_s.push_back(NsBetween(t0, Clock::now()) * 1e-9);
    return rig;
  };
  Rig rig = timed_build();
  std::vector<Logical> counted;
  Segment run = RunCounted(rig.plain, threads,
                           SegmentSpec{seconds, 1, false, &samples}, clock_ns,
                           &counted, &checks);
  const uint64_t heap_after = HeapInUseBytes();
  const double mem_mb =
      static_cast<double>(heap_after - std::min(heap_after, heap_before)) / 1e6;
  CheckIdentities(*rig.cluster, {&rig.plain}, "timed run", &checks);
  checks.attempted += run.ops;
  checks.failed += run.failed;
  const LogicalSummary sum = Summarize(counted);
  PercentileResult p50 = run.WindowedPercentile(50.0, Median);
  PercentileResult p999 = run.WindowedPercentile(99.9, LowerQuartile);
  rig = Rig();

  // More set-ups for a steadier setup_s; the last one also checks that the
  // logical counters do not depend on the thread count.
  for (int k = 1; k < kSetups; ++k) {
    malloc_trim(0);
    rig = timed_build();
    rig = Rig();
  }
  malloc_trim(0);
  {
    Rig one = timed_build();
    std::vector<Logical> serial;
    Segment s = RunCounted(one.plain, 1, SegmentSpec{0.0, 1, false, nullptr},
                           clock_ns, &serial, &checks);
    checks.attempted += s.ops;
    checks.failed += s.failed;
    CheckIdentities(*one.cluster, {&one.plain}, "1-thread run", &checks);
    checks.Expect(serial == counted,
                  "logical counters of a pass equal the 1-thread run's");
  }

  auto sampled = [](const PercentileResult& p) {
    return "samples=" + std::to_string(p.count) +
           " beyond=" + std::to_string(p.beyond) + " (1 in " +
           std::to_string(kSampleEvery) + " calls)";
  };
  const std::vector<Metric> json = {
      {"ops_per_s", run.WindowedOpsPerS(), "ops/s"},
      {"op_p50_us", p50.value / 1000.0, "us", sampled(p50)},
      {"op_p999_us", p999.value / 1000.0, "us", sampled(p999)},
      {"setup_s", Median(setup_s), "s"},
      {"mem_mb", mem_mb, "MB"},
      {"backend_imbalance", sum.imbalance, "ratio"},
      {"backend_requests_per_op", sum.requests_per_op, "ratio"},
  };
  std::printf(
      "end-to-end metrics (timed phase %.3f s, %llu ops, %zu windows of "
      "%.1f s; load threads got %.0f%% of their wall time as CPU: steal "
      "and lock sleeps lower it):\n",
      run.seconds, static_cast<unsigned long long>(run.ops), run.full_windows,
      kWindowSeconds, 100.0 * Ratio(run.cpu_s, threads * run.seconds));
  for (const Metric& m : json) PrintLine(m);
  PrintLine({"local_hit_rate", sum.local_hit_rate, "fraction"});
  PrintLine({"error_rate", checks.error_rate(), "fraction"});
  PrintLine({"model_makespan_s", 0.0, "s", "n/a (model workload only)"});
  PrintLine({"model_p99_us", 0.0, "us", "n/a (model workload only)"});
  return Finish(checks, json);
}

// --- isolated single-thread replays of the layers below the client --------

struct Replay {
  double ring_ns = 0.0, shard_get_ns = 0.0, shard_set_ns = 0.0,
         shard_delete_ns = 0.0, storage_get_ns = 0.0, storage_set_ns = 0.0;
};

template <typename Fn>
double TimePerCall(const std::vector<uint64_t>& keys, Fn&& fn) {
  if (keys.empty()) return 0.0;
  Clock::time_point t0 = Clock::now();
  for (uint64_t key : keys) fn(key);
  return NsBetween(t0, Clock::now()) / static_cast<double>(keys.size());
}

/// Replays the keys that reached the shards through the ring, the shards
/// and storage, one call at a time on this thread. Destroys shard content,
/// so it runs after every counter of the cluster has been read.
Replay ReplayLayers(CacheCluster& cluster, const std::vector<uint64_t>& misses,
                    const std::vector<uint64_t>& updates) {
  Replay r;
  std::shared_ptr<const CacheCluster::RingSnapshot> snap =
      cluster.ring_snapshot();
  const uint64_t epoch = snap->epoch;
  std::vector<uint64_t> routed = misses;
  routed.insert(routed.end(), updates.begin(), updates.end());
  uint64_t sink = 0;
  r.ring_ns = TimePerCall(routed, [&](uint64_t k) {
    sink += snap->ring.ServerFor(k);
  });
  auto owner = [&](uint64_t k) {
    return snap->servers[snap->ring.ServerFor(k)];
  };
  std::vector<BackendServer*> owners;
  for (uint64_t k : misses) owners.push_back(owner(k));
  size_t i = 0;
  r.shard_get_ns = TimePerCall(misses, [&](uint64_t k) {
    sink += owners[i++]->Get(k, epoch).value.value_or(0);
  });
  r.storage_get_ns = TimePerCall(misses, [&](uint64_t k) {
    sink += cluster.storage().Get(k);
  });
  // Writes put back the value each key already has.
  const std::vector<uint64_t>& written = updates.empty() ? misses : updates;
  std::vector<uint64_t> values;
  owners.clear();
  for (uint64_t k : written) {
    values.push_back(cluster.storage().Get(k));
    owners.push_back(owner(k));
  }
  i = 0;
  r.storage_set_ns = TimePerCall(written, [&](uint64_t k) {
    cluster.storage().Set(k, values[i++]);
  });
  i = 0;
  r.shard_set_ns = TimePerCall(written, [&](uint64_t k) {
    owners[i]->Set(k, values[i], epoch);
    ++i;
  });
  i = 0;
  r.shard_delete_ns = TimePerCall(written, [&](uint64_t k) {
    sink += owners[i++]->Delete(k, epoch).existed ? 1 : 0;
  });
  if (sink == 42) std::printf("\n");  // keeps the replays observable
  return r;
}

/// Cluster-side counters, read between segments.
struct ClusterCounters {
  std::vector<uint64_t> lookups;
  uint64_t hits = 0, fills = 0, deletes = 0, storage_reads = 0,
           storage_writes = 0;

  static ClusterCounters Of(const CacheCluster& c) {
    ClusterCounters cc;
    cc.lookups = c.PerServerLookups();
    for (uint32_t s = 0; s < kShards; ++s) {
      const BackendServer& shard = c.server(s);
      cc.hits += shard.hit_count();
      cc.fills += shard.set_count();
      cc.deletes += shard.delete_count();
    }
    cc.storage_reads = c.storage().read_count();
    cc.storage_writes = c.storage().write_count();
    return cc;
  }
};

/// The real-path layer metrics, all n/a until set.
std::vector<Metric> EmptyRealPathLayers(const std::string& na) {
  std::vector<Metric> ms;
  using Named = std::pair<const char*, const char*>;
  for (const auto& [name, unit] : std::vector<Named>{
           {"cluster.client.read_hit_ns_p50", "ns"},
           {"cluster.client.read_hit_ns_p999", "ns"},
           {"cluster.client.read_miss_ns_p50", "ns"},
           {"cluster.client.read_miss_ns_p999", "ns"},
           {"cluster.client.update_ns_p50", "ns"},
           {"cluster.client.update_ns_p999", "ns"},
           {"cluster.client.self_ns_per_op", "ns"},
           {"core.cot.get_ns", "ns"},
           {"core.cot.put_ns", "ns"},
           {"core.cot.invalidate_ns", "ns"},
           {"core.cot.share", "fraction"},
           {"core.cot.admit_ratio", "fraction"},
           {"core.cot.evictions_per_op", "ratio"},
           {"cluster.ring.server_for_ns", "ns"},
           {"cluster.shard.get_ns", "ns"},
           {"cluster.shard.lookups_per_op", "ratio"},
           {"cluster.shard.hit_ratio", "fraction"},
           {"cluster.shard.hot_share", "fraction"},
           {"cluster.shard.inflation_x", "x"},
           {"cluster.storage.reads_per_op", "ratio"},
           {"cluster.storage.writes_per_op", "ratio"},
           {"cluster.storage.get_ns", "ns"},
           {"cluster.storage.set_ns", "ns"},
       }) {
    ms.push_back({name, 0.0, unit, na});
  }
  return ms;
}

void SetMetric(std::vector<Metric>* ms, const std::string& name, double value,
               const std::string& note = "") {
  for (Metric& m : *ms) {
    if (m.name == name) {
      m.value = value;
      m.note = note;
      return;
    }
  }
  Die("unknown metric " + name);
}

/// Per-layer metrics in BENCHMARK.json order. A layer a workload does not
/// exercise reads 0 and its note says n/a.
std::vector<Metric> LayerMetrics(const Metric& gen, std::vector<Metric> real,
                                 const Metric& sim_wall,
                                 const Metric& sim_backlog,
                                 const Metric& overhead, const Metric& scale) {
  std::vector<Metric> ms = {gen};
  ms.insert(ms.end(), real.begin(), real.end());
  for (const Metric& m : {sim_wall, sim_backlog, overhead, scale}) {
    ms.push_back(m);
  }
  return ms;
}

void PrintLayers(const std::vector<Metric>& ms) {
  std::printf("per-layer metrics:\n");
  for (const Metric& m : ms) PrintLine(m);
}

int RealPathLayers(const Workload& w, uint64_t seed, double seconds,
                   uint32_t threads, double clock_ns) {
  Checks checks;
  Inputs in = Generate(w, seed);
  Rig rig = BuildRig(w, in);
  rig.timed = MakeClients(rig.cluster.get(), w, in, /*timed=*/true);
  const bool has_core = rig.timed.front().timed != nullptr;
  Warm(rig.plain, threads, clock_ns, &checks);
  Warm(rig.timed, threads, clock_ns, &checks);
  Segment untraced = RunSegment(
      rig.plain, threads, SegmentSpec{0.3 * seconds, 0, false, nullptr},
      clock_ns);
  Segment serial = RunSegment(rig.plain, 1,
                              SegmentSpec{0.2 * seconds, 0, false, nullptr},
                              clock_ns);

  const ClusterCounters c0 = ClusterCounters::Of(*rig.cluster);
  std::vector<FrontendStats> s0;
  CoreCounters core0;
  for (const ClientSlot& s : rig.timed) {
    s0.push_back(s.client->stats());
    if (s.timed != nullptr) core0.Add(s.timed->counters());
  }
  Segment traced = RunSegment(rig.timed, threads,
                              SegmentSpec{0.5 * seconds, 0, true, nullptr},
                              clock_ns);
  const ClusterCounters c1 = ClusterCounters::Of(*rig.cluster);
  FrontendStats d;  // client counters over the traced segment
  CoreCounters core;
  for (size_t i = 0; i < rig.timed.size(); ++i) {
    FrontendStats s = rig.timed[i].client->stats();
    d.reads += s.reads - s0[i].reads;
    d.updates += s.updates - s0[i].updates;
    d.local_hits += s.local_hits - s0[i].local_hits;
    d.backend_lookups += s.backend_lookups - s0[i].backend_lookups;
    d.invalidations += s.invalidations - s0[i].invalidations;
    if (rig.timed[i].timed != nullptr) core.Add(rig.timed[i].timed->counters());
  }
  core.Add(core0, -1);

  CheckIdentities(*rig.cluster, {&rig.plain, &rig.timed}, "traced run",
                  &checks);
  checks.attempted += untraced.ops + serial.ops + traced.ops;
  checks.failed += untraced.failed + serial.failed + traced.failed;
  checks.Expect(d.reads + d.updates == traced.ops,
                "traced ops == reads + updates");

  const Replay rp =
      ReplayLayers(*rig.cluster, traced.miss_keys, traced.update_keys);

  const double ops = static_cast<double>(traced.ops);
  std::vector<uint64_t> lookups(kShards);
  for (uint32_t s = 0; s < kShards; ++s) {
    lookups[s] = c1.lookups[s] - c0.lookups[s];
  }
  uint64_t total_lookups = 0;
  for (uint64_t l : lookups) total_lookups += l;
  const double hot =
      static_cast<double>(*std::max_element(lookups.begin(), lookups.end()));
  const double ring_calls =
      static_cast<double>(d.backend_lookups + d.invalidations);
  const double fills = static_cast<double>(c1.fills - c0.fills);
  const double deletes = static_cast<double>(c1.deletes - c0.deletes);
  const double st_reads =
      static_cast<double>(c1.storage_reads - c0.storage_reads);
  const double st_writes =
      static_cast<double>(c1.storage_writes - c0.storage_writes);
  const double n_lookups = static_cast<double>(total_lookups);

  auto per_call = [&](uint64_t raw_ns, uint64_t calls) {
    return Ratio(SpansNs(static_cast<double>(raw_ns), calls, clock_ns),
                 static_cast<double>(calls));
  };
  const double core_get = per_call(core.get_raw_ns, core.get_calls);
  const double core_put = per_call(core.put_raw_ns, core.put_calls);
  const double core_inv =
      per_call(core.invalidate_raw_ns, core.invalidate_calls);

  struct Part {
    const char* layer;
    double calls;
    double ns_per_call;
  };
  const std::vector<Part> parts = {
      {"core.cot.get", static_cast<double>(core.get_calls), core_get},
      {"core.cot.put", static_cast<double>(core.put_calls), core_put},
      {"core.cot.invalidate", static_cast<double>(core.invalidate_calls),
       core_inv},
      {"cluster.ring.server_for", ring_calls, rp.ring_ns},
      {"cluster.shard.get", n_lookups, rp.shard_get_ns},
      {"cluster.shard.set (fill)", fills, rp.shard_set_ns},
      {"cluster.shard.delete", deletes, rp.shard_delete_ns},
      {"cluster.storage.get", st_reads, rp.storage_get_ns},
      {"cluster.storage.set", st_writes, rp.storage_set_ns},
  };
  std::vector<double> part_ns;
  for (const Part& p : parts) part_ns.push_back(p.calls * p.ns_per_call);
  const double self_ns = SelfNs(traced.client_ns, part_ns);

  const double misses = static_cast<double>(traced.miss_ns.size());
  const double isolated_miss =
      rp.ring_ns + rp.shard_get_ns +
      Ratio(fills, n_lookups) * (rp.storage_get_ns + rp.shard_set_ns);
  const double inflation =
      Ratio(Ratio(traced.miss_path_ns, misses), isolated_miss);

  std::vector<Metric> real = EmptyRealPathLayers("");
  auto set_pct = [&](const std::string& name, std::vector<float>& samples,
                     double p) {
    PercentileResult r = Percentile(samples, p);
    SetMetric(&real, name, r.value,
              r.count == 0 ? "n/a (no such calls)"
                           : "samples=" + std::to_string(r.count) +
                                 " beyond=" + std::to_string(r.beyond));
  };
  set_pct("cluster.client.read_hit_ns_p50", traced.hit_ns, 50.0);
  set_pct("cluster.client.read_hit_ns_p999", traced.hit_ns, 99.9);
  set_pct("cluster.client.read_miss_ns_p50", traced.miss_ns, 50.0);
  set_pct("cluster.client.read_miss_ns_p999", traced.miss_ns, 99.9);
  set_pct("cluster.client.update_ns_p50", traced.update_ns, 50.0);
  set_pct("cluster.client.update_ns_p999", traced.update_ns, 99.9);
  SetMetric(&real, "cluster.client.self_ns_per_op", self_ns / ops);
  const std::string no_core = has_core ? "" : "n/a (no front-end cache)";
  SetMetric(&real, "core.cot.get_ns", core_get, no_core);
  SetMetric(&real, "core.cot.put_ns", core_put, no_core);
  SetMetric(&real, "core.cot.invalidate_ns", core_inv, no_core);
  SetMetric(&real, "core.cot.share", Ratio(traced.core_ns, traced.client_ns),
            no_core);
  SetMetric(&real, "core.cot.admit_ratio",
            Ratio(static_cast<double>(core.admitted),
                  static_cast<double>(core.put_calls)),
            no_core);
  SetMetric(&real, "core.cot.evictions_per_op",
            static_cast<double>(core.evictions) / ops, no_core);
  SetMetric(&real, "cluster.ring.server_for_ns", rp.ring_ns);
  SetMetric(&real, "cluster.shard.get_ns", rp.shard_get_ns);
  SetMetric(&real, "cluster.shard.lookups_per_op", n_lookups / ops);
  SetMetric(&real, "cluster.shard.hit_ratio",
            Ratio(static_cast<double>(c1.hits - c0.hits), n_lookups));
  SetMetric(&real, "cluster.shard.hot_share", Ratio(hot, n_lookups));
  SetMetric(&real, "cluster.shard.inflation_x", inflation);
  SetMetric(&real, "cluster.storage.reads_per_op", st_reads / ops);
  SetMetric(&real, "cluster.storage.writes_per_op", st_writes / ops);
  SetMetric(&real, "cluster.storage.get_ns", rp.storage_get_ns);
  SetMetric(&real, "cluster.storage.set_ns", rp.storage_set_ns);

  const double untraced_rate = untraced.WindowedOpsPerS();
  const double traced_rate = traced.WindowedOpsPerS();
  const double serial_rate = serial.WindowedOpsPerS();
  char overhead_note[96], scale_note[96];
  std::snprintf(overhead_note, sizeof(overhead_note),
                "untraced %.0f / traced %.0f ops/s", untraced_rate,
                traced_rate);
  std::snprintf(scale_note, sizeof(scale_note),
                "%u threads %.0f / 1 thread %.0f ops/s", threads, untraced_rate,
                serial_rate);
  const std::string model_only = "n/a (model workload only)";
  std::vector<Metric> ms = LayerMetrics(
      {"workload.gen_ns_per_op", in.gen_ns_per_op, "ns"}, real,
      {"sim.wall_ns_per_op", 0.0, "ns", model_only},
      {"sim.max_backlog", 0.0, "count", model_only},
      {"harness.trace_overhead_x", Ratio(untraced_rate, traced_rate), "x",
       overhead_note},
      {"harness.scale_x", Ratio(untraced_rate, serial_rate), "x", scale_note});
  PrintLayers(ms);

  // The layer-by-layer decomposition of the traced client time.
  const double client_per_op = traced.client_ns / ops;
  std::printf(
      "decomposition %s (traced, %u threads, %llu ops): client %.1f ns/op\n",
      w.name, threads, static_cast<unsigned long long>(traced.ops),
      client_per_op);
  std::printf("  %-26s %10s %10s %10s %8s\n", "layer", "calls/op", "ns/call",
              "ns/op", "share");
  for (size_t i = 0; i < parts.size(); ++i) {
    std::printf("  %-26s %10.4f %10.1f %10.1f %7.1f%%\n", parts[i].layer,
                parts[i].calls / ops, parts[i].ns_per_call, part_ns[i] / ops,
                100.0 * Ratio(part_ns[i], traced.client_ns));
  }
  std::printf("  %-26s %10s %10s %10.1f %7.1f%%\n", "residue (client self)",
              "", "", self_ns / ops, 100.0 * Ratio(self_ns, traced.client_ns));
  return Finish(checks, ms);
}

// --- the Figure 5 model ---------------------------------------------------

cluster::ExperimentConfig ModelConfig(const Workload& w, uint64_t seed,
                                      uint64_t ops) {
  cluster::ExperimentConfig config;
  config.num_servers = kShards;
  config.key_space = kKeys;
  config.num_clients = kClients;
  config.total_ops = ops;
  config.phases = {Phase(w)};
  config.seed = seed;
  config.virtual_nodes = kVirtualNodes;
  return config;
}

/// core::CotCache for the model that stamps its own destruction. The
/// simulator builds and preloads its cluster before it asks for the first
/// client's cache, and destroys the caches after its event loop, so the
/// span from the last cache made to the first one destroyed is the loop.
class ModelCotCache final : public core::CotCache {
 public:
  ModelCotCache(const Workload& w, Clock::time_point* destroyed)
      : core::CotCache(kCacheLines, kCacheLines * w.tracker_ratio),
        destroyed_(destroyed) {}
  ~ModelCotCache() override {
    if (*destroyed_ == Clock::time_point{}) *destroyed_ = Clock::now();
  }

 private:
  Clock::time_point* destroyed_;
};

/// One model run; `loop_s` receives the wall time of its event loop alone.
sim::EndToEndResult RunModel(const Workload& w,
                             const cluster::ExperimentConfig& config,
                             double* loop_s) {
  Clock::time_point made{};
  Clock::time_point destroyed{};
  auto result = sim::RunEndToEnd(
      config,
      [&](uint32_t) {
        auto cache = std::make_unique<ModelCotCache>(w, &destroyed);
        made = Clock::now();
        return cache;
      },
      sim::LatencyModel());
  if (!result.ok()) Die("model: " + result.status().ToString());
  *loop_s = NsBetween(made, destroyed) * 1e-9;
  return std::move(result).value();
}

/// Checks one model run's logical identities; returns false if any broke.
bool CheckModel(const sim::EndToEndResult& r, uint64_t ops, Checks* checks) {
  const FrontendStats& a = r.logical.aggregate;
  uint64_t shard_sum = 0;
  for (uint64_t l : r.logical.per_server_lookups) shard_sum += l;
  const size_t before = checks->broken.size();
  checks->Expect(a.reads + a.updates == ops, "model ops == reads + updates");
  checks->Expect(a.reads == a.local_hits + a.backend_lookups,
                 "model reads == local_hits + backend_lookups");
  checks->Expect(shard_sum == a.backend_lookups,
                 "model shard lookups == client backend lookups");
  checks->Expect(r.latency_us.count() == ops, "model latency samples == ops");
  checks->Expect(r.makespan_us > 0.0, "model makespan > 0");
  return checks->broken.size() == before;
}

bool SameModelRun(const sim::EndToEndResult& a, const sim::EndToEndResult& b) {
  return a.makespan_us == b.makespan_us &&
         a.latency_us.Percentile(50.0) == b.latency_us.Percentile(50.0) &&
         a.latency_us.Percentile(99.9) == b.latency_us.Percentile(99.9) &&
         a.max_backlog == b.max_backlog &&
         a.logical.per_server_lookups == b.logical.per_server_lookups &&
         a.logical.aggregate.local_hits == b.logical.aggregate.local_hits;
}

/// The model runs of one benchmark run: the first result of each model
/// seed, the event-loop wall time of every run, repeats included, and the
/// heap peak of the first run.
struct ModelRuns {
  std::vector<sim::EndToEndResult> results;
  std::vector<double> loop_s;
  uint64_t heap_peak = 0;

  /// Simulated ops per wall-clock second of the event loop. The
  /// simulator's cluster build, preload and teardown, which it repeats on
  /// every run, are left out: they are `setup_s`.
  double OpsPerS() const {
    std::vector<double> rates;
    for (double s : loop_s) rates.push_back(kModelOps / s);
    return Median(rates);
  }
  /// Latencies of every op of every model seed.
  metrics::Histogram PooledLatency() const {
    metrics::Histogram h;
    for (const sim::EndToEndResult& r : results) h.Merge(r.latency_us);
    return h;
  }
  /// Max/min of the shard lookups summed over the model seeds.
  double PooledImbalance() const {
    std::vector<uint64_t> per_shard(kShards, 0);
    for (const sim::EndToEndResult& r : results) {
      const std::vector<uint64_t>& l = r.logical.per_server_lookups;
      for (size_t k = 0; k < l.size() && k < kShards; ++k) per_shard[k] += l[k];
    }
    auto [lo, hi] = std::minmax_element(per_shard.begin(), per_shard.end());
    return Ratio(static_cast<double>(*hi), static_cast<double>(*lo));
  }
  /// Client counters summed over the model seeds.
  FrontendStats PooledStats() const {
    FrontendStats sum;
    for (const sim::EndToEndResult& r : results) sum.Add(r.logical.aggregate);
    return sum;
  }
  double MedianMaxBacklog() const {
    std::vector<double> v;
    for (const sim::EndToEndResult& r : results) v.push_back(r.max_backlog);
    return Median(v);
  }
};

/// Model seed `j` of benchmark seed `seed`. The simulator seeds client i
/// with (model seed + i), so model seeds stay 100 apart to share no stream.
uint64_t ModelSeed(uint64_t seed, int j) {
  return seed * 1000 + static_cast<uint64_t>(j) * 100;
}

/// Runs the model on each of the kModelSeeds seeds, then repeats them in
/// turn, at least once and until `seconds` have passed; every repeat must
/// match its first run. The heap is sampled during the first run.
ModelRuns RunModelFor(const Workload& w, uint64_t seed, double seconds,
                      Checks* checks) {
  ModelRuns runs;
  const uint64_t heap_before = HeapInUseBytes();
  Clock::time_point start = Clock::now();
  for (int n = 0;; ++n) {
    if (n > kModelSeeds && NsBetween(start, Clock::now()) * 1e-9 >= seconds) {
      break;
    }
    const int j = n % kModelSeeds;
    const cluster::ExperimentConfig config =
        ModelConfig(w, ModelSeed(seed, j), kModelOps);
    sim::EndToEndResult r;
    double loop_s = 0.0;
    if (n == 0) {
      const uint64_t peak =
          PeakHeapWhile([&] { r = RunModel(w, config, &loop_s); });
      runs.heap_peak = peak - std::min(peak, heap_before);
    } else {
      r = RunModel(w, config, &loop_s);
    }
    runs.loop_s.push_back(loop_s);
    checks->attempted += kModelOps;
    bool ok = CheckModel(r, kModelOps, checks);
    if (n < kModelSeeds) {
      runs.results.push_back(std::move(r));
    } else if (!SameModelRun(runs.results[j], r)) {
      checks->Expect(false, "model runs of one seed are identical");
      ok = false;
    }
    if (!ok) checks->failed += kModelOps;
  }
  return runs;
}

int ModelEndToEnd(const Workload& w, uint64_t seed, double seconds) {
  Checks checks;
  // The simulator builds, preloads and populates its own cluster; a run of
  // one op per client is that set-up alone.
  std::vector<double> setup_s;
  for (int k = 0; k < kSetups; ++k) {
    double loop_s = 0.0;
    Clock::time_point t0 = Clock::now();
    sim::EndToEndResult r =
        RunModel(w, ModelConfig(w, seed, kClients), &loop_s);
    setup_s.push_back(NsBetween(t0, Clock::now()) * 1e-9);
    checks.attempted += kClients;
    if (!CheckModel(r, kClients, &checks)) checks.failed += kClients;
  }
  ModelRuns runs = RunModelFor(w, seed, seconds, &checks);
  const double mem_mb = static_cast<double>(runs.heap_peak) / 1e6;
  const metrics::Histogram latency = runs.PooledLatency();
  const FrontendStats a = runs.PooledStats();
  const std::string virtual_us =
      "virtual time, samples=" + std::to_string(latency.count());
  const std::vector<Metric> json = {
      {"ops_per_s", runs.OpsPerS(), "ops/s",
       "simulated ops per wall-clock second of the event loop"},
      {"op_p50_us", latency.Percentile(50.0), "us", virtual_us},
      {"op_p999_us", latency.Percentile(99.9), "us", virtual_us},
      {"setup_s", Median(setup_s), "s"},
      {"mem_mb", mem_mb, "MB"},
      {"backend_imbalance", runs.PooledImbalance(), "ratio"},
      {"backend_requests_per_op",
       Ratio(static_cast<double>(a.backend_lookups + a.invalidations),
             static_cast<double>(a.reads + a.updates)),
       "ratio"},
  };
  std::printf(
      "end-to-end metrics (%zu model runs of %llu simulated ops; the model "
      "metrics pool the first runs of %d model seeds):\n",
      runs.loop_s.size(), static_cast<unsigned long long>(kModelOps),
      kModelSeeds);
  for (const Metric& m : json) PrintLine(m);
  PrintLine({"local_hit_rate", a.LocalHitRate(), "fraction"});
  PrintLine({"error_rate", checks.error_rate(), "fraction"});
  std::vector<double> makespans;
  for (const sim::EndToEndResult& r : runs.results) {
    makespans.push_back(r.makespan_us * 1e-6);
  }
  PrintLine({"model_makespan_s", Median(makespans), "s",
             "virtual time, median over the model seeds"});
  PrintLine({"model_p99_us", latency.Percentile(99.0), "us", virtual_us});
  return Finish(checks, json);
}

int ModelLayers(const Workload& w, uint64_t seed, double seconds) {
  Checks checks;
  Inputs in = Generate(w, seed);
  ModelRuns runs = RunModelFor(w, seed, seconds, &checks);
  std::vector<Metric> ms = LayerMetrics(
      {"workload.gen_ns_per_op", in.gen_ns_per_op, "ns"},
      EmptyRealPathLayers("n/a (real-path workloads only)"),
      {"sim.wall_ns_per_op", 1e9 / runs.OpsPerS(), "ns",
       std::to_string(runs.loop_s.size()) + " model event loops"},
      {"sim.max_backlog", runs.MedianMaxBacklog(), "count",
       "median over " + std::to_string(kModelSeeds) + " model seeds"},
      {"harness.trace_overhead_x", 0.0, "x",
       "n/a (the model runs no benchmark spans)"},
      {"harness.scale_x", 0.0, "x", "n/a (the simulator is serial)"});
  PrintLayers(ms);
  return Finish(checks, ms);
}

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) a.workload = &w;
      }
      if (a.workload == nullptr) Die("unknown workload '" + value + "'");
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
      if (!have_seed) Die("bad --seed '" + value + "'");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(a.seconds > 0.0) ||
          a.seconds > 600.0) {
        Die("bad --seconds '" + value + "'");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Die("bad --trace '" + value + "'");
      a.trace = value == "1" ? 1 : 0;
    } else {
      Die("unknown flag '" + flag + "'");
    }
  }
  if (a.workload == nullptr || !have_seed || a.seconds <= 0.0 || a.trace < 0) {
    Die("usage: cot_perf --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1>");
  }
  return a;
}

}  // namespace
}  // namespace cot::perfbench

int main(int argc, char** argv) {
  using namespace cot::perfbench;
#ifndef NDEBUG
  Die("refusing to measure a build with assertions on (NDEBUG unset)");
#endif
  if (std::strcmp(COT_PERF_BUILD_TYPE, "Release") != 0) {
    Die(std::string("refusing to measure build type '") + COT_PERF_BUILD_TYPE +
        "'; configure with -DCMAKE_BUILD_TYPE=Release");
  }
  const Args args = ParseArgs(argc, argv);
  const Workload& w = *args.workload;
  const uint32_t threads = LoadThreads();
  const double clock_ns = ClockReadNs();
  Header(w, args.seed, args.seconds, args.trace == 1, threads, clock_ns);
  if (w.model) {
    return args.trace == 1 ? ModelLayers(w, args.seed, args.seconds)
                           : ModelEndToEnd(w, args.seed, args.seconds);
  }
  return args.trace == 1
             ? RealPathLayers(w, args.seed, args.seconds, threads, clock_ns)
             : RealPathEndToEnd(w, args.seed, args.seconds, threads, clock_ns);
}
