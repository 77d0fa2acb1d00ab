// servebench driver: serves one benchmark workload through the public
// SeedMinEngine API and writes what it observed as one JSON document.
//
//   servebench_driver --workload ic-cold --seed 1 --seconds 45 --trace 0 --out run.json
//
// The driver only generates inputs, serves them, times each call from the
// outside and runs the correctness checks that need the engine (solo
// re-solves, churn replay). run.py turns the raw records into metrics.
// With --trace 1 it also keeps spans in memory around every call it makes
// into a layer (plus child spans synthesized from the RequestProfile and
// round traces the engine returns) and, after the workload, times direct
// probe calls into the sampling, coverage, diffusion and parallel layers.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/graph_catalog.h"
#include "api/seedmin_engine.h"
#include "coverage/inverted_index.h"
#include "coverage/lazy_greedy.h"
#include "delta/apply.h"
#include "delta/catalog_delta.h"
#include "delta/churn.h"
#include "diffusion/realization.h"
#include "graph/datasets.h"
#include "parallel/thread_pool.h"
#include "sampling/mrr_set.h"
#include "sampling/root_size.h"
#include "sampling/rr_set.h"
#include "util/rng.h"

namespace {

using asti::AlgorithmId;
using asti::DiffusionModel;
using asti::NodeId;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double Now() { return std::chrono::duration<double>(Clock::now() - kEpoch).count(); }

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "servebench_driver: %s\n", what.c_str());
  std::exit(3);
}

template <class T>
T Expect(asti::StatusOr<T> value, const char* what) {
  if (!value.ok()) Fail(std::string(what) + ": " + value.status().ToString());
  return std::move(value).value();
}

// ---------------------------------------------------------------------------
// Deterministic inputs. The benchmark's own generator (splitmix64), so the
// request lists do not move when the library's RNG changes.

class InputRng {
 public:
  explicit InputRng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  size_t Below(size_t bound) { return static_cast<size_t>(Next() % bound); }

 private:
  uint64_t state_;
};

template <class T>
void Shuffle(std::vector<T>& items, InputRng& rng) {
  for (size_t i = items.size(); i > 1; --i) std::swap(items[i - 1], items[rng.Below(i)]);
}

// FNV-1a over 64-bit words: the benchmark's digest of graphs, request lists
// and results.
class Digest {
 public:
  void Add(uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void AddDouble(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    Add(bits);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string Hex(uint64_t value) {
  char text[24];
  std::snprintf(text, sizeof text, "0x%016llx", static_cast<unsigned long long>(value));
  return text;
}

// Forward CSR (per-node out-neighbours and probabilities) of a graph.
uint64_t GraphDigest(const asti::DirectedGraph& graph) {
  Digest digest;
  digest.Add(graph.NumNodes());
  digest.Add(graph.NumEdges());
  for (NodeId u = 0; u < graph.NumNodes(); ++u) {
    const auto targets = graph.OutNeighbors(u);
    const auto probs = graph.OutProbabilities(u);
    digest.Add(targets.size());
    for (size_t i = 0; i < targets.size(); ++i) {
      digest.Add(targets[i]);
      digest.AddDouble(probs[i]);
    }
  }
  return digest.value();
}

// ---------------------------------------------------------------------------
// Workloads. See README.md for why each exists.

constexpr char kGraphName[] = "youtube";
constexpr asti::DatasetId kDataset = asti::DatasetId::kYoutube;
constexpr double kScale = 1.0;
constexpr uint64_t kStructureSeed = 7;
constexpr size_t kSetups = 5;          // set-up repetitions per run (median reported)
constexpr size_t kSoloStride = 50;     // every k-th served result is re-solved alone
constexpr size_t kMinSoloChecks = 8;
// Open loop: whole blocks of the request mix served on the schedule before
// the timed window and left out of its metrics. Straight after the
// one-at-a-time warm-up, the first second of arrivals sometimes ran 2-3x
// slower (3 of 18 runs).
constexpr size_t kLeadInBlocks = 12;

struct Algorithm {
  AlgorithmId id;
  NodeId batch_size;  // 0 = the id's own batch
};

struct Workload {
  std::string name;
  DiffusionModel model;
  std::vector<Algorithm> algorithms;  // requests cycle through these
  asti::SeedMinEngine::ServingOptions serving;
  double requests_per_second = 0;  // closed loop: list length per --seconds
  double arrival_rate = 0;         // open loop: Poisson arrivals per second
  size_t swaps = 0;                // open loop: delta epochs minted during the run
  asti::ChurnSpec churn;
};

Workload MakeWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "ic-cold") {
    w.model = DiffusionModel::kIndependentCascade;
    // One ASTI per two ASTI-4. With the two alternating, half the requests
    // took about 130 ms (ASTI) and half about 40 ms (ASTI-4), so the median
    // fell in the gap between them and swung by 17-36 % across seeds.
    w.algorithms = {{AlgorithmId::kAsti, 0}, {AlgorithmId::kAsti4, 0}, {AlgorithmId::kAsti4, 0}};
    w.serving.num_threads = 4;
    w.serving.num_drivers = 1;
    w.serving.cache_byte_budget = size_t{64} << 20;
    w.requests_per_second = 11;
  } else if (name == "lt-churn") {
    w.model = DiffusionModel::kLinearThreshold;
    w.algorithms = {{AlgorithmId::kAsti8, 0}, {AlgorithmId::kAsti, 16}};
    w.serving.num_threads = 1;
    w.serving.num_drivers = 4;
    // About a fifth of what the four drivers complete in a closed loop. At
    // 100/s the queue doubled what host CPU steal added to median latency
    // (90th-percentile queue wait up to 3 ms); at 70/s it adds less, and
    // the vCPUs are busy, and so exposed to steal, 30 % less of the time.
    w.arrival_rate = 70;
    w.serving.max_queue_depth = 1024;  // fifteen seconds of arrivals: never rejects
    w.swaps = 5;
    w.churn.inserts = 64;
    w.churn.deletes = 64;
    w.churn.reweights = 64;
  } else {
    Fail("unknown workload '" + name + "' (ic-cold, lt-churn)");
  }
  return w;
}

asti::SolveRequest MakeRequest(const Workload& w, Algorithm algorithm, NodeId eta,
                               uint64_t seed) {
  asti::SolveRequest request;
  request.graph = kGraphName;
  request.algorithm = algorithm.id;
  request.batch_size = algorithm.batch_size;
  request.model = w.model;
  request.eta = eta;
  request.seed = seed;
  request.keep_traces = true;
  return request;
}

// Everything a run serves, a pure function of (workload, seed, seconds, n).
struct Plan {
  std::vector<asti::SolveRequest> warmup;
  std::vector<asti::SolveRequest> requests;  // the lead-in first, then the timed ones
  size_t lead_in = 0;            // open loop: untimed leading requests
  double window_offset = 0;      // open loop: seconds from the first arrival slot to the window
  std::vector<double> arrivals;  // open loop: scheduled offsets, seconds
  std::vector<size_t> swap_at;   // open loop: arrival indices that mint an epoch
  uint64_t delta_seed = 0;
  uint64_t digest = 0;
};

std::vector<NodeId> LtEtas(NodeId n) {
  std::vector<NodeId> etas;
  for (int k = 0; k < 8; ++k) {
    etas.push_back(static_cast<NodeId>(std::lround(n * (0.02 + 0.04 * k / 7.0))));
  }
  return etas;
}

Plan MakePlan(const Workload& w, uint64_t seed, double seconds, NodeId n) {
  Plan plan;
  Digest stream;
  for (char c : w.name) stream.Add(static_cast<unsigned char>(c));
  stream.Add(seed);
  InputRng rng(stream.value());
  const size_t num_algorithms = w.algorithms.size();
  if (w.name == "ic-cold") {
    // η uniform over [1 %, 5 %] of n, stratified so every seed serves the same
    // spread of targets to each algorithm. The strata are disjoint integer
    // ranges with one request each, so every η is distinct and no two
    // requests share a round-1 cache key. Each block of adjacent strata, one
    // per algorithm in the cycle, is dealt to the cycle in a seeded order,
    // and the blocks are served in a seeded order.
    const size_t blocks = static_cast<size_t>(
        std::ceil(w.requests_per_second * seconds / static_cast<double>(num_algorithms)));
    const size_t count = blocks * num_algorithms;
    const uint64_t lo = static_cast<uint64_t>(std::ceil(0.01 * n));
    const uint64_t range = static_cast<uint64_t>(std::floor(0.05 * n)) - lo + 1;
    if (range < count) Fail("ic-cold: more requests than distinct targets");
    std::vector<size_t> order(blocks);
    std::iota(order.begin(), order.end(), size_t{0});
    Shuffle(order, rng);
    for (size_t block : order) {
      std::vector<NodeId> etas;
      for (size_t i = block * num_algorithms; i < (block + 1) * num_algorithms; ++i) {
        const uint64_t first = lo + i * range / count;
        const uint64_t end = lo + (i + 1) * range / count;
        etas.push_back(static_cast<NodeId>(first + rng.Below(end - first)));
      }
      Shuffle(etas, rng);
      for (size_t k = 0; k < num_algorithms; ++k) {
        plan.requests.push_back(MakeRequest(w, w.algorithms[k], etas[k], rng.Next()));
      }
    }
    // Warm-up targets lie below the workload's range: they start the driver,
    // the pool and the per-graph state without warming any key in use.
    const double warm_fractions[] = {0.005, 0.006, 0.007, 0.008};
    for (size_t i = 0; i < 4; ++i) {
      plan.warmup.push_back(MakeRequest(w, w.algorithms[i % num_algorithms],
                                        static_cast<NodeId>(warm_fractions[i] * n), 1000 + i));
    }
  } else {
    // Every block of 16 requests serves each (η, algorithm) pair once, in a
    // seeded order, so every seed serves the same mix.
    const std::vector<NodeId> etas = LtEtas(n);
    std::vector<std::pair<NodeId, Algorithm>> pairs;
    for (NodeId eta : etas) {
      for (const Algorithm& algorithm : w.algorithms) pairs.emplace_back(eta, algorithm);
    }
    for (size_t i = 0; i < pairs.size(); ++i) {
      plan.warmup.push_back(MakeRequest(w, pairs[i].second, pairs[i].first, 1000 + i));
    }
    plan.lead_in = kLeadInBlocks * pairs.size();
    const size_t timed = static_cast<size_t>(std::ceil(w.arrival_rate * seconds));
    const size_t count = plan.lead_in + timed;
    std::vector<size_t> order;
    while (plan.requests.size() < count) {
      if (order.empty()) {
        order.resize(pairs.size());
        std::iota(order.begin(), order.end(), size_t{0});
        Shuffle(order, rng);
      }
      const auto& [eta, algorithm] = pairs[order.back()];
      order.pop_back();
      plan.requests.push_back(MakeRequest(w, algorithm, eta, rng.Next()));
    }
    // The lead-in and the window are each a Poisson process conditioned on
    // its count: sorted uniform times, so every seed offers exactly the
    // same rate.
    plan.window_offset = static_cast<double>(plan.lead_in) / w.arrival_rate;
    const double span = static_cast<double>(timed) / w.arrival_rate;
    for (size_t i = 0; i < plan.lead_in; ++i) {
      plan.arrivals.push_back(plan.window_offset * rng.Uniform());
    }
    for (size_t i = 0; i < timed; ++i) {
      plan.arrivals.push_back(plan.window_offset + span * rng.Uniform());
    }
    std::sort(plan.arrivals.begin(), plan.arrivals.end());
    for (size_t k = 0; k < w.swaps; ++k) {
      plan.swap_at.push_back(plan.lead_in + (2 * k + 1) * timed / (2 * w.swaps));
    }
    plan.delta_seed = rng.Next();
  }
  Digest digest;
  for (const auto* list : {&plan.warmup, &plan.requests}) {
    for (const asti::SolveRequest& r : *list) {
      digest.Add(static_cast<uint64_t>(r.algorithm));
      digest.Add(r.batch_size);
      digest.Add(static_cast<uint64_t>(r.model));
      digest.Add(r.eta);
      digest.Add(r.seed);
    }
  }
  for (double t : plan.arrivals) digest.AddDouble(t);
  for (size_t i : plan.swap_at) digest.Add(i);
  digest.Add(plan.delta_seed);
  plan.digest = digest.value();
  return plan;
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory and written out when the run ends.

struct Span {
  uint32_t id;
  uint32_t parent;  // 0 = root
  int64_t request;  // -1 = not a request
  const char* name;
  double start;
  double end;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  uint32_t Add(const char* name, uint32_t parent, int64_t request, double start, double end) {
    if (!on_) return 0;
    std::lock_guard<std::mutex> lock(mutex_);
    const uint32_t id = static_cast<uint32_t>(spans_.size() + 1);
    spans_.push_back({id, parent, request, name, start, end});
    return id;
  }

  // Closes a span opened with Add(name, parent, request, start, start).
  void End(uint32_t id, double end) {
    if (!on_) return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].end = end;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  const bool on_;
  std::mutex mutex_;
  std::vector<Span> spans_;
};

double RoundSeconds(const asti::SolveResult& result) {
  double seconds = 0.0;
  for (const auto& trace : result.traces) {
    for (const auto& round : trace.rounds) seconds += round.seconds;
  }
  return seconds;
}

// Children of a request span, laid out from the durations the engine
// returns: queue wait, then execution; the adaptive rounds end with the
// execution and hold the sampling, coverage and certify phases.
void AddProfileSpans(Tracer& tracer, uint32_t request_span, int64_t request, double submit,
                     const asti::SolveResult& result) {
  const asti::RequestProfile& p = result.profile;
  const double exec_start = submit + p.queue_wait_seconds;
  const double exec_end = submit + p.total_seconds;
  tracer.Add("api.queue_wait", request_span, request, submit, exec_start);
  const uint32_t exec = tracer.Add("api.execute", request_span, request, exec_start, exec_end);
  const double rounds_start = exec_end - RoundSeconds(result);
  const uint32_t rounds = tracer.Add("core.rounds", exec, request, rounds_start, exec_end);
  double t = rounds_start;
  const std::pair<const char*, double> phases[] = {{"sampling.generate", p.sampling_seconds},
                                                   {"coverage.select", p.coverage_seconds},
                                                   {"stats.certify", p.certify_seconds}};
  for (const auto& [name, seconds] : phases) {
    tracer.Add(name, rounds, request, t, t + seconds);
    t += seconds;
  }
}

// ---------------------------------------------------------------------------
// Serving.

struct Record {
  double scheduled = 0, submit = 0, ready = 0;
  int status = -1;
  size_t seeds = 0;
  bool reached = false;
  uint64_t epoch = 0;
  asti::RequestProfile profile;
  size_t rounds = 0;
  double round_seconds = 0;
  uint64_t result_digest = 0;
};

uint64_t ResultDigest(const asti::SolveResult& result) {
  Digest digest;
  for (const auto& trace : result.traces) {
    digest.Add(trace.seeds.size());
    for (NodeId seed : trace.seeds) digest.Add(seed);
    digest.Add(trace.total_activated);
  }
  for (size_t count : result.seed_counts) digest.Add(count);
  for (double spread : result.spreads) digest.AddDouble(spread);
  digest.Add(result.always_reached ? 1 : 0);
  return digest.value();
}

void Fill(Record& record, const asti::StatusOr<asti::SolveResult>& result) {
  record.status = static_cast<int>(result.status().code());
  if (!result.ok()) return;
  record.seeds = 0;
  for (size_t count : result->seed_counts) record.seeds += count;
  record.reached = result->always_reached;
  record.epoch = result->graph_epoch;
  record.profile = result->profile;
  for (const auto& trace : result->traces) record.rounds += trace.rounds.size();
  record.round_seconds = RoundSeconds(*result);
  record.result_digest = ResultDigest(*result);
}

// One set-up: graph build, catalog register and engine construction
// (Build), then the fixed warm-up with each request served alone (WarmUp).
struct Served {
  std::unique_ptr<asti::GraphCatalog> catalog;
  std::unique_ptr<asti::SeedMinEngine> engine;  // destroyed before the catalog
  uint32_t span = 0;
  double setup_seconds = 0;
  double build_seconds = 0;
  std::vector<Record> warmup;
};

Served Build(const Workload& w, Tracer& tracer) {
  Served s;
  const double t0 = Now();
  asti::DirectedGraph graph = Expect(asti::MakeSurrogateDataset(kDataset, kScale, kStructureSeed),
                                     "build graph");
  const double t1 = Now();
  s.catalog = std::make_unique<asti::GraphCatalog>();
  Expect(s.catalog->Register(kGraphName, std::move(graph)), "register graph");
  const double t2 = Now();
  s.engine = std::make_unique<asti::SeedMinEngine>(*s.catalog, w.serving);
  const double t3 = Now();
  s.span = tracer.Add("setup", 0, -1, t0, t0);  // ended by WarmUp
  tracer.Add("graph.build", s.span, -1, t0, t1);
  tracer.Add("api.register", s.span, -1, t1, t2);
  tracer.Add("api.construct", s.span, -1, t2, t3);
  s.build_seconds = t1 - t0;
  s.setup_seconds = t3 - t0;
  return s;
}

void WarmUp(Served& s, const Plan& plan, Tracer& tracer) {
  const double t0 = Now();
  for (const asti::SolveRequest& request : plan.warmup) {
    Record record;
    record.scheduled = record.submit = Now();
    auto result = s.engine->SubmitAsync(request).get();
    record.ready = Now();
    Fill(record, result);
    if (result.ok()) {
      const uint32_t span = tracer.Add("api.request", s.span, -1, record.submit, record.ready);
      AddProfileSpans(tracer, span, -1, record.submit, *result);
    }
    s.warmup.push_back(record);
  }
  const double t1 = Now();
  tracer.End(s.span, t1);
  s.setup_seconds += t1 - t0;
}

struct ProcessSample {
  double cpu = 0;    // user + sys seconds of this process
  double steal = 0;  // host steal seconds summed over all CPUs
};

ProcessSample SampleProcess() {
  ProcessSample sample;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  sample.cpu = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
               1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
  std::ifstream stat("/proc/stat");
  std::string label;
  uint64_t fields[8] = {};
  if (stat >> label && label == "cpu") {
    for (uint64_t& field : fields) stat >> field;
    sample.steal = static_cast<double>(fields[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
  }
  return sample;
}

// A field of /proc/self/status in MiB: VmRSS (resident now) or VmHWM (peak).
double StatusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) return std::stod(line.substr(field.size() + 1)) / 1024.0;
  }
  return 0.0;
}

struct SwapRecord {
  size_t index;
  double make_seconds, apply_seconds, swap_seconds;
};

struct Window {
  double start = 0, end = 0;
  ProcessSample before, after;
};

// Closed loop: one client submits each request when the previous one is done.
void ServeClosed(const Plan& plan, asti::SeedMinEngine& engine, Tracer& tracer,
                 std::vector<Record>& records, Window& window) {
  window.before = SampleProcess();
  window.start = Now();
  for (size_t i = 0; i < plan.requests.size(); ++i) {
    Record& record = records[i];
    record.scheduled = record.submit = Now();
    auto result = engine.SubmitAsync(plan.requests[i]).get();
    record.ready = Now();
    Fill(record, result);
    if (tracer.on() && result.ok()) {
      const auto request = static_cast<int64_t>(i);
      const uint32_t span = tracer.Add("api.request", 0, request, record.submit, record.ready);
      AddProfileSpans(tracer, span, request, record.submit, *result);
    }
  }
}

// Open loop: one generator issues arrivals on the seeded schedule, the
// untimed lead-in first; a swap runs inline at its arrival index, so the
// epoch each request sees is fixed by the plan. Waiters take futures in
// submission order; with FIFO admission the executing requests are always
// the oldest unresolved ones, so num_drivers + 2 waiters see every
// completion as it happens.
void ServeOpen(const Workload& w, const Plan& plan, asti::GraphCatalog& catalog,
               asti::SeedMinEngine& engine, Tracer& tracer, std::vector<Record>& records,
               Window& window, std::vector<SwapRecord>& swaps,
               std::vector<asti::EdgeDelta>& deltas) {
  struct Pending {
    size_t index;
    std::future<asti::StatusOr<asti::SolveResult>> future;
  };
  std::mutex mutex;
  std::condition_variable ready;
  std::deque<Pending> pending;
  bool done = false;
  auto waiter = [&] {
    while (true) {
      Pending item;
      {
        std::unique_lock<std::mutex> lock(mutex);
        ready.wait(lock, [&] { return done || !pending.empty(); });
        if (pending.empty()) return;
        item = std::move(pending.front());
        pending.pop_front();
      }
      auto result = item.future.get();
      Record& record = records[item.index];
      record.ready = Now();
      Fill(record, result);
      if (tracer.on() && result.ok() && item.index >= plan.lead_in) {
        const auto request = static_cast<int64_t>(item.index - plan.lead_in);
        const uint32_t span = tracer.Add("api.request", 0, request, record.submit, record.ready);
        AddProfileSpans(tracer, span, request, record.submit, *result);
      }
    }
  };
  std::vector<std::thread> waiters;
  for (size_t k = 0; k < w.serving.num_drivers + 2; ++k) waiters.emplace_back(waiter);

  asti::Rng delta_rng(plan.delta_seed);
  size_t next_swap = 0;
  const double first_slot = Now() + 0.005;
  window.start = first_slot + plan.window_offset;
  const Clock::time_point base = kEpoch + std::chrono::duration_cast<Clock::duration>(
                                              std::chrono::duration<double>(first_slot));
  for (size_t i = 0; i < plan.requests.size(); ++i) {
    if (i == plan.lead_in) window.before = SampleProcess();
    std::this_thread::sleep_until(base + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(plan.arrivals[i])));
    if (next_swap < plan.swap_at.size() && plan.swap_at[next_swap] == i) {
      const double m0 = Now();
      asti::EdgeDelta delta;
      {
        const asti::GraphRef base_ref = Expect(catalog.Get(kGraphName), "resolve graph");
        delta = Expect(asti::MakeRandomDelta(base_ref.graph(), w.churn, delta_rng), "make delta");
      }
      const double m1 = Now();
      const asti::DeltaSwapResult swap =
          Expect(asti::SwapWithDelta(catalog, kGraphName, delta), "swap with delta");
      const double m2 = Now();
      tracer.Add("delta.make", 0, -1, m0, m1);
      const uint32_t span = tracer.Add("delta.swap", 0, -1, m1, m2);
      tracer.Add("delta.apply", span, -1, m1, m1 + swap.apply_seconds);
      tracer.Add("api.catalog_swap", span, -1, m1 + swap.apply_seconds,
                 m1 + swap.apply_seconds + swap.swap_seconds);
      swaps.push_back({i - plan.lead_in, m1 - m0, swap.apply_seconds, swap.swap_seconds});
      deltas.push_back(std::move(delta));
      ++next_swap;
    }
    Record& record = records[i];
    record.scheduled = first_slot + plan.arrivals[i];
    record.submit = Now();
    auto future = engine.SubmitAsync(plan.requests[i]);
    {
      std::lock_guard<std::mutex> lock(mutex);
      pending.push_back({i, std::move(future)});
    }
    ready.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    done = true;
  }
  ready.notify_all();
  for (std::thread& t : waiters) t.join();
}

// ---------------------------------------------------------------------------
// Correctness gates that need the engine.

struct Gates {
  size_t solo_checked = 0;
  size_t solo_mismatches = 0;
  bool replay_checked = false;
  bool replay_ok = true;
  std::string detail;
};

// Every k-th served result, re-solved alone on a fresh engine over the
// snapshot of the epoch it was served on, must be identical (the
// solo = concurrent contract of src/api/README.md). For churn runs the
// epochs are rebuilt from the initial graph with ApplyDeltaByRebuild, and
// the last one must equal the snapshot the catalog serves at the end.
Gates CheckResults(const Workload& w, const Plan& plan, const std::vector<Record>& records,
                   const std::vector<asti::EdgeDelta>& deltas, asti::GraphCatalog& served) {
  Gates gates;
  std::map<uint64_t, std::shared_ptr<const asti::DirectedGraph>> epochs;
  const asti::GraphRef final_ref = Expect(served.Get(kGraphName), "resolve graph");
  if (deltas.empty()) {
    epochs[final_ref.epoch()] = final_ref.snapshot;
  } else {
    auto graph = std::make_shared<const asti::DirectedGraph>(
        Expect(asti::MakeSurrogateDataset(kDataset, kScale, kStructureSeed), "rebuild graph"));
    epochs[1] = graph;
    for (size_t k = 0; k < deltas.size(); ++k) {
      graph = std::make_shared<const asti::DirectedGraph>(
          Expect(asti::ApplyDeltaByRebuild(*graph, deltas[k]), "replay delta"));
      epochs[k + 2] = graph;
    }
    gates.replay_checked = true;
    gates.replay_ok = final_ref.epoch() == deltas.size() + 1 &&
                      GraphDigest(*graph) == GraphDigest(final_ref.graph());
    if (!gates.replay_ok) gates.detail += "final graph differs from its replayed deltas; ";
  }
  const size_t stride =
      std::max<size_t>(1, std::min(kSoloStride, records.size() / kMinSoloChecks));
  std::map<uint64_t, std::vector<size_t>> by_epoch;
  for (size_t i = stride - 1; i < records.size(); i += stride) {
    if (records[i].status == 0) by_epoch[records[i].epoch].push_back(i);
  }
  for (const auto& [epoch, indices] : by_epoch) {
    auto it = epochs.find(epoch);
    if (it == epochs.end()) Fail("served epoch " + std::to_string(epoch) + " has no replay");
    asti::GraphCatalog catalog;
    Expect(catalog.Register(kGraphName, it->second), "register solo graph");
    asti::SeedMinEngine engine(catalog, w.serving);
    for (size_t i : indices) {
      auto result = engine.Solve(plan.requests[i]);
      ++gates.solo_checked;
      if (!result.ok() || ResultDigest(*result) != records[i].result_digest) {
        ++gates.solo_mismatches;
        gates.detail += "request " + std::to_string(i) + " differs when solved alone; ";
      }
    }
  }
  return gates;
}

// ---------------------------------------------------------------------------
// Probes: direct calls into single layers on the workload's graph and model.

double MedianOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

template <class Fn>
double TimeProbe(Tracer& tracer, const char* name, size_t reps, Fn fn) {
  std::vector<double> seconds;
  for (size_t r = 0; r < reps; ++r) {
    const double t0 = Now();
    fn();
    const double t1 = Now();
    tracer.Add(name, 0, -1, t0, t1);
    seconds.push_back(t1 - t0);
  }
  return MedianOf(seconds);
}

std::map<std::string, double> RunProbes(const Workload& w, const asti::DirectedGraph& graph,
                                        NodeId eta, size_t collection_sets, uint64_t seed,
                                        Tracer& tracer) {
  std::map<std::string, double> probes;
  const NodeId n = graph.NumNodes();
  std::vector<NodeId> all(n);
  std::iota(all.begin(), all.end(), NodeId{0});

  asti::Rng world_rng(seed);
  probes["world_ms"] =
      1e3 * TimeProbe(tracer, "probe.diffusion.world", 21, [&] {
        auto world = w.model == DiffusionModel::kIndependentCascade
                         ? asti::Realization::SampleIc(graph, world_rng)
                         : asti::Realization::SampleLt(graph, world_rng);
        if (world.CountLiveEdges() > graph.NumEdges()) Fail("probe world has too many edges");
      });

  constexpr size_t kRrSets = 20000;
  asti::RrSampler rr(graph, w.model);
  asti::RrCollection rr_sets(n);
  asti::Rng rr_rng(seed + 1);
  TimeProbe(tracer, "probe.sampling.rr", 1, [&] {
    for (size_t i = 0; i < kRrSets; ++i) rr.Generate(all, nullptr, rr_sets, rr_rng);
  });
  probes["edges_per_set"] = static_cast<double>(rr.cost().edges_examined) / kRrSets;

  // A round-1 collection the size of one warm cache entry: mRR sets with the
  // workload's median target.
  asti::MrrSampler mrr(graph, w.model);
  const asti::RootSizeSampler roots(n, eta);
  asti::RrCollection collection(n);
  asti::Rng mrr_rng(seed + 2);
  for (size_t i = 0; i < collection_sets; ++i) {
    mrr.Generate(all, nullptr, roots.Sample(mrr_rng), collection, mrr_rng);
  }
  probes["collection_sets"] = static_cast<double>(collection_sets);
  size_t index_entries = 0;
  probes["index_build_ms"] =
      1e3 * TimeProbe(tracer, "probe.coverage.index", 5, [&] {
        index_entries = asti::BuildInvertedIndex(collection).sets.size();
      });
  if (index_entries != collection.TotalEntries()) Fail("probe index lost entries");
  constexpr NodeId kPicks = 16;
  probes["picks_per_s"] =
      kPicks / TimeProbe(tracer, "probe.coverage.greedy", 5, [&] {
        if (asti::LazyGreedyMaxCoverage(collection, kPicks).selected.size() != kPicks) {
          Fail("probe greedy picked too few nodes");
        }
      });

  asti::ThreadPool pool(4);
  constexpr size_t kFanouts = 2000;
  std::vector<double> fanout;
  const double fanout_start = Now();
  for (size_t r = 0; r < kFanouts; ++r) {
    const double t0 = Now();
    pool.ParallelFor(pool.NumThreads(), [](size_t, size_t, size_t) {});
    fanout.push_back(Now() - t0);
  }
  tracer.Add("probe.parallel.fanout", 0, -1, fanout_start, Now());
  probes["fanout_us"] = 1e6 * MedianOf(fanout);
  return probes;
}

// ---------------------------------------------------------------------------
// Output.

class JsonOut {
 public:
  explicit JsonOut(std::ostream& out) : out_(out) { out_.precision(17); }
  void Key(const char* key) {
    out_ << (first_ ? "" : ",") << '"' << key << "\":";
    first_ = false;
  }
  void Field(const char* key, double value) {
    Key(key);
    out_ << value;
  }
  void Field(const char* key, const std::string& value) {
    Key(key);
    out_ << '"' << value << '"';
  }
  void Open() {
    out_ << '{';
    first_ = true;
  }
  void Close() {
    out_ << '}';
    first_ = false;
  }

 private:
  std::ostream& out_;
  bool first_ = true;
};

void WriteRecord(std::ostream& out, const Record& r, const asti::SolveRequest& request) {
  const asti::RequestProfile& p = r.profile;
  out << '[' << request.eta << ',' << static_cast<int>(request.algorithm) << ','
      << request.batch_size << ',' << r.scheduled << ',' << r.submit << ',' << r.ready << ','
      << r.status << ',' << r.seeds << ',' << (r.reached ? 1 : 0) << ',' << r.epoch << ','
      << p.queue_wait_seconds << ',' << p.sampling_seconds << ',' << p.coverage_seconds << ','
      << p.certify_seconds << ',' << p.total_seconds << ',' << p.sets_generated << ','
      << p.sets_reused << ',' << p.sets_extended << ',' << r.rounds << ',' << r.round_seconds
      << ']';
}

// Records [begin, end) with the requests at the same indices.
void WriteRecords(std::ostream& out, const std::vector<Record>& records,
                  const std::vector<asti::SolveRequest>& requests, size_t begin, size_t end) {
  out << '[';
  for (size_t i = begin; i < end; ++i) {
    if (i > begin) out << ',';
    WriteRecord(out, records[i], requests[i]);
  }
  out << ']';
}

constexpr char kRecordFields[] =
    "[\"eta\",\"algorithm\",\"batch_size\",\"scheduled\",\"submit\",\"ready\",\"status\","
    "\"seeds\",\"reached\",\"epoch\","
    "\"queue_wait_s\",\"sampling_s\",\"coverage_s\",\"certify_s\",\"total_s\","
    "\"sets_generated\",\"sets_reused\",\"sets_extended\",\"rounds\",\"round_s\"]";

template <class T, class Fn>
void WriteArray(std::ostream& out, const std::vector<T>& items, Fn write) {
  out << '[';
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out << ',';
    write(items[i]);
  }
  out << ']';
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--out") args.out = value;
    else Fail("unknown flag " + flag);
  }
  if (args.workload.empty() || args.out.empty() || !(args.seconds > 0)) {
    Fail("usage: servebench_driver --workload W --seed S --seconds T --trace 0|1 --out FILE");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload w = MakeWorkload(args.workload);
  Tracer tracer(args.trace);

  // The first set-up serves the workload. kSetups - 1 more run after it,
  // once the served engine is gone, so the serving process's memory holds
  // one set-up only; run.py reports the median set-up time. The plan needs
  // n, so it is made after the first build, outside the timed set-up.
  std::vector<double> setup_seconds, build_seconds;
  std::optional<Served> served(Build(w, tracer));
  uint64_t graph_digest = 0;
  NodeId n = 0;
  asti::EdgeId m = 0;
  {
    const asti::GraphRef initial = Expect(served->catalog->Get(kGraphName), "resolve graph");
    graph_digest = GraphDigest(initial.graph());
    n = initial.num_nodes();
    m = initial.num_edges();
  }
  const Plan plan = MakePlan(w, args.seed, args.seconds, n);
  WarmUp(*served, plan, tracer);
  setup_seconds.push_back(served->setup_seconds);
  build_seconds.push_back(served->build_seconds);
  asti::GraphCatalog& catalog = *served->catalog;
  asti::SeedMinEngine& engine = *served->engine;

  std::vector<Record> records(plan.requests.size());
  std::vector<SwapRecord> swaps;
  std::vector<asti::EdgeDelta> deltas;
  Window window;
  const double ready_rss_mb = StatusMb("VmRSS");
  if (w.arrival_rate > 0) {
    ServeOpen(w, plan, catalog, engine, tracer, records, window, swaps, deltas);
  } else {
    ServeClosed(plan, engine, tracer, records, window);
  }
  window.after = SampleProcess();
  window.end = 0;
  for (size_t i = plan.lead_in; i < records.size(); ++i) {
    window.end = std::max(window.end, records[i].ready);
  }
  const double serving_rss_mb = StatusMb("VmRSS");
  const double peak_rss_mb = StatusMb("VmHWM");

  uint64_t cache_evictions = 0;
  int64_t cache_bytes = 0;
  const asti::MetricsSnapshot metrics = engine.metrics_snapshot();
  for (const auto& counter : metrics.counters) {
    if (counter.name == "asti_sampler_cache_evictions_total") cache_evictions += counter.value;
  }
  for (const auto& gauge : metrics.gauges) {
    if (gauge.name == "asti_sampler_cache_bytes") cache_bytes += gauge.value;
  }

  Digest result_digest;
  for (const Record& r : records) {
    result_digest.Add(static_cast<uint64_t>(r.status));
    result_digest.Add(r.epoch);
    result_digest.Add(r.result_digest);
  }

  std::map<std::string, double> probes;
  if (args.trace) {
    std::vector<NodeId> etas;
    for (const auto& request : plan.requests) etas.push_back(request.eta);
    std::nth_element(etas.begin(), etas.begin() + etas.size() / 2, etas.end());
    std::vector<double> extended;
    for (const Record& r : served->warmup) {
      extended.push_back(static_cast<double>(r.profile.sets_extended));
    }
    const asti::GraphRef final_ref = Expect(catalog.Get(kGraphName), "resolve graph");
    probes = RunProbes(w, final_ref.graph(), etas[etas.size() / 2],
                       std::max<size_t>(1, static_cast<size_t>(MedianOf(extended))),
                       args.seed, tracer);
  }
  const Gates gates = CheckResults(w, plan, records, deltas, catalog);
  const std::vector<Record> warmup = served->warmup;
  served.reset();
  for (size_t k = 1; k < kSetups; ++k) {
    Served extra = Build(w, tracer);
    WarmUp(extra, plan, tracer);
    setup_seconds.push_back(extra.setup_seconds);
    build_seconds.push_back(extra.build_seconds);
  }

  std::ofstream file(args.out);
  if (!file) Fail("cannot write " + args.out);
  JsonOut json(file);
  json.Open();
  json.Field("workload", w.name);
  json.Field("seed", static_cast<double>(args.seed));
  json.Field("hardware_threads", static_cast<double>(std::thread::hardware_concurrency()));
  json.Field("n", static_cast<double>(n));
  json.Field("m", static_cast<double>(m));
  json.Field("graph_digest", Hex(graph_digest));
  json.Field("requests_digest", Hex(plan.digest));
  json.Field("result_digest", Hex(result_digest.value()));
  json.Key("setup_s");
  WriteArray(file, setup_seconds, [&](double v) { file << v; });
  json.Key("graph_build_s");
  WriteArray(file, build_seconds, [&](double v) { file << v; });
  json.Field("window_start", window.start);
  json.Field("window_end", window.end);
  json.Field("cpu_s", window.after.cpu - window.before.cpu);
  json.Field("steal_s", window.after.steal - window.before.steal);
  json.Field("ready_rss_mb", ready_rss_mb);
  json.Field("serving_rss_mb", serving_rss_mb);
  json.Field("peak_rss_mb", peak_rss_mb);
  json.Field("cache_evictions", static_cast<double>(cache_evictions));
  json.Field("cache_bytes", static_cast<double>(cache_bytes));
  json.Key("swap_at");  // indices into "requests", the timed records
  WriteArray(file, plan.swap_at, [&](size_t v) { file << v - plan.lead_in; });
  json.Key("swaps");
  WriteArray(file, swaps, [&](const SwapRecord& s) {
    file << '[' << s.index << ',' << s.make_seconds << ',' << s.apply_seconds << ','
         << s.swap_seconds << ']';
  });
  json.Key("record_fields");
  file << kRecordFields;
  json.Key("warmup");
  WriteRecords(file, warmup, plan.warmup, 0, warmup.size());
  json.Key("leadin");
  WriteRecords(file, records, plan.requests, 0, plan.lead_in);
  json.Key("requests");
  WriteRecords(file, records, plan.requests, plan.lead_in, records.size());
  json.Key("gates");
  json.Open();
  json.Field("solo_checked", static_cast<double>(gates.solo_checked));
  json.Field("solo_mismatches", static_cast<double>(gates.solo_mismatches));
  json.Field("replay_checked", gates.replay_checked ? 1.0 : 0.0);
  json.Field("replay_ok", gates.replay_ok ? 1.0 : 0.0);
  json.Field("detail", gates.detail);
  json.Close();
  json.Key("probes");
  json.Open();
  for (const auto& [name, value] : probes) json.Field(name.c_str(), value);
  json.Close();
  json.Key("spans");
  WriteArray(file, tracer.spans(), [&](const Span& s) {
    file << '[' << s.id << ',' << s.parent << ',' << s.request << ",\"" << s.name << "\","
         << s.start << ',' << s.end << ']';
  });
  json.Close();
  file << '\n';
  if (!file) Fail("failed writing " + args.out);
  return 0;
}
