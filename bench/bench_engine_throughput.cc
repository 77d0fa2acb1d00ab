// SeedMinEngine serving throughput: queries/s vs concurrent drivers, an
// admission-saturation measurement, and a multi-graph mixed-workload
// phase over the GraphCatalog.
//
// Not a paper figure — measures the src/api/ serving front. One resident
// engine (catalog + shared pool + admission queue) serves Q
// mixed-algorithm SolveRequests at each requested driver concurrency: all
// requests are submitted up front and the engine's fixed driver pool is
// the concurrency bound (no per-request threads since the admission
// rework). Each request's RNG streams derive from its own seed, so the
// per-request results — and therefore the cross-client determinism
// checksum printed per row — must be identical at every concurrency
// level; the binary exits non-zero on a mismatch, like
// bench_parallel_scaling.
//
// The saturation phase rebuilds the engine with a deliberately tiny
// admission capacity and rejection (non-blocking) policy, bursts every
// query at it, and reports admitted/rejected counts — the backpressure a
// real traffic front sees — re-checking that every admitted result is
// bit-identical to its unsaturated run.
//
// The hot-repeat phase runs the same query set twice on one resident
// engine: the cold pass seeds the per-(graph, epoch) sampler cache, the
// warm pass reads its sealed prefixes. It reports cold vs warm queries/s
// and the warm cache hit rate, and re-checks that warm results are
// bit-identical to cold ones (the certified-reuse contract).
//
// The cold-start phase writes the main graph to disk twice — a legacy
// ASMG v1 edge file and an ASMS snapshot (src/store/) — and times both
// registration paths into fresh catalogs: ASMG pays an O(m) parse plus
// reverse-CSR rebuild, the snapshot registers by mmap with O(sections)
// structural validation, so its time stays flat as the graph grows. It
// also measures time-to-first-solve each way and a warm start: sealed RR
// prefixes saved by a seeded engine are adopted by a process-fresh
// engine built from the file alone, which must reproduce the reference
// results bit-for-bit while hitting the adopted cache.
//
// The mixed-workload phase routes one request stream round-robin across
// the --graphs catalog entries on ONE engine, reports per-graph queries/s,
// and re-checks the multi-tenant determinism contract: each result must be
// bit-identical to its solo run on the same snapshot, even while an
// unrelated graph is hot-swapped (GraphCatalog::Swap) mid-workload.
//
// The churn phase is the production load harness for dynamic graphs
// (src/delta/): an OPEN-LOOP trace — Poisson arrivals submitted on
// schedule regardless of completions, so queueing is visible instead of
// absorbed by a closed loop — runs against one engine while a churner
// thread mints new epochs mid-run (MakeRandomDelta + SwapWithDelta).
// In-flight requests finish on their pinned epochs; the phase reports
// request p50/p99/p999 from the engine's histograms, the swap-blackout
// quantiles (wall time inside GraphCatalog::Swap), and checks that the
// post-churn catalog graph is DIGEST-IDENTICAL to replaying the same
// deltas through the from-scratch GraphBuilder rebuild path.
//
//   --clients 1,2,4,8     driver-concurrency levels to sweep
//   --queries 24          requests per level
//   --threads 0           engine pool size (0 = all cores, 1 = sequential)
//   --drivers 0           driver threads (0 = match the client level)
//   --queue-depth 64      waiting-room slots beyond the drivers
//   --sat-drivers 2       saturation phase: driver threads
//   --sat-queue 4         saturation phase: waiting-room slots
//   --graph bench-a       catalog graph for the sweep/saturation phases
//   --graphs bench-a,bench-b
//                         graphs for the mixed-workload phase; built-in
//                         dataset names register their surrogates on demand
//   --churn-queries Q     churn phase: open-loop arrivals (default --queries)
//   --churn-deltas D      churn phase: epoch-minting deltas applied mid-run
//                         (default 3)
//   --churn-rate R        churn phase: offered arrival rate in queries/s
//                         (default: the hot-repeat cold rate, floor 1)
//   --eta-fraction 0.05   per-request threshold
//   --snapshot-dir DIR    where the cold-start phase writes its temp
//                         graph files (default: system temp dir)
//   --scale 1.0           graph size multiplier
//   --model ic|lt
//   --json PATH           machine-readable results (CI artifact)
//   --metrics-out PATH    dump the mixed-phase engine's metrics snapshot
//                         in Prometheus text format (CI artifact)
//
// Latency columns (p50/p99/p999 per level, per-graph queue wait, and the
// hot-swap blackout) come from the engine's metrics_snapshot() histograms
// — the same numbers a production scrape would see — not from bench-side
// timing.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/graph_catalog.h"
#include "api/seedmin_engine.h"
#include "api/snapshot_serving.h"
#include "delta/apply.h"
#include "delta/catalog_delta.h"
#include "delta/churn.h"
#include "benchutil/cli.h"
#include "benchutil/table.h"
#include "benchutil/timer.h"
#include "graph/binary_io.h"
#include "graph/generators.h"
#include "obs/export.h"
#include "obs/histogram.h"
#include "store/snapshot_store.h"
#include "util/check.h"

namespace asti {
namespace {

// Order-sensitive digest over one request's observable outcome, including
// the snapshot identity the engine reports back.
uint64_t OneResultChecksum(const SolveResult& result) {
  uint64_t digest = 0xcbf29ce484222325ULL;
  auto mix = [&digest](uint64_t word) {
    word *= 0x100000001b3ULL;
    digest ^= word + (digest << 6) + (digest >> 2);
  };
  for (const AdaptiveRunTrace& trace : result.traces) {
    for (NodeId seed : trace.seeds) mix(seed);
    mix(trace.total_activated);
  }
  for (size_t count : result.seed_counts) mix(count);
  mix(result.graph_epoch);
  for (char c : result.graph_name) mix(static_cast<uint64_t>(c));
  return digest;
}

// Combined digest across every request, in request order.
uint64_t BatchChecksum(const std::vector<uint64_t>& per_request) {
  uint64_t digest = 0x84222325cbf29ce4ULL;
  for (uint64_t word : per_request) {
    word *= 0x100000001b3ULL;
    digest ^= word + (digest << 6) + (digest >> 2);
  }
  return digest;
}

struct LevelRow {
  size_t clients = 0;
  size_t drivers = 0;
  double rate = 0.0;
  double speedup = 1.0;
  uint64_t checksum = 0;
  // Request-latency quantiles from the engine's metrics histograms, in
  // seconds (merged across all (graph, algorithm) label sets).
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

struct MixedGraphRow {
  std::string name;
  size_t queries = 0;
  double rate = 0.0;
  uint64_t checksum = 0;
  // Queue-wait quantiles for requests routed to this graph, in seconds.
  double queue_p50 = 0.0;
  double queue_p99 = 0.0;
};

constexpr double kNanos = 1e-9;

// Quantile of a merged nanosecond histogram, in seconds.
double QuantileSeconds(const HistogramData& data, double q) {
  return data.Count() == 0 ? 0.0 : static_cast<double>(data.Quantile(q)) * kNanos;
}

}  // namespace
}  // namespace asti

int main(int argc, char** argv) {
  using namespace asti;
  const CommandLine cli(argc, argv);
  const double scale = EnvDouble("ASM_BENCH_SCALE", cli.GetDouble("scale", 1.0));
  const size_t queries = EnvSize("ASM_BENCH_QUERIES",
                                 static_cast<size_t>(cli.GetInt("queries", 24)));
  ASM_CHECK(queries >= 1) << "--queries must be >= 1";
  const uint64_t seed = static_cast<uint64_t>(cli.GetInt("seed", 7));
  const DiffusionModel model = cli.GetString("model", "ic") == "lt"
                                   ? DiffusionModel::kLinearThreshold
                                   : DiffusionModel::kIndependentCascade;
  const std::vector<size_t> client_counts =
      ParseSizeList(cli.GetString("clients", "1,2,4,8"), "--clients", 1);
  const size_t pool_threads = NumThreadsOverride(cli, 0);
  // Guarded casts: a negative flag must fail readably, not wrap to ~2^64
  // drivers/slots and crash the engine constructor.
  auto count_flag = [&cli](const char* name, int64_t fallback) {
    const int64_t value = cli.GetInt(name, fallback);
    ASM_CHECK(value >= 0) << "--" << name << " must be >= 0, got " << value;
    return static_cast<size_t>(value);
  };
  const size_t drivers_override = count_flag("drivers", 0);
  const size_t queue_depth = count_flag("queue-depth", 64);
  const size_t sat_drivers = count_flag("sat-drivers", 2);
  const size_t sat_queue = count_flag("sat-queue", 4);
  const std::string json_path = cli.GetString("json", "");
  const double eta_fraction = cli.GetDouble("eta-fraction", 0.05);
  // Shared --graph/--graphs parsing (benchutil/cli).
  const GraphFlagSelection graph_flags =
      ParseGraphFlags(cli, "bench-a", "bench-a,bench-b");

  // The serving catalog. Two built-in power-law generator graphs (the
  // regime of the paper's datasets) with different structure seeds;
  // further names requested via --graph/--graphs register the matching
  // dataset surrogate on demand.
  GraphCatalog catalog;
  {
    Rng rng_a(seed);
    auto bench_a =
        BuildWeightedGraph(MakeChungLu(static_cast<NodeId>(8000 * scale),
                                       static_cast<size_t>(48000 * scale), 2.1, rng_a),
                           WeightScheme::kWeightedCascade);
    ASM_CHECK(bench_a.ok()) << bench_a.status().ToString();
    ASM_CHECK(catalog.Register("bench-a", std::move(bench_a).value()).ok());
    Rng rng_b(seed + 1);
    auto bench_b =
        BuildWeightedGraph(MakeChungLu(static_cast<NodeId>(6000 * scale),
                                       static_cast<size_t>(30000 * scale), 2.3, rng_b),
                           WeightScheme::kWeightedCascade);
    ASM_CHECK(bench_b.ok()) << bench_b.status().ToString();
    ASM_CHECK(catalog.Register("bench-b", std::move(bench_b).value()).ok());
  }
  auto ensure_graph = [&catalog, scale, seed](const std::string& name) -> GraphRef {
    if (auto ref = catalog.Get(name); ref.ok()) return *ref;
    auto id = DatasetIdFromName(name);
    ASM_CHECK(id.ok()) << "--graph(s) name '" << name
                       << "' is neither a registered bench graph nor a built-in "
                          "dataset: " << id.status().ToString();
    // Dataset names are case-insensitive but register under the canonical
    // lowercase spelling — look that up before registering so resolving
    // the same dataset twice reuses the entry instead of colliding.
    if (auto ref = catalog.Get(CanonicalDatasetName(*id)); ref.ok()) return *ref;
    auto registered = RegisterSurrogate(catalog, *id, scale, seed);
    ASM_CHECK(registered.ok()) << registered.status().ToString();
    return *registered;
  };
  auto eta_for = [eta_fraction](const GraphRef& ref) {
    return std::max<NodeId>(1, static_cast<NodeId>(eta_fraction *
                                                   static_cast<double>(ref.num_nodes())));
  };

  const GraphRef main_graph = ensure_graph(graph_flags.graph);
  const NodeId eta = eta_for(main_graph);

  // The request mix: the TRIM family plus the degree heuristic, each query
  // with its own seed (query i is reproducible in isolation).
  const AlgorithmId mix[] = {AlgorithmId::kAsti, AlgorithmId::kAsti4,
                             AlgorithmId::kDegree};
  std::vector<SolveRequest> requests;
  for (size_t i = 0; i < queries; ++i) {
    SolveRequest request;
    request.graph = main_graph.name();
    request.algorithm = mix[i % (sizeof(mix) / sizeof(mix[0]))];
    request.model = model;
    request.eta = eta;
    request.seed = seed + 1000 + i;
    request.keep_traces = true;  // checksummed
    requests.push_back(request);
  }

  std::cout << "SeedMinEngine serving throughput on catalog graph '"
            << main_graph.name() << "' (n=" << main_graph.num_nodes()
            << ", m=" << main_graph.num_edges()
            << ", model=" << DiffusionModelName(model) << ", eta=" << eta
            << ", queries/level=" << queries << ", pool threads="
            << (pool_threads == 0 ? std::string("hw") : std::to_string(pool_threads))
            << ", queue depth=" << queue_depth << ")\n\n";

  TextTable table({"clients", "drivers", "queries/s", "speedup", "p50 ms",
                   "p99 ms", "p999 ms", "checksum"});
  std::vector<LevelRow> rows;
  std::vector<uint64_t> reference_digests;  // per request, from level 1
  double base_rate = 0.0;
  uint64_t reference_checksum = 0;
  bool deterministic = true;
  for (size_t clients : client_counts) {
    // The engine's driver pool IS the concurrency under test: D drivers
    // execute admitted requests, blocking admission absorbs the rest.
    SeedMinEngine::ServingOptions options;
    options.num_threads = pool_threads;
    options.num_drivers = drivers_override != 0 ? drivers_override : clients;
    options.max_queue_depth = std::max(queue_depth, queries);  // never reject here
    options.block_when_full = true;
    SeedMinEngine engine(catalog, options);

    WallTimer timer;
    std::vector<std::future<StatusOr<SolveResult>>> futures;
    futures.reserve(requests.size());
    for (const SolveRequest& request : requests) {
      futures.push_back(engine.SubmitAsync(request));
    }
    std::vector<uint64_t> digests;
    digests.reserve(futures.size());
    for (auto& future : futures) {
      const StatusOr<SolveResult> solved = future.get();
      ASM_CHECK(solved.ok()) << solved.status().ToString();
      digests.push_back(OneResultChecksum(*solved));
    }
    const double seconds = timer.Seconds();

    // End-to-end request latency as the engine's own histograms saw it,
    // merged across all (graph, algorithm) label sets of this level.
    const MetricsSnapshot snapshot = engine.metrics_snapshot();
    const HistogramData latency =
        snapshot.MergedHistogram("asti_request_latency_seconds");

    const uint64_t checksum = BatchChecksum(digests);
    if (reference_digests.empty()) {
      reference_digests = digests;
      reference_checksum = checksum;
    }
    deterministic = deterministic && checksum == reference_checksum;
    const double rate = static_cast<double>(queries) / seconds;
    if (base_rate == 0.0) base_rate = rate;
    LevelRow row;
    row.clients = clients;
    row.drivers = options.num_drivers;
    row.rate = rate;
    row.speedup = rate / base_rate;
    row.checksum = checksum;
    row.p50 = QuantileSeconds(latency, 0.50);
    row.p99 = QuantileSeconds(latency, 0.99);
    row.p999 = QuantileSeconds(latency, 0.999);
    rows.push_back(row);
    table.AddRow({std::to_string(clients), std::to_string(row.drivers),
                  FormatDouble(rate, 1), FormatDouble(row.speedup) + "x",
                  FormatDouble(row.p50 * 1e3), FormatDouble(row.p99 * 1e3),
                  FormatDouble(row.p999 * 1e3),
                  std::to_string(checksum % 1000000)});
  }
  table.Print(std::cout);
  std::cout << "\nResult checksum identical across client counts: "
            << (deterministic ? "yes" : "NO — determinism violated") << "\n";

  // --- Saturation: burst everything at a tiny rejecting queue ------------
  SeedMinEngine::ServingOptions sat_options;
  sat_options.num_threads = pool_threads;
  sat_options.num_drivers = sat_drivers;
  sat_options.max_queue_depth = sat_queue;
  sat_options.block_when_full = false;  // rejection is the point
  size_t admitted = 0;
  size_t rejected = 0;
  bool admitted_match_reference = true;
  {
    SeedMinEngine engine(catalog, sat_options);
    std::vector<std::future<StatusOr<SolveResult>>> futures;
    futures.reserve(requests.size());
    for (const SolveRequest& request : requests) {
      futures.push_back(engine.SubmitAsync(request));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      const StatusOr<SolveResult> solved = futures[i].get();
      if (solved.ok()) {
        ++admitted;
        admitted_match_reference = admitted_match_reference &&
                                   OneResultChecksum(*solved) == reference_digests[i];
      } else {
        ASM_CHECK(solved.status().code() == StatusCode::kResourceExhausted)
            << solved.status().ToString();
        ++rejected;
      }
    }
    const SeedMinEngine::EngineStats stats = engine.admission_stats();
    ASM_CHECK(stats.queue.rejected == rejected);
  }
  const size_t capacity = sat_drivers + sat_queue;
  std::cout << "\nSaturation burst (" << queries << " submissions at capacity "
            << capacity << " = " << sat_drivers << " drivers + " << sat_queue
            << " queue slots): " << admitted << " admitted, " << rejected
            << " rejected (ResourceExhausted)\n"
            << "Admitted results bit-identical to unsaturated runs: "
            << (admitted_match_reference ? "yes" : "NO — determinism violated")
            << "\n";
  deterministic = deterministic && admitted_match_reference;

  // --- Hot repeat: cold vs warm sampler cache on one resident engine ------
  // The same query set twice on ONE engine: the first pass pays the
  // full-residual sampling and seeds the per-graph sampler cache, the
  // second rides its sealed prefixes. Reported: queries/s cold vs warm,
  // and the warm pass's cache hit rate among cache-using requests (the
  // degree heuristic never samples). Results must be bit-identical across
  // the two passes — that is the certified-reuse contract.
  double cold_rate = 0.0;
  double warm_rate = 0.0;
  double warm_hit_rate = 0.0;
  size_t warm_cache_users = 0;
  bool repeat_deterministic = true;
  {
    SeedMinEngine::ServingOptions options;
    options.num_threads = pool_threads;
    options.num_drivers =
        drivers_override != 0 ? drivers_override : client_counts.back();
    options.max_queue_depth = std::max(queue_depth, queries);
    options.block_when_full = true;
    SeedMinEngine engine(catalog, options);
    size_t warm_hits = 0;
    auto pass = [&](bool warm) -> double {
      WallTimer timer;
      std::vector<std::future<StatusOr<SolveResult>>> futures;
      futures.reserve(requests.size());
      for (const SolveRequest& request : requests) {
        futures.push_back(engine.SubmitAsync(request));
      }
      for (size_t i = 0; i < futures.size(); ++i) {
        const StatusOr<SolveResult> solved = futures[i].get();
        ASM_CHECK(solved.ok()) << solved.status().ToString();
        repeat_deterministic = repeat_deterministic &&
                               OneResultChecksum(*solved) == reference_digests[i];
        if (warm) {
          const RequestProfile& profile = solved->profile;
          if (profile.sets_reused + profile.sets_extended > 0) {
            ++warm_cache_users;
            if (profile.cache_hit) ++warm_hits;
          }
        }
      }
      return static_cast<double>(queries) / timer.Seconds();
    };
    cold_rate = pass(/*warm=*/false);
    warm_rate = pass(/*warm=*/true);
    warm_hit_rate = warm_cache_users == 0
                        ? 0.0
                        : static_cast<double>(warm_hits) /
                              static_cast<double>(warm_cache_users);
  }
  std::cout << "\nHot repeat on one engine (sampler cache cold -> warm): "
            << FormatDouble(cold_rate, 1) << " -> " << FormatDouble(warm_rate, 1)
            << " queries/s (" << FormatDouble(warm_rate / cold_rate) << "x), warm "
               "hit rate "
            << FormatDouble(warm_hit_rate) << " over " << warm_cache_users
            << " cache-using queries\n"
            << "Warm results bit-identical to cold runs: "
            << (repeat_deterministic ? "yes" : "NO — determinism violated") << "\n";
  deterministic = deterministic && repeat_deterministic;

  // --- Cold start: parse-register vs mmap-register from disk --------------
  // The main graph goes to disk twice: a legacy ASMG v1 edge file and an
  // ASMS snapshot. Registering from the ASMG file pays an O(m) parse plus
  // the reverse-CSR rebuild; RegisterSnapshotFile maps the ASMS file,
  // validates O(sections) structurally and reads in_offsets/in_probs once
  // (the graph derives uniform in-probabilities), with no parse or rebuild.
  // Both paths are timed as min-over-repeats (registration only) and as
  // time-to-first-solve (registration + one query on a fresh engine), and
  // the mmap-backed result must be bit-identical to the heap-backed
  // reference digest. The warm-start leg then saves a snapshot WITH the
  // sealed RR prefixes of a seeded engine, reopens it in a fresh
  // catalog+engine, and reruns the whole query set: results must match the
  // reference digests while the first pass rides the adopted prefixes.
  double parse_register_s = std::numeric_limits<double>::infinity();
  double mmap_register_s = std::numeric_limits<double>::infinity();
  double parse_first_solve_s = 0.0;
  double mmap_first_solve_s = 0.0;
  double warm_start_hit_rate = 0.0;
  size_t warm_start_cache_users = 0;
  uint64_t warm_sets_adopted = 0;
  bool cold_start_deterministic = true;
  {
    const std::filesystem::path snapshot_dir =
        cli.Has("snapshot-dir")
            ? std::filesystem::path(cli.GetString("snapshot-dir", ""))
            : std::filesystem::temp_directory_path() / "asti_bench_cold_start";
    std::filesystem::create_directories(snapshot_dir);
    const std::string asmg_path = (snapshot_dir / "cold-start.asmg").string();
    const std::string asms_path = (snapshot_dir / "cold-start.asms").string();
    const std::string warm_path = (snapshot_dir / "cold-start-warm.asms").string();
    ASM_CHECK(SaveGraphBinary(main_graph.graph(), asmg_path).ok());
    {
      const Status saved =
          store::WriteSnapshot(main_graph.graph(), main_graph.name(),
                               main_graph.weight_scheme(), {}, asms_path);
      ASM_CHECK(saved.ok()) << saved.ToString();
    }

    // Registration only, min over repeats (denoises fs cache warmup).
    constexpr int kColdRepeats = 5;
    for (int repeat = 0; repeat < kColdRepeats; ++repeat) {
      {
        GraphCatalog fresh;
        WallTimer timer;
        auto loaded = LoadGraphBinary(asmg_path);
        ASM_CHECK(loaded.ok()) << loaded.status().ToString();
        ASM_CHECK(fresh.Register(main_graph.name(), std::move(*loaded),
                                 main_graph.weight_scheme())
                      .ok());
        parse_register_s = std::min(parse_register_s, timer.Seconds());
      }
      {
        GraphCatalog fresh;
        WallTimer timer;
        const auto registered = RegisterSnapshotFile(fresh, asms_path);
        ASM_CHECK(registered.ok()) << registered.status().ToString();
        mmap_register_s = std::min(mmap_register_s, timer.Seconds());
      }
    }

    // Time-to-first-solve: register + one query on a fresh engine. The
    // mmap path's result is checked against the heap-backed reference.
    auto first_solve = [&](bool use_mmap) {
      GraphCatalog fresh;
      WallTimer timer;
      if (use_mmap) {
        const auto registered = RegisterSnapshotFile(fresh, asms_path);
        ASM_CHECK(registered.ok()) << registered.status().ToString();
      } else {
        auto loaded = LoadGraphBinary(asmg_path);
        ASM_CHECK(loaded.ok()) << loaded.status().ToString();
        ASM_CHECK(fresh.Register(main_graph.name(), std::move(*loaded),
                                 main_graph.weight_scheme())
                      .ok());
      }
      SeedMinEngine::ServingOptions options;
      options.num_threads = pool_threads;
      SeedMinEngine engine(fresh, options);
      const StatusOr<SolveResult> solved = engine.Solve(requests.front());
      ASM_CHECK(solved.ok()) << solved.status().ToString();
      const double seconds = timer.Seconds();
      cold_start_deterministic =
          cold_start_deterministic &&
          OneResultChecksum(*solved) == reference_digests.front();
      return seconds;
    };
    parse_first_solve_s = first_solve(/*use_mmap=*/false);
    mmap_first_solve_s = first_solve(/*use_mmap=*/true);

    // Warm start: seed a cache, persist its sealed prefixes, adopt them in
    // a process-fresh catalog+engine built from the file alone.
    {
      GraphCatalog seeding_catalog;
      const auto registered = RegisterSnapshotFile(seeding_catalog, asms_path);
      ASM_CHECK(registered.ok()) << registered.status().ToString();
      SeedMinEngine::ServingOptions options;
      options.num_threads = pool_threads;
      SeedMinEngine seeding_engine(seeding_catalog, options);
      for (const SolveRequest& request : requests) {
        const StatusOr<SolveResult> solved = seeding_engine.Solve(request);
        ASM_CHECK(solved.ok()) << solved.status().ToString();
      }
      const Status saved =
          seeding_engine.SaveSnapshot(main_graph.name(), warm_path);
      ASM_CHECK(saved.ok()) << saved.ToString();
    }
    {
      GraphCatalog warm_catalog;
      const auto registered = RegisterSnapshotFile(warm_catalog, warm_path);
      ASM_CHECK(registered.ok()) << registered.status().ToString();
      SeedMinEngine::ServingOptions options;
      options.num_threads = pool_threads;
      SeedMinEngine engine(warm_catalog, options);
      size_t warm_hits = 0;
      for (size_t i = 0; i < requests.size(); ++i) {
        const StatusOr<SolveResult> solved = engine.Solve(requests[i]);
        ASM_CHECK(solved.ok()) << solved.status().ToString();
        cold_start_deterministic = cold_start_deterministic &&
                                   OneResultChecksum(*solved) ==
                                       reference_digests[i];
        const RequestProfile& profile = solved->profile;
        if (profile.sets_reused + profile.sets_extended > 0) {
          ++warm_start_cache_users;
          if (profile.cache_hit) ++warm_hits;
        }
      }
      warm_start_hit_rate = warm_start_cache_users == 0
                                ? 0.0
                                : static_cast<double>(warm_hits) /
                                      static_cast<double>(warm_start_cache_users);
      const MetricsSnapshot warm_metrics = engine.metrics_snapshot();
      for (const CounterSample& counter : warm_metrics.counters) {
        if (counter.name == "asti_sampler_cache_sets_adopted_total") {
          warm_sets_adopted += counter.value;
        }
      }
    }
    std::filesystem::remove(asmg_path);
    std::filesystem::remove(asms_path);
    std::filesystem::remove(warm_path);
  }
  std::cout << "\nCold start (register '" << main_graph.name()
            << "' from disk, min of 5): parse+rebuild "
            << FormatDouble(parse_register_s * 1e3) << "ms vs mmap "
            << FormatDouble(mmap_register_s * 1e3) << "ms ("
            << FormatDouble(mmap_register_s > 0.0
                                ? parse_register_s / mmap_register_s
                                : 0.0)
            << "x); first solve " << FormatDouble(parse_first_solve_s * 1e3)
            << "ms vs " << FormatDouble(mmap_first_solve_s * 1e3) << "ms\n"
            << "Warm start from persisted prefixes: hit rate "
            << FormatDouble(warm_start_hit_rate) << " over "
            << warm_start_cache_users << " cache-using queries, "
            << warm_sets_adopted << " sets adopted\n"
            << "Snapshot-served results bit-identical to heap-backed runs: "
            << (cold_start_deterministic ? "yes" : "NO — determinism violated")
            << "\n";
  deterministic = deterministic && cold_start_deterministic;

  // --- Mixed workload: one engine, many graphs, hot-swap under load ------
  const std::vector<std::string>& mixed_names = graph_flags.graphs;
  std::vector<GraphRef> mixed_refs;
  mixed_refs.reserve(mixed_names.size());
  for (const std::string& name : mixed_names) mixed_refs.push_back(ensure_graph(name));

  std::vector<SolveRequest> mixed_requests;
  for (size_t i = 0; i < queries; ++i) {
    const GraphRef& ref = mixed_refs[i % mixed_refs.size()];
    SolveRequest request;
    request.graph = ref.name();
    request.algorithm = mix[i % (sizeof(mix) / sizeof(mix[0]))];
    request.model = model;
    request.eta = eta_for(ref);
    request.seed = seed + 5000 + i;
    request.keep_traces = true;
    mixed_requests.push_back(request);
  }

  // Solo reference pass: every mixed request on its own, no interleaving.
  std::vector<uint64_t> mixed_solo;
  {
    SeedMinEngine::ServingOptions options;
    options.num_threads = pool_threads;
    SeedMinEngine engine(catalog, options);
    for (const SolveRequest& request : mixed_requests) {
      const StatusOr<SolveResult> solved = engine.Solve(request);
      ASM_CHECK(solved.ok()) << solved.status().ToString();
      mixed_solo.push_back(OneResultChecksum(*solved));
    }
  }

  // Interleaved pass on one multi-tenant engine, with an unrelated graph
  // being hot-swapped while the workload drains: the pinned-snapshot
  // contract says no result may move.
  size_t hot_swap_epochs = 0;
  std::map<std::string, MixedGraphRow> per_graph;
  bool mixed_deterministic = true;
  // Wall time each GraphCatalog::Swap holds the workload's attention: the
  // "blackout" during which a lookup of the swapped name could observe
  // neither the old epoch retired nor the new one published. Recorded in
  // an obs histogram so the same merge/quantile path as the engine metrics
  // reports it.
  LogHistogram swap_blackout;
  MetricsSnapshot mixed_snapshot;
  {
    Rng hot_rng(seed + 99);
    auto hot = BuildWeightedGraph(
        MakeChungLu(std::max<NodeId>(64, static_cast<NodeId>(500 * scale)),
                    std::max<size_t>(128, static_cast<size_t>(2000 * scale)), 2.1,
                    hot_rng),
        WeightScheme::kWeightedCascade);
    ASM_CHECK(hot.ok()) << hot.status().ToString();
    ASM_CHECK(catalog.Register("hot-swap-target", std::move(*hot)).ok());

    SeedMinEngine::ServingOptions options;
    options.num_threads = pool_threads;
    options.num_drivers =
        drivers_override != 0 ? drivers_override : client_counts.back();
    options.max_queue_depth = std::max(queue_depth, queries);
    options.block_when_full = true;
    SeedMinEngine engine(catalog, options);

    WallTimer timer;
    std::vector<std::future<StatusOr<SolveResult>>> futures;
    futures.reserve(mixed_requests.size());
    for (const SolveRequest& request : mixed_requests) {
      futures.push_back(engine.SubmitAsync(request));
    }
    // Swap the unrelated graph a few times while requests are in flight.
    for (size_t swap = 0; swap < 3; ++swap) {
      Rng swap_rng(seed + 200 + swap);
      auto replacement = BuildWeightedGraph(
          MakeChungLu(std::max<NodeId>(64, static_cast<NodeId>(500 * scale)),
                      std::max<size_t>(128, static_cast<size_t>(2000 * scale)), 2.1,
                      swap_rng),
          WeightScheme::kWeightedCascade);
      ASM_CHECK(replacement.ok()) << replacement.status().ToString();
      WallTimer swap_timer;
      const auto swapped =
          catalog.Swap("hot-swap-target", std::move(*replacement));
      swap_blackout.Record(static_cast<uint64_t>(swap_timer.Seconds() / kNanos));
      ASM_CHECK(swapped.ok()) << swapped.status().ToString();
      hot_swap_epochs = swapped->epoch();
    }
    std::vector<std::vector<uint64_t>> digests_by_graph;
    for (size_t i = 0; i < futures.size(); ++i) {
      const StatusOr<SolveResult> solved = futures[i].get();
      ASM_CHECK(solved.ok()) << solved.status().ToString();
      const uint64_t digest = OneResultChecksum(*solved);
      mixed_deterministic = mixed_deterministic && digest == mixed_solo[i];
      MixedGraphRow& row = per_graph[solved->graph_name];
      row.name = solved->graph_name;
      ++row.queries;
      row.checksum ^= digest;
    }
    const double seconds = timer.Seconds();
    mixed_snapshot = engine.metrics_snapshot();
    for (auto& [name, row] : per_graph) {
      row.rate = static_cast<double>(row.queries) / seconds;
      const HistogramData waits =
          mixed_snapshot.MergedHistogram("asti_queue_wait_seconds", "graph", name);
      row.queue_p50 = QuantileSeconds(waits, 0.50);
      row.queue_p99 = QuantileSeconds(waits, 0.99);
    }
    ASM_CHECK(catalog.Retire("hot-swap-target").ok());
  }

  std::cout << "\nMixed workload (" << queries << " queries round-robin over "
            << mixed_refs.size() << " graphs, one engine, "
            << hot_swap_epochs - 1 << " hot-swaps of an unrelated graph):\n";
  TextTable mixed_table({"graph", "queries", "queries/s", "queue p50 ms",
                         "queue p99 ms", "checksum"});
  for (const auto& [name, row] : per_graph) {
    mixed_table.AddRow({row.name, std::to_string(row.queries),
                        FormatDouble(row.rate, 1),
                        FormatDouble(row.queue_p50 * 1e3),
                        FormatDouble(row.queue_p99 * 1e3),
                        std::to_string(row.checksum % 1000000)});
  }
  mixed_table.Print(std::cout);
  const HistogramData blackout = swap_blackout.Snapshot();
  std::cout << "Hot-swap blackout (catalog.Swap wall time): max="
            << FormatDouble(static_cast<double>(blackout.MaxValue()) * kNanos * 1e3)
            << "ms p50="
            << FormatDouble(QuantileSeconds(blackout, 0.50) * 1e3)
            << "ms over " << blackout.Count() << " swaps\n";
  std::cout << "Mixed results bit-identical to solo runs (per pinned "
               "snapshot): "
            << (mixed_deterministic ? "yes" : "NO — determinism violated") << "\n";
  deterministic = deterministic && mixed_deterministic;

  // --- Churn: open-loop arrivals against a graph minting new epochs -------
  // The main snapshot serves under the name "churn" in a fresh catalog
  // while a churner thread applies random EdgeDelta batches through
  // SwapWithDelta. Arrivals are open-loop Poisson: submission times come
  // from the trace clock, not from completions, so swap interference shows
  // up as latency instead of being hidden by a closed loop. Every request
  // must complete OK on whatever epoch it pinned at admission; the end
  // state must be digest-identical to replaying the same deltas through
  // ApplyDeltaByRebuild (the from-scratch GraphBuilder path).
  const size_t churn_queries =
      count_flag("churn-queries", static_cast<int64_t>(queries));
  const size_t churn_delta_count = count_flag("churn-deltas", 3);
  const double churn_rate_flag = cli.GetDouble("churn-rate", 0.0);
  size_t churn_deltas_applied = 0;
  size_t churn_inserted = 0;
  size_t churn_deleted = 0;
  size_t churn_reweighted = 0;
  bool churn_digest_match = false;
  bool churn_all_ok = true;
  double churn_offered_rate = 0.0;
  double churn_completed_rate = 0.0;
  double churn_p50 = 0.0;
  double churn_p99 = 0.0;
  double churn_p999 = 0.0;
  uint64_t churn_final_epoch = 0;
  LogHistogram churn_swap_blackout;
  LogHistogram churn_apply_time;
  {
    GraphCatalog churn_catalog;
    ASM_CHECK(churn_catalog
                  .Register("churn", main_graph.snapshot, main_graph.weight_scheme())
                  .ok());

    SeedMinEngine::ServingOptions options;
    options.num_threads = pool_threads;
    options.num_drivers =
        drivers_override != 0 ? drivers_override : client_counts.back();
    options.max_queue_depth = std::max(queue_depth, churn_queries);
    options.block_when_full = true;
    SeedMinEngine engine(churn_catalog, options);

    churn_offered_rate =
        churn_rate_flag > 0.0 ? churn_rate_flag : std::max(1.0, cold_rate);
    const double expected_seconds =
        static_cast<double>(churn_queries) / churn_offered_rate;

    // Churner thread: mint churn_delta_count epochs spaced across the
    // expected run, maintaining an independently-rebuilt reference graph.
    DirectedGraph reference = main_graph.graph();
    std::atomic<bool> churn_done{false};
    std::thread churner([&] {
      Rng delta_rng(seed + 4242);
      const auto gap = std::chrono::duration<double>(
          expected_seconds / static_cast<double>(churn_delta_count + 1));
      for (size_t i = 0; i < churn_delta_count && !churn_done.load(); ++i) {
        std::this_thread::sleep_for(gap);
        const auto current = churn_catalog.Get("churn");
        ASM_CHECK(current.ok()) << current.status().ToString();
        auto delta = MakeRandomDelta(current->graph(), ChurnSpec{}, delta_rng);
        ASM_CHECK(delta.ok()) << delta.status().ToString();
        const auto swapped = SwapWithDelta(churn_catalog, "churn", *delta);
        ASM_CHECK(swapped.ok()) << swapped.status().ToString();
        churn_swap_blackout.Record(
            static_cast<uint64_t>(swapped->swap_seconds / kNanos));
        churn_apply_time.Record(
            static_cast<uint64_t>(swapped->apply_seconds / kNanos));
        churn_inserted += swapped->stats.inserted;
        churn_deleted += swapped->stats.deleted;
        churn_reweighted += swapped->stats.reweighted;
        ++churn_deltas_applied;
        // The independent check path: same batch, from-scratch rebuild.
        auto rebuilt = ApplyDeltaByRebuild(reference, *delta);
        ASM_CHECK(rebuilt.ok()) << rebuilt.status().ToString();
        reference = std::move(rebuilt).value();
      }
    });

    // Open-loop arrival trace: exponential gaps at the offered rate, each
    // request submitted at its scheduled time whether or not earlier ones
    // finished.
    Rng arrival_rng(seed + 8888);
    std::vector<std::future<StatusOr<SolveResult>>> futures;
    futures.reserve(churn_queries);
    const auto trace_start = std::chrono::steady_clock::now();
    double arrival_offset = 0.0;
    WallTimer timer;
    for (size_t i = 0; i < churn_queries; ++i) {
      arrival_offset +=
          -std::log(1.0 - arrival_rng.NextDouble()) / churn_offered_rate;
      std::this_thread::sleep_until(
          trace_start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(arrival_offset)));
      SolveRequest request;
      request.graph = "churn";
      request.algorithm = mix[i % (sizeof(mix) / sizeof(mix[0]))];
      request.model = model;
      request.eta = eta;
      request.seed = seed + 9000 + i;
      futures.push_back(engine.SubmitAsync(request));
    }
    for (auto& future : futures) {
      const StatusOr<SolveResult> solved = future.get();
      churn_all_ok = churn_all_ok && solved.ok();
      if (!solved.ok()) {
        std::cerr << "churn request failed: " << solved.status().ToString() << "\n";
      }
    }
    churn_completed_rate = static_cast<double>(churn_queries) / timer.Seconds();
    churn_done.store(true);
    churner.join();

    const MetricsSnapshot snapshot = engine.metrics_snapshot();
    const HistogramData latency =
        snapshot.MergedHistogram("asti_request_latency_seconds");
    churn_p50 = QuantileSeconds(latency, 0.50);
    churn_p99 = QuantileSeconds(latency, 0.99);
    churn_p999 = QuantileSeconds(latency, 0.999);

    // Post-churn digest identity: the served graph (minted delta by delta)
    // against the reference (rebuilt from scratch per delta).
    const auto final_ref = churn_catalog.Get("churn");
    ASM_CHECK(final_ref.ok());
    churn_final_epoch = final_ref->epoch();
    churn_digest_match =
        ForwardCsrDigest(final_ref->graph()) == ForwardCsrDigest(reference);
  }
  const HistogramData churn_blackout = churn_swap_blackout.Snapshot();
  const HistogramData churn_apply = churn_apply_time.Snapshot();
  std::cout << "\nChurn (open-loop, " << churn_queries << " Poisson arrivals at "
            << FormatDouble(churn_offered_rate, 1) << "/s, " << churn_deltas_applied
            << " deltas -> epoch " << churn_final_epoch << ", +" << churn_inserted
            << " -" << churn_deleted << " ~" << churn_reweighted << " edges):\n"
            << "  completed " << FormatDouble(churn_completed_rate, 1)
            << " queries/s, latency p50=" << FormatDouble(churn_p50 * 1e3)
            << "ms p99=" << FormatDouble(churn_p99 * 1e3)
            << "ms p999=" << FormatDouble(churn_p999 * 1e3) << "ms\n"
            << "  swap blackout p50="
            << FormatDouble(QuantileSeconds(churn_blackout, 0.50) * 1e3) << "ms max="
            << FormatDouble(static_cast<double>(churn_blackout.MaxValue()) * kNanos *
                            1e3)
            << "ms (apply p50="
            << FormatDouble(QuantileSeconds(churn_apply, 0.50) * 1e3)
            << "ms, off the serving path)\n"
            << "  post-churn digest == from-scratch rebuild: "
            << (churn_digest_match ? "yes" : "NO — delta contract violated")
            << "; all requests completed: " << (churn_all_ok ? "yes" : "NO") << "\n";
  deterministic = deterministic && churn_digest_match && churn_all_ok;

  const std::string metrics_path = cli.GetString("metrics-out", "");
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    ASM_CHECK(out.good()) << "cannot open --metrics-out path " << metrics_path;
    out << ExportPrometheusText(mixed_snapshot);
    std::cout << "Mixed-phase metrics snapshot written to " << metrics_path << "\n";
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    ASM_CHECK(out.good()) << "cannot open --json path " << json_path;
    out << "{\n"
        << "  \"graph\": {\"name\": \"" << main_graph.name()
        << "\", \"nodes\": " << main_graph.num_nodes()
        << ", \"edges\": " << main_graph.num_edges() << "},\n"
        << "  \"model\": \"" << DiffusionModelName(model) << "\",\n"
        << "  \"eta\": " << eta << ",\n"
        << "  \"queries_per_level\": " << queries << ",\n"
        << "  \"pool_threads\": " << pool_threads << ",\n"
        << "  \"levels\": [";
    for (size_t i = 0; i < rows.size(); ++i) {
      out << (i == 0 ? "\n" : ",\n")
          << "    {\"clients\": " << rows[i].clients
          << ", \"drivers\": " << rows[i].drivers
          << ", \"queries_per_s\": " << rows[i].rate
          << ", \"speedup\": " << rows[i].speedup
          << ", \"latency_p50_s\": " << rows[i].p50
          << ", \"latency_p99_s\": " << rows[i].p99
          << ", \"latency_p999_s\": " << rows[i].p999
          << ", \"checksum\": " << rows[i].checksum << "}";
    }
    out << "\n  ],\n"
        << "  \"hot_repeat\": {\"cold_queries_per_s\": " << cold_rate
        << ", \"warm_queries_per_s\": " << warm_rate
        << ", \"warm_speedup\": " << (cold_rate > 0.0 ? warm_rate / cold_rate : 0.0)
        << ", \"warm_hit_rate\": " << warm_hit_rate
        << ", \"cache_using_queries\": " << warm_cache_users
        << ", \"deterministic\": " << (repeat_deterministic ? "true" : "false")
        << "},\n"
        << "  \"cold_start\": {\"parse_register_s\": " << parse_register_s
        << ", \"mmap_register_s\": " << mmap_register_s
        << ", \"parse_vs_mmap_ratio\": "
        << (mmap_register_s > 0.0 ? parse_register_s / mmap_register_s : 0.0)
        << ", \"parse_first_solve_s\": " << parse_first_solve_s
        << ", \"mmap_first_solve_s\": " << mmap_first_solve_s
        << ", \"warm_start_hit_rate\": " << warm_start_hit_rate
        << ", \"warm_cache_using_queries\": " << warm_start_cache_users
        << ", \"warm_sets_adopted\": " << warm_sets_adopted
        << ", \"deterministic\": " << (cold_start_deterministic ? "true" : "false")
        << "},\n"
        << "  \"saturation\": {\"capacity\": " << capacity
        << ", \"drivers\": " << sat_drivers << ", \"queue_depth\": " << sat_queue
        << ", \"submitted\": " << queries << ", \"admitted\": " << admitted
        << ", \"rejected\": " << rejected << "},\n"
        << "  \"mixed_workload\": {\"hot_swaps\": "
        << (hot_swap_epochs == 0 ? 0 : hot_swap_epochs - 1) << ", \"graphs\": [";
    bool first = true;
    for (const auto& [name, row] : per_graph) {
      out << (first ? "\n" : ",\n") << "    {\"name\": \"" << row.name
          << "\", \"queries\": " << row.queries
          << ", \"queries_per_s\": " << row.rate
          << ", \"queue_wait_p50_s\": " << row.queue_p50
          << ", \"queue_wait_p99_s\": " << row.queue_p99
          << ", \"checksum\": " << row.checksum << "}";
      first = false;
    }
    out << "\n  ], \"swap_blackout\": {\"swaps\": " << blackout.Count()
        << ", \"max_s\": " << static_cast<double>(blackout.MaxValue()) * kNanos
        << ", \"p50_s\": " << QuantileSeconds(blackout, 0.50)
        << "}, \"deterministic\": " << (mixed_deterministic ? "true" : "false")
        << "},\n"
        << "  \"churn\": {\"queries\": " << churn_queries
        << ", \"offered_rate_per_s\": " << churn_offered_rate
        << ", \"completed_rate_per_s\": " << churn_completed_rate
        << ", \"deltas_applied\": " << churn_deltas_applied
        << ", \"final_epoch\": " << churn_final_epoch
        << ", \"edges_inserted\": " << churn_inserted
        << ", \"edges_deleted\": " << churn_deleted
        << ", \"edges_reweighted\": " << churn_reweighted
        << ", \"latency_p50_s\": " << churn_p50
        << ", \"latency_p99_s\": " << churn_p99
        << ", \"latency_p999_s\": " << churn_p999
        << ", \"swap_blackout\": {\"swaps\": " << churn_blackout.Count()
        << ", \"p50_s\": " << QuantileSeconds(churn_blackout, 0.50)
        << ", \"max_s\": " << static_cast<double>(churn_blackout.MaxValue()) * kNanos
        << ", \"apply_p50_s\": " << QuantileSeconds(churn_apply, 0.50)
        << "}, \"digest_match\": " << (churn_digest_match ? "true" : "false")
        << ", \"all_requests_ok\": " << (churn_all_ok ? "true" : "false")
        << ", \"deterministic\": "
        << (churn_digest_match && churn_all_ok ? "true" : "false") << "},\n"
        << "  \"deterministic\": " << (deterministic ? "true" : "false") << "\n"
        << "}\n";
  }
  return deterministic ? 0 : 1;
}
