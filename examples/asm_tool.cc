// asm_tool — command-line adaptive seed minimization on your own graph.
//
// The "bring your own data" entry point: load a weighted edge list and/or
// name a built-in surrogate, pick a diffusion model, algorithm, and
// threshold, and get the per-round trace plus an optional archive file.
// Graphs are registered in a GraphCatalog and queries are routed by name
// through the SeedMinEngine façade, so every algorithm in the registry —
// including the non-adaptive ATEUC/Bisection baselines — is available,
// bad inputs come back as readable errors instead of crashes, and runs
// follow the §6 protocol (hidden worlds derived from --seed, shared
// across algorithms).
//
// Usage:
//   asm_tool --graph-file edges.txt --eta 500
//   asm_tool --graph nethept --scale 0.2 --eta-fraction 0.05
//            --model LT --algorithm ASTI-4 --runs 3 --save-traces out.tr
//   asm_tool --list-algorithms
//   asm_tool --list-graphs
//
// Flags: --graph NAME (catalog graph to query: a built-in surrogate name
// from --list-graphs, or "custom" when --graph-file is given; --dataset
// is an accepted legacy alias) | --graph-file PATH (load a weighted edge
// list and register it as "custom"), --scale S (surrogate size
// multiplier), --eta N | --eta-fraction F, --model IC|LT,
// --algorithm NAME (see --list-algorithms; ASTI-b accepts any b >= 1),
// --epsilon E, --threads T (1 = no pool, 0 = all cores), --runs R,
// --seed S, --timeout SECONDS (abandon the run with DeadlineExceeded past
// the budget; unset = no deadline), --save-traces PATH, --quiet, --metrics
// (print the request's phase profile — including cache_hit and
// reused-vs-extended set counts — and the engine's metrics snapshot in
// Prometheus text format after the run), --apply-delta FILE (mutate the
// target graph before solving: FILE is an EdgeDelta batch in the text form
// of src/delta/README.md, applied through SwapWithDelta, so the query
// serves the minted epoch; the minted graph is digest-identical to a
// from-scratch rebuild of the mutated edge list). A malformed number, a
// flag the tool does not read, or a token that is neither a flag nor a
// flag's value prints what was wrong and exits 2.
//
// Snapshot persistence (src/store/, ASMS files):
//   --snapshot-dir DIR     before building a surrogate, try DIR/<name>.asms
//                          (mmap-registered, cache warm-started from any
//                          persisted collection prefixes; a file whose n
//                          differs from the n --scale builds is refused);
//                          also the default destination for --save-snapshot.
//   --save-snapshot [PATH] after the run, persist the served graph plus the
//                          sealed sampler-cache prefixes it accumulated
//                          (default PATH: DIR/<name>.asms).
//   --load-snapshot PATH   register a specific snapshot file for this run.
//   --snapshot-compact     with --save-snapshot: omit the reverse CSR
//                          (~half the file; rebuilt on load).
//   --verify-snapshot PATH full checksum validation of a snapshot; exits.

#include <filesystem>
#include <iostream>

#include "api/graph_catalog.h"
#include "api/seedmin_engine.h"
#include "api/snapshot_serving.h"
#include "delta/catalog_delta.h"
#include "delta/edge_delta.h"
#include "obs/export.h"
#include "benchutil/cli.h"
#include "benchutil/table.h"
#include "core/trace_io.h"
#include "graph/datasets.h"
#include "graph/edge_list_io.h"
#include "store/snapshot_store.h"

namespace asti {
namespace {

constexpr const char* kCustomGraphName = "custom";

// Populates the catalog with the requested graph(s) and returns the name
// the query should route to: --graph-file registers "custom"; a --graph /
// --dataset value naming a built-in surrogate registers that; with
// neither, the NetHEPT surrogate is the default target.
StatusOr<std::string> PopulateCatalog(const CommandLine& cli, GraphCatalog& catalog) {
  const uint64_t seed = static_cast<uint64_t>(cli.GetInt("seed", 7));
  // --dataset is a legacy alias; an explicit --graph wins.
  std::string target = cli.GetString("graph", cli.GetString("dataset", ""));

  if (cli.Has("graph-file")) {
    auto file = LoadEdgeList(cli.GetString("graph-file", ""));
    if (!file.ok()) return file.status();
    auto graph = BuildGraphFromEdgeList(*file);
    if (!graph.ok()) return graph.status();
    auto registered = catalog.Register(kCustomGraphName, std::move(graph).value());
    if (!registered.ok()) return registered.status();
    if (target.empty()) target = kCustomGraphName;
  }
  if (cli.Has("load-snapshot")) {
    auto registered = RegisterSnapshotFile(catalog, cli.GetString("load-snapshot", ""));
    if (!registered.ok()) return registered.status();
    if (target.empty()) target = registered->name();
  }
  if (target.empty()) target = CanonicalDatasetName(DatasetId::kNetHept);

  // A snapshot directory outranks rebuilding a surrogate: registering from
  // the mapped file costs page faults and carries the persisted sampler
  // cache, so repeat invocations skip both graph construction and the
  // first request's sampling. A built-in surrogate's snapshot must have the
  // node count --scale builds, or the run would silently serve another
  // scale. The --seed that shaped its edges is not in the file, so a
  // snapshot saved under another --seed cannot be told apart this way.
  if (!catalog.Get(target).ok() && cli.Has("snapshot-dir")) {
    const store::SnapshotStore snapshots(cli.GetString("snapshot-dir", ""));
    auto loaded = snapshots.Load(target);
    if (loaded.ok()) {
      if (auto id = DatasetIdFromName(target); id.ok()) {
        ASM_ASSIGN_OR_RETURN(const NodeId built,
                             SurrogateNodeCount(*id, cli.GetDouble("scale", 0.2)));
        const NodeId stored = loaded->graph.NumNodes();
        if (stored != built) {
          return Status::InvalidArgument(
              snapshots.PathFor(target) + " holds n=" + std::to_string(stored) +
              ", but --scale " + cli.GetString("scale", "0.2") + " builds n=" +
              std::to_string(built) + "; pass the --scale it was saved with, or "
              "delete the file or choose another --snapshot-dir to rebuild");
        }
      }
      auto registered = catalog.Register(
          target, std::make_shared<const DirectedGraph>(std::move(loaded->graph)),
          loaded->weight_scheme, std::move(loaded->warm));
      if (!registered.ok()) return registered.status();
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      return loaded.status();
    }
  }

  if (!catalog.Get(target).ok()) {
    // Not loaded from a file: the name must be a built-in surrogate.
    auto id = DatasetIdFromName(target);
    if (!id.ok()) {
      // Spell out the migration: --graph used to take an edge-list path.
      return Status::NotFound(
          "no catalog graph or built-in dataset named '" + target +
          "' (see --list-graphs; to load a weighted edge-list file, use "
          "--graph-file PATH)");
    }
    auto registered =
        RegisterSurrogate(catalog, *id, cli.GetDouble("scale", 0.2), seed);
    if (!registered.ok()) return registered.status();
    target = registered->name();  // canonical spelling
  }
  return target;
}

int ListAlgorithms() {
  TextTable table({"id", "kind", "paper name"});
  for (const AlgorithmInfo& info : AlgorithmRegistry::List()) {
    table.AddRow({info.name, info.adaptive ? "adaptive" : "one-shot",
                  info.paper_name});
  }
  table.Print(std::cout);
  std::cout << "\nASTI-b is accepted for any batch size b >= 1 "
               "(b = 1 is plain TRIM = ASTI; b > 1 runs TRIM-B with that b).\n";
  return 0;
}

int ListGraphs() {
  TextTable table({"name", "kind", "paper n", "paper m",
                   "surrogate n (scale 1)", "surrogate m (scale 1)"});
  for (const DatasetInfo& info : AllDatasets()) {
    table.AddRow({CanonicalDatasetName(info.id),
                  info.undirected ? "undirected" : "directed",
                  FormatDouble(info.paper_nodes, 0), FormatDouble(info.paper_edges, 0),
                  std::to_string(info.surrogate_nodes),
                  std::to_string(info.surrogate_edges)});
  }
  table.Print(std::cout);
  std::cout << "\nAny of these names registers its surrogate (sized by "
               "--scale) in the serving catalog; --graph-file PATH registers "
               "your own weighted edge list as 'custom'.\n";
  return 0;
}

int Run(int argc, char** argv) {
  const CommandLine cli(
      argc, argv,
      {"graph", "dataset", "graph-file", "scale", "eta", "eta-fraction", "model", "algorithm",
       "epsilon", "threads", "runs", "realizations", "seed", "timeout", "save-traces",
       "quiet", "metrics", "apply-delta", "snapshot-dir", "save-snapshot", "load-snapshot",
       "snapshot-compact", "verify-snapshot", "list-algorithms", "list-graphs"});
  if (cli.Has("list-algorithms")) return ListAlgorithms();
  if (cli.Has("list-graphs")) return ListGraphs();
  if (cli.Has("verify-snapshot")) {
    const std::string path = cli.GetString("verify-snapshot", "");
    const Status status = store::VerifySnapshotFile(path);
    if (!status.ok()) {
      std::cerr << status.ToString() << "\n";
      return 1;
    }
    std::cout << "snapshot OK: " << path << " (every section checksum verified)\n";
    return 0;
  }

  GraphCatalog catalog;
  auto target = PopulateCatalog(cli, catalog);
  if (!target.ok()) {
    std::cerr << "graph: " << target.status().ToString() << "\n";
    return 1;
  }
  // Epoch minting: apply an EdgeDelta batch to the target before solving.
  // The solve below then routes to the minted epoch like any post-swap
  // request would in a live deployment.
  if (cli.Has("apply-delta")) {
    const std::string delta_path = cli.GetString("apply-delta", "");
    auto delta = LoadDeltaFile(delta_path);
    if (!delta.ok()) {
      std::cerr << "delta: " << delta.status().ToString() << "\n";
      return 1;
    }
    auto swapped = SwapWithDelta(catalog, *target, *delta);
    if (!swapped.ok()) {
      std::cerr << "delta: " << swapped.status().ToString() << "\n";
      return 1;
    }
    std::cout << "delta: " << delta_path << " applied (+" << swapped->stats.inserted
              << " -" << swapped->stats.deleted << " ~" << swapped->stats.reweighted
              << " edges, " << swapped->stats.rows_touched << " rows) -> epoch "
              << swapped->ref.epoch() << " digest 0x" << std::hex
              << swapped->minted_digest << std::dec << "\n";
  }

  const auto ref = catalog.Get(*target);
  if (!ref.ok()) {
    std::cerr << "graph: " << ref.status().ToString() << "\n";
    return 1;
  }
  const NodeId n = ref->num_nodes();
  NodeId eta = static_cast<NodeId>(cli.GetInt("eta", 0));
  if (eta == 0) {
    eta = static_cast<NodeId>(cli.GetDouble("eta-fraction", 0.05) * n);
  }

  const std::string algorithm_name = cli.GetString("algorithm", "ASTI");
  auto spec = AlgorithmRegistry::Parse(algorithm_name);
  if (!spec.ok()) {
    std::cerr << spec.status().ToString() << "\n";
    return 1;
  }

  SolveRequest request;
  request.graph = *target;
  request.algorithm = spec->id;
  request.batch_size = spec->batch_size;
  request.model = cli.GetString("model", "IC") == "LT"
                      ? DiffusionModel::kLinearThreshold
                      : DiffusionModel::kIndependentCascade;
  request.eta = eta;
  request.keep_traces = true;  // round tables + --save-traces
  // Flags read directly rather than via ApplyRequestOverrides: asm_tool is
  // a user tool, and the bench-harness ASM_BENCH_* env knobs must never
  // silently change a run. --runs is the documented spelling
  // (--realizations accepted as an alias); --seed 7 matches the surrogate
  // default, so one seed governs the whole invocation.
  request.epsilon = cli.GetDouble("epsilon", request.epsilon);
  request.seed = static_cast<uint64_t>(cli.GetInt("seed", 7));
  // Signed reads guarded before the size_t casts: a negative value must
  // come back as a readable error, not wrap to ~2^64 runs or workers.
  const int64_t runs = cli.GetInt("runs", cli.GetInt("realizations", 1));
  if (runs < 1) {
    std::cerr << "InvalidArgument: --runs must be >= 1, got " << runs << "\n";
    return 1;
  }
  request.realizations = static_cast<size_t>(runs);
  // A wall-clock budget for the whole invocation (all runs): past it the
  // engine's cooperative cancellation unwinds at the next chunk/round
  // boundary and the tool reports DeadlineExceeded instead of hanging on
  // an over-ambitious eta. 0 or negative is rejected — an already-expired
  // deadline would just burn the graph-loading work.
  if (cli.Has("timeout")) {
    const double timeout = cli.GetDouble("timeout", 0.0);
    if (timeout <= 0.0) {
      std::cerr << "InvalidArgument: --timeout must be > 0 seconds, got "
                << timeout << "\n";
      return 1;
    }
    request.deadline = DeadlineAfter(timeout);
  }
  const int64_t threads = cli.GetInt("threads", 1);
  if (threads < 0) {
    std::cerr << "InvalidArgument: --threads must be >= 0, got " << threads << "\n";
    return 1;
  }
  const bool quiet = cli.Has("quiet");

  std::cout << "graph: " << ref->name() << " (epoch " << ref->epoch() << ") n=" << n
            << " m=" << ref->num_edges()
            << "  model=" << DiffusionModelName(request.model) << "  eta=" << eta
            << "  algorithm=" << algorithm_name << "\n";

  // --threads read directly (not NumThreadsOverride): a lingering
  // ASM_BENCH_THREADS export must not silently change the user's pool.
  SeedMinEngine engine(catalog, {static_cast<size_t>(threads)});
  StatusOr<SolveResult> solved = engine.Solve(request);
  if (!solved.ok()) {
    std::cerr << solved.status().ToString() << "\n";
    return 1;
  }
  const SolveResult& result = *solved;

  for (size_t run = 0; run < result.traces.size(); ++run) {
    const AdaptiveRunTrace& trace = result.traces[run];
    if (!quiet && !trace.rounds.empty()) {
      TextTable table(
          {"round", "seeds", "activated", "shortfall", "samples", "rungs", "answer"});
      for (const RoundRecord& round : trace.rounds) {
        std::string seeds;
        for (NodeId s : round.seeds) {
          // append(): GCC 12 -Wrestrict false-positives on char* +
          // to_string temporaries under -O2 (PR 105651).
          if (!seeds.empty()) seeds.append(",");
          seeds.append(std::to_string(s));
        }
        table.AddRow({std::to_string(round.round), seeds,
                      std::to_string(round.newly_activated),
                      std::to_string(round.shortfall_before),
                      std::to_string(round.num_samples), std::to_string(round.iterations),
                      RoundAnswerName(round.answer)});
      }
      std::cout << "\nrun " << run + 1 << ":\n";
      table.Print(std::cout);
    }
    std::cout << "run " << run + 1 << ": " << trace.NumSeeds() << " seeds, "
              << trace.total_activated << " activated, " << trace.seconds << "s\n";
  }
  std::cout << "\nsummary: " << Summarize(result.aggregate) << " [graph "
            << result.graph_name << "@" << result.graph_epoch << "]\n";

  if (cli.Has("metrics")) {
    const RequestProfile& profile = result.profile;
    std::cout << "\nprofile: total=" << profile.total_seconds
              << "s sampling=" << profile.sampling_seconds
              << "s coverage=" << profile.coverage_seconds
              << "s certify=" << profile.certify_seconds
              << "s sets=" << profile.sets_generated
              << " cache_hit=" << (profile.cache_hit ? "true" : "false")
              << " sets_reused=" << profile.sets_reused
              << " sets_extended=" << profile.sets_extended
              << " collection_bytes=" << profile.collection_bytes
              << " shared_collection_bytes=" << profile.shared_collection_bytes
              << "\n\n"
              << ExportPrometheusText(engine.metrics_snapshot());
  }

  if (cli.Has("save-snapshot")) {
    std::string path = cli.GetString("save-snapshot", "");
    if (path == "1") path.clear();  // bare flag (no PATH value)
    if (path.empty()) {
      if (!cli.Has("snapshot-dir")) {
        std::cerr << "--save-snapshot needs a PATH argument or --snapshot-dir DIR\n";
        return 1;
      }
      const std::string dir = cli.GetString("snapshot-dir", "");
      std::error_code ec;
      std::filesystem::create_directories(dir, ec);
      path = store::SnapshotStore(dir).PathFor(*target);
    }
    // Persists the graph AND the sealed sampler-cache prefixes the run just
    // left behind, so the next invocation warm-starts from disk.
    const Status status = engine.SaveSnapshot(*target, path,
                                              !cli.Has("snapshot-compact"));
    if (!status.ok()) {
      std::cerr << status.ToString() << "\n";
      return 1;
    }
    std::cout << "snapshot saved to " << path << "\n";
  }

  if (cli.Has("save-traces")) {
    const std::string path = cli.GetString("save-traces", "");
    const Status status = SaveTraces(result.traces, path);
    if (!status.ok()) {
      std::cerr << status.ToString() << "\n";
      return 1;
    }
    std::cout << "traces archived to " << path << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace asti

int main(int argc, char** argv) { return asti::Run(argc, argv); }
