// Tests for src/store/ (ASMS snapshots): round trip through the writer and
// the mmap loader, the omit-reverse rebuild, the SnapshotStore directory
// convention, registration cost against an edge-list load, corruption
// attribution (every broken file yields a Status naming the offending
// section — never UB), sealed RR-collection persistence with bit-identical
// warm-start adoption, and mapping lifetime: views and catalog pins keep
// the file resident through unlink, snapshot destruction, and
// retire-mid-solve.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/graph_catalog.h"
#include "api/seedmin_engine.h"
#include "api/snapshot_serving.h"
#include "graph/edge_list_io.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "sampling/sampler_cache.h"
#include "store/snapshot_format.h"
#include "store/snapshot_store.h"
#include "store/snapshot_writer.h"
#include "util/crc32.h"
#include "util/timer.h"

namespace asti {
namespace {

using store::FileHeader;
using store::GraphSnapshot;
using store::SectionEntry;
using store::SectionType;
using store::SnapshotStore;
using store::SnapshotVerify;
using store::SnapshotWriteOptions;

std::string TempPath(const std::string& name) { return testing::TempDir() + "/" + name; }

DirectedGraph MakeTestGraph(uint64_t seed = 411, NodeId nodes = 180, size_t edges = 1200) {
  Rng rng(seed);
  auto graph = BuildWeightedGraph(MakeErdosRenyi(nodes, edges, rng),
                                  WeightScheme::kWeightedCascade);
  ASM_CHECK(graph.ok()) << graph.status().ToString();
  return std::move(graph).value();
}

// Both CSR directions, edge by edge, and the derived uniform in-probability.
void ExpectSameAdjacency(const DirectedGraph& expected, const DirectedGraph& actual) {
  ASSERT_EQ(expected.NumNodes(), actual.NumNodes());
  ASSERT_EQ(expected.NumEdges(), actual.NumEdges());
  for (NodeId u = 0; u < expected.NumNodes(); ++u) {
    EXPECT_EQ(expected.UniformInProbability(u), actual.UniformInProbability(u))
        << "node " << u;
    const auto out_want = expected.OutNeighbors(u);
    const auto out_got = actual.OutNeighbors(u);
    ASSERT_EQ(out_want.size(), out_got.size()) << "node " << u;
    for (size_t i = 0; i < out_want.size(); ++i) {
      EXPECT_EQ(out_want[i], out_got[i]);
      EXPECT_DOUBLE_EQ(expected.OutProbabilities(u)[i], actual.OutProbabilities(u)[i]);
    }
    const auto in_want = expected.InNeighbors(u);
    const auto in_got = actual.InNeighbors(u);
    ASSERT_EQ(in_want.size(), in_got.size()) << "node " << u;
    for (size_t i = 0; i < in_want.size(); ++i) {
      EXPECT_EQ(in_want[i], in_got[i]);
      EXPECT_DOUBLE_EQ(expected.InProbabilities(u)[i], actual.InProbabilities(u)[i]);
      EXPECT_EQ(expected.InEdgeIds(u)[i], actual.InEdgeIds(u)[i]);
    }
  }
}

// In-memory copy of a snapshot file for corruption surgery: mutate bytes,
// optionally re-seal the CRC chain (so the test reaches the check UNDER the
// checksums instead of tripping on them), write back.
struct FileSurgeon {
  std::string path;
  std::vector<char> bytes;

  static FileSurgeon Load(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    FileSurgeon surgeon;
    surgeon.path = path;
    surgeon.bytes.assign(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>());
    return surgeon;
  }

  FileHeader Header() const {
    FileHeader header;
    std::memcpy(&header, bytes.data(), sizeof(header));
    return header;
  }

  std::vector<SectionEntry> Table() const {
    const FileHeader header = Header();
    std::vector<SectionEntry> table(header.section_count);
    std::memcpy(table.data(), bytes.data() + sizeof(FileHeader),
                table.size() * sizeof(SectionEntry));
    return table;
  }

  void PutEntry(size_t index, const SectionEntry& entry) {
    std::memcpy(bytes.data() + sizeof(FileHeader) + index * sizeof(SectionEntry),
                &entry, sizeof(entry));
  }

  /// Recomputes the table CRC and header CRC over the current bytes, so a
  /// deliberate payload/table mutation is reachable past the CRC gates.
  void Reseal() {
    FileHeader header = Header();
    header.table_crc = Crc32(bytes.data() + sizeof(FileHeader),
                             size_t{header.section_count} * sizeof(SectionEntry));
    header.header_crc = 0;
    header.header_crc = Crc32(&header, sizeof(header));
    std::memcpy(bytes.data(), &header, sizeof(header));
  }

  void PutHeader(const FileHeader& header) {
    std::memcpy(bytes.data(), &header, sizeof(header));
    Reseal();
  }

  void Store() const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
};

// --- Round trip -------------------------------------------------------------

TEST(SnapshotStoreTest, RoundTripPreservesGraphAndMetadata) {
  const DirectedGraph graph = MakeTestGraph();
  const std::string path = TempPath("roundtrip.asms");
  ASSERT_TRUE(store::WriteSnapshot(graph, "roundtrip", WeightScheme::kWeightedCascade,
                                   {}, path)
                  .ok());
  auto snapshot = store::OpenSnapshot(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot->name, "roundtrip");
  EXPECT_EQ(snapshot->weight_scheme, WeightScheme::kWeightedCascade);
  EXPECT_NE(snapshot->graph_digest, 0u);
  EXPECT_FALSE(snapshot->reverse_rebuilt);
  EXPECT_EQ(snapshot->collection_sections, 0u);
  EXPECT_EQ(snapshot->file_bytes, std::filesystem::file_size(path));
  ExpectSameAdjacency(graph, snapshot->graph);
  // Full-checksum verification of a freshly written file must pass.
  EXPECT_TRUE(store::VerifySnapshotFile(path).ok());
  std::filesystem::remove(path);
}

TEST(SnapshotStoreTest, OmittedReverseCsrIsRebuiltIdentically) {
  const DirectedGraph graph = MakeTestGraph(412);
  const std::string full_path = TempPath("full.asms");
  const std::string compact_path = TempPath("compact.asms");
  SnapshotWriteOptions compact;
  compact.include_reverse_csr = false;
  ASSERT_TRUE(store::WriteSnapshot(graph, "g", WeightScheme::kWeightedCascade, {},
                                   full_path)
                  .ok());
  ASSERT_TRUE(store::WriteSnapshot(graph, "g", WeightScheme::kWeightedCascade, {},
                                   compact_path, compact)
                  .ok());
  EXPECT_LT(std::filesystem::file_size(compact_path),
            std::filesystem::file_size(full_path));
  auto snapshot = store::OpenSnapshot(compact_path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_TRUE(snapshot->reverse_rebuilt);
  ExpectSameAdjacency(graph, snapshot->graph);
  std::filesystem::remove(full_path);
  std::filesystem::remove(compact_path);
}

TEST(SnapshotStoreTest, EmptyGraphRoundTrips) {
  GraphBuilder builder(9);
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  const std::string path = TempPath("empty.asms");
  ASSERT_TRUE(
      store::WriteSnapshot(*graph, "empty", WeightScheme::kUniform, {}, path).ok());
  auto snapshot = store::OpenSnapshot(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot->graph.NumNodes(), 9u);
  EXPECT_EQ(snapshot->graph.NumEdges(), 0u);
  EXPECT_EQ(snapshot->weight_scheme, WeightScheme::kUniform);
  std::filesystem::remove(path);
}

TEST(SnapshotStoreTest, DirectoryStoreSaveLoadList) {
  const std::string dir = TempPath("snapdir");
  std::filesystem::remove_all(dir);
  const SnapshotStore snapshots(dir);
  const DirectedGraph alpha = MakeTestGraph(414, 90, 500);
  const DirectedGraph beta = MakeTestGraph(415, 70, 400);
  ASSERT_TRUE(snapshots.Save(alpha, "alpha", WeightScheme::kWeightedCascade).ok());
  ASSERT_TRUE(snapshots.Save(beta, "beta", WeightScheme::kUniform).ok());

  auto names = snapshots.ListNames();
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"alpha", "beta"}));

  auto loaded = snapshots.Load("beta");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->weight_scheme, WeightScheme::kUniform);
  ExpectSameAdjacency(beta, loaded->graph);

  EXPECT_EQ(snapshots.Load("gamma").status().code(), StatusCode::kNotFound);
  // Path traversal in a name must be refused before touching the fs.
  EXPECT_EQ(snapshots.Load("../evil").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(snapshots.Save(alpha, "a/b", WeightScheme::kUniform).code(),
            StatusCode::kInvalidArgument);
  std::filesystem::remove_all(dir);
}

// --- Registration cost ------------------------------------------------------

// A snapshot exists so that serving a graph after a restart skips parsing
// and building it. Registering the mapped file must therefore cost no more
// than the alternative it replaces: loading the same graph from a text edge
// list and building it (LoadEdgeList + BuildGraphFromEdgeList + Register).
// Chung–Lu, weighted cascade, n = 400 and m = 2,400; minimum of 5 runs per
// side, the two sides interleaved.
TEST(SnapshotStoreTest, MmapRegistrationBeatsEdgeListLoad) {
  Rng rng(419);
  const auto graph = BuildWeightedGraph(MakeChungLu(400, 2400, 2.1, rng),
                                        WeightScheme::kWeightedCascade);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  const std::string text_path = TempPath("register.txt");
  const std::string asms_path = TempPath("register.asms");
  ASSERT_TRUE(SaveEdgeList(*graph, text_path).ok());
  ASSERT_TRUE(store::WriteSnapshot(*graph, "g", WeightScheme::kWeightedCascade, {},
                                   asms_path)
                  .ok());

  double parse_seconds = std::numeric_limits<double>::infinity();
  double mmap_seconds = std::numeric_limits<double>::infinity();
  for (int run = 0; run < 5; ++run) {
    {
      GraphCatalog catalog;
      const WallTimer timer;
      auto file = LoadEdgeList(text_path);
      ASSERT_TRUE(file.ok()) << file.status().ToString();
      auto built = BuildGraphFromEdgeList(*file);
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      const auto registered = catalog.Register("g", std::move(built).value());
      ASSERT_TRUE(registered.ok()) << registered.status().ToString();
      parse_seconds = std::min(parse_seconds, timer.Seconds());
      EXPECT_EQ(registered->num_edges(), graph->NumEdges());
    }
    {
      GraphCatalog catalog;
      const WallTimer timer;
      const auto registered = RegisterSnapshotFile(catalog, asms_path);
      ASSERT_TRUE(registered.ok()) << registered.status().ToString();
      mmap_seconds = std::min(mmap_seconds, timer.Seconds());
      EXPECT_EQ(registered->num_edges(), graph->NumEdges());
    }
  }
  ASSERT_GT(mmap_seconds, 0.0);
  const double ratio = parse_seconds / mmap_seconds;
  std::cout << "edge-list load " << parse_seconds * 1e6 << " us vs mmap registration "
            << mmap_seconds * 1e6 << " us: " << ratio << "x\n";
  EXPECT_GE(ratio, 1.0);
  std::filesystem::remove(text_path);
  std::filesystem::remove(asms_path);
}

// --- Corruption: every broken file is a Status, never UB --------------------

TEST(SnapshotCorruptionTest, TruncatedFileIsRejected) {
  const DirectedGraph graph = MakeTestGraph(416);
  const std::string path = TempPath("truncated.asms");
  ASSERT_TRUE(
      store::WriteSnapshot(graph, "t", WeightScheme::kWeightedCascade, {}, path).ok());
  const FileSurgeon pristine = FileSurgeon::Load(path);
  FileSurgeon surgeon = pristine;
  surgeon.bytes.resize(surgeon.bytes.size() / 2);
  surgeon.Store();
  auto snapshot = store::OpenSnapshot(path);
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kInvalidArgument);

  // A file that is not an ASMS snapshot at all is refused by its magic.
  surgeon = pristine;
  surgeon.bytes[0] = 'X';
  surgeon.Store();
  snapshot = store::OpenSnapshot(path);
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(snapshot.status().ToString().find("bad magic"), std::string::npos)
      << snapshot.status().ToString();
  std::filesystem::remove(path);
}

TEST(SnapshotCorruptionTest, FlippedByteInEverySectionIsCaughtByChecksums) {
  // Persist graph + a sealed collection so every section type is present,
  // then flip one mid-payload byte per section: the full-checksum tier must
  // attribute each flip to its section. (Structural mode deliberately
  // trusts payload bytes — that is its documented contract.)
  const DirectedGraph graph = MakeTestGraph(417);
  SamplerCache cache(graph);
  cache.Acquire(SamplerCacheKey::Rr(DiffusionModel::kIndependentCascade), 32,
                nullptr, nullptr, nullptr);
  const std::vector<SealedCollectionExport> sealed = cache.ExportSealed();
  ASSERT_FALSE(sealed.empty());
  const std::string path = TempPath("bitrot.asms");
  ASSERT_TRUE(
      store::WriteSnapshot(graph, "b", WeightScheme::kWeightedCascade, sealed, path)
          .ok());
  ASSERT_TRUE(store::VerifySnapshotFile(path).ok());

  const FileSurgeon pristine = FileSurgeon::Load(path);
  const std::vector<SectionEntry> table = pristine.Table();
  for (size_t i = 0; i < table.size(); ++i) {
    if (table[i].bytes == 0) continue;
    FileSurgeon surgeon = pristine;
    surgeon.bytes[table[i].offset + table[i].bytes / 2] ^= char{0x40};
    surgeon.Store();
    const Status status = store::VerifySnapshotFile(path);
    ASSERT_FALSE(status.ok()) << "flip in section " << i << " not caught";
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.ToString().find("section " + std::to_string(i)),
              std::string::npos)
        << "section " << i << " not named in: " << status.ToString();
  }
  pristine.Store();
  EXPECT_TRUE(store::VerifySnapshotFile(path).ok());
  std::filesystem::remove(path);
}

TEST(SnapshotCorruptionTest, SectionOffsetOutOfRangeIsRejected) {
  const DirectedGraph graph = MakeTestGraph(418);
  const std::string path = TempPath("oob.asms");
  ASSERT_TRUE(
      store::WriteSnapshot(graph, "o", WeightScheme::kWeightedCascade, {}, path).ok());
  FileSurgeon surgeon = FileSurgeon::Load(path);
  SectionEntry entry = surgeon.Table()[1];
  entry.offset = store::AlignUp(surgeon.bytes.size());  // aligned, but past EOF
  surgeon.PutEntry(1, entry);
  surgeon.Reseal();  // reachable past the table CRC: the bounds check must fire
  surgeon.Store();
  auto snapshot = store::OpenSnapshot(path);
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(snapshot.status().ToString().find("out of file range"), std::string::npos)
      << snapshot.status().ToString();
  std::filesystem::remove(path);
}

TEST(SnapshotCorruptionTest, CollectionFromDifferentGraphIsRejected) {
  // A collection section whose graph_digest does not match the file's own
  // graph simulates a stale/cross-pasted cache: refused in O(1) at open,
  // with the mismatch named, under BOTH verify tiers.
  const DirectedGraph graph = MakeTestGraph(419);
  SamplerCache cache(graph);
  cache.Acquire(SamplerCacheKey::Rr(DiffusionModel::kIndependentCascade), 16,
                nullptr, nullptr, nullptr);
  const std::vector<SealedCollectionExport> sealed = cache.ExportSealed();
  ASSERT_FALSE(sealed.empty());
  const std::string path = TempPath("cross.asms");
  ASSERT_TRUE(
      store::WriteSnapshot(graph, "c", WeightScheme::kWeightedCascade, sealed, path)
          .ok());

  FileSurgeon surgeon = FileSurgeon::Load(path);
  const std::vector<SectionEntry> table = surgeon.Table();
  bool found = false;
  for (size_t i = 0; i < table.size(); ++i) {
    if (table[i].type != static_cast<uint32_t>(SectionType::kRrCollection)) continue;
    found = true;
    store::CollectionSectionHeader header;
    std::memcpy(&header, surgeon.bytes.data() + table[i].offset, sizeof(header));
    header.graph_digest ^= 0xdeadbeefULL;  // "written for some other graph"
    std::memcpy(surgeon.bytes.data() + table[i].offset, &header, sizeof(header));
    SectionEntry entry = table[i];
    entry.payload_crc =
        Crc32(surgeon.bytes.data() + entry.offset, static_cast<size_t>(entry.bytes));
    surgeon.PutEntry(i, entry);
  }
  ASSERT_TRUE(found);
  surgeon.Reseal();
  surgeon.Store();
  for (const SnapshotVerify verify :
       {SnapshotVerify::kStructural, SnapshotVerify::kChecksums}) {
    auto snapshot = store::OpenSnapshot(path, verify);
    ASSERT_FALSE(snapshot.ok());
    EXPECT_EQ(snapshot.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(snapshot.status().ToString().find("different graph"), std::string::npos)
        << snapshot.status().ToString();
  }
  std::filesystem::remove(path);
}

TEST(SnapshotCorruptionTest, StaleCollectionSectionIsSkippedAndGraphStaysUsable) {
  // A collection section written under another sampler contract version or
  // stream seed (an older build's warm cache) is stale, not broken: the
  // file opens under both tiers with its graph intact, nothing is adopted
  // or counted, and serving from it answers exactly like a cold cache.
  const DirectedGraph graph = MakeTestGraph(423);
  const auto key = SamplerCacheKey::Rr(DiffusionModel::kIndependentCascade);
  SamplerCache seeding_cache(graph);
  seeding_cache.Acquire(key, 64, nullptr, nullptr, nullptr);
  const std::string path = TempPath("stale.asms");
  ASSERT_TRUE(store::WriteSnapshot(graph, "stale", WeightScheme::kWeightedCascade,
                                   seeding_cache.ExportSealed(), path)
                  .ok());
  uint64_t digest = 0;
  {
    const auto current = store::OpenSnapshot(path);
    ASSERT_TRUE(current.ok()) << current.status().ToString();
    ASSERT_EQ(current->collection_sections, 1u);
    digest = current->graph_digest;
  }

  std::vector<SolveRequest> requests;
  for (const AlgorithmId algorithm :
       {AlgorithmId::kAsti, AlgorithmId::kAdaptIm, AlgorithmId::kAteuc}) {
    SolveRequest request;
    request.graph = "stale";
    request.algorithm = algorithm;
    request.eta = 30;
    request.realizations = 2;
    request.seed = 950;
    request.keep_traces = true;
    requests.push_back(request);
  }
  const auto fingerprint = [](const SolveResult& result) {
    std::ostringstream out;
    for (const AdaptiveRunTrace& trace : result.traces) {
      for (NodeId seed : trace.seeds) out << seed << ',';
      out << '/' << trace.total_activated << '/' << trace.total_samples << ';';
    }
    return out.str();
  };
  std::vector<std::string> cold;
  {
    GraphCatalog catalog;
    ASSERT_TRUE(catalog.Register("stale", graph).ok());
    SeedMinEngine engine(catalog, {2});
    for (const SolveRequest& request : requests) {
      const auto solved = engine.Solve(request);
      ASSERT_TRUE(solved.ok()) << solved.status().ToString();
      cold.push_back(fingerprint(*solved));
    }
  }

  const FileSurgeon pristine = FileSurgeon::Load(path);
  for (const bool forge_version : {true, false}) {
    SCOPED_TRACE(forge_version ? "contract_version" : "stream_seed");
    FileSurgeon surgeon = pristine;
    const std::vector<SectionEntry> table = surgeon.Table();
    for (size_t i = 0; i < table.size(); ++i) {
      if (table[i].type != static_cast<uint32_t>(SectionType::kRrCollection)) continue;
      store::CollectionSectionHeader header;
      std::memcpy(&header, surgeon.bytes.data() + table[i].offset, sizeof(header));
      if (forge_version) {
        header.contract_version = kSamplerContractVersion - 1;
      } else {
        header.stream_seed ^= 0x1ULL;
      }
      std::memcpy(surgeon.bytes.data() + table[i].offset, &header, sizeof(header));
      SectionEntry entry = table[i];
      entry.payload_crc =
          Crc32(surgeon.bytes.data() + entry.offset, static_cast<size_t>(entry.bytes));
      surgeon.PutEntry(i, entry);
    }
    surgeon.Reseal();
    surgeon.Store();

    for (const SnapshotVerify verify :
         {SnapshotVerify::kStructural, SnapshotVerify::kChecksums}) {
      auto snapshot = store::OpenSnapshot(path, verify);
      ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
      EXPECT_EQ(snapshot->collection_sections, 0u);
      EXPECT_EQ(snapshot->warm, nullptr);
      EXPECT_EQ(snapshot->graph_digest, digest);
      EXPECT_EQ(ForwardCsrDigest(snapshot->graph), ForwardCsrDigest(graph));
      ExpectSameAdjacency(graph, snapshot->graph);

      SamplerCache warm_cache(snapshot->graph, snapshot->warm);
      warm_cache.Acquire(key, 32, nullptr, nullptr, nullptr);
      EXPECT_EQ(warm_cache.Stats().warm_starts, 0u);
      EXPECT_EQ(warm_cache.Stats().sets_adopted, 0u);
    }
    EXPECT_TRUE(store::VerifySnapshotFile(path).ok());

    GraphCatalog catalog;
    ASSERT_TRUE(RegisterSnapshotFile(catalog, path).ok());
    SeedMinEngine engine(catalog, {2});
    for (size_t r = 0; r < requests.size(); ++r) {
      const auto solved = engine.Solve(requests[r]);
      ASSERT_TRUE(solved.ok()) << solved.status().ToString();
      EXPECT_EQ(fingerprint(*solved), cold[r]) << "request " << r;
    }
  }
  std::filesystem::remove(path);
}

TEST(SnapshotCorruptionTest, NonRandomizedRoundingSectionIsSkipped) {
  // The cache's mRR entries use randomized root rounding only, and the
  // writer stamps kRandomized. A section stamped kFloor or kCeil (the key
  // once carried a rounding) is stale: skipped at open under both tiers, so
  // its key starts cold. A byte past kCeil names no rounding and is refused.
  const DirectedGraph graph = MakeTestGraph(427);
  const auto key = SamplerCacheKey::Mrr(DiffusionModel::kIndependentCascade, 12);
  SamplerCache cold_cache(graph);
  const CollectionView cold = cold_cache.Acquire(key, 48, nullptr, nullptr, nullptr);
  ASSERT_EQ(cold.NumSets(), 48u);
  const std::string path = TempPath("rounding.asms");
  ASSERT_TRUE(store::WriteSnapshot(graph, "rounding", WeightScheme::kWeightedCascade,
                                   cold_cache.ExportSealed(), path)
                  .ok());
  const FileSurgeon pristine = FileSurgeon::Load(path);
  auto stamp = [&](uint8_t rounding) {
    FileSurgeon surgeon = pristine;
    size_t stamped = 0;
    const std::vector<SectionEntry> table = surgeon.Table();
    for (size_t i = 0; i < table.size(); ++i) {
      if (table[i].type != static_cast<uint32_t>(SectionType::kRrCollection)) continue;
      store::CollectionSectionHeader header;
      std::memcpy(&header, surgeon.bytes.data() + table[i].offset, sizeof(header));
      EXPECT_EQ(header.rounding, static_cast<uint8_t>(RootRounding::kRandomized));
      header.rounding = rounding;
      std::memcpy(surgeon.bytes.data() + table[i].offset, &header, sizeof(header));
      SectionEntry entry = table[i];
      entry.payload_crc =
          Crc32(surgeon.bytes.data() + entry.offset, static_cast<size_t>(entry.bytes));
      surgeon.PutEntry(i, entry);
      ++stamped;
    }
    EXPECT_EQ(stamped, 1u);
    surgeon.Reseal();
    surgeon.Store();
  };

  for (const RootRounding rounding : {RootRounding::kFloor, RootRounding::kCeil}) {
    SCOPED_TRACE(rounding == RootRounding::kFloor ? "kFloor" : "kCeil");
    stamp(static_cast<uint8_t>(rounding));
    for (const SnapshotVerify verify :
         {SnapshotVerify::kStructural, SnapshotVerify::kChecksums}) {
      auto snapshot = store::OpenSnapshot(path, verify);
      ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
      EXPECT_EQ(snapshot->collection_sections, 0u);
      EXPECT_EQ(snapshot->warm, nullptr);
      SamplerCache warm_cache(snapshot->graph, snapshot->warm);
      const CollectionView view = warm_cache.Acquire(key, 48, nullptr, nullptr, nullptr);
      EXPECT_EQ(warm_cache.Stats().warm_starts, 0u);
      EXPECT_EQ(warm_cache.Stats().misses, 1u);
      ASSERT_EQ(view.NumSets(), 48u);
      for (size_t i = 0; i < 48; ++i) {
        const auto want = cold.Set(i);
        const auto got = view.Set(i);
        ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin(), got.end()))
            << "set " << i;
      }
    }
  }

  stamp(static_cast<uint8_t>(RootRounding::kCeil) + 1);
  auto refused = store::OpenSnapshot(path);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().ToString().find("unknown kind/model/rounding"),
            std::string::npos)
      << refused.status().ToString();
  std::filesystem::remove(path);
}

// --- Warm start: adopted prefixes are bit-identical to cold generation ------

TEST(SnapshotWarmStartTest, AdoptedPrefixMatchesColdGenerationExactly) {
  const DirectedGraph graph = MakeTestGraph(420);
  const auto key = SamplerCacheKey::Rr(DiffusionModel::kIndependentCascade);

  SamplerCache seeding_cache(graph);
  seeding_cache.Acquire(key, 96, nullptr, nullptr, nullptr);
  const std::vector<SealedCollectionExport> sealed = seeding_cache.ExportSealed();
  ASSERT_EQ(sealed.size(), 1u);
  const size_t persisted_sets = sealed[0].view.NumSets();
  ASSERT_GE(persisted_sets, 96u);

  const std::string path = TempPath("warm.asms");
  ASSERT_TRUE(
      store::WriteSnapshot(graph, "w", WeightScheme::kWeightedCascade, sealed, path)
          .ok());
  auto snapshot = store::OpenSnapshot(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_EQ(snapshot->collection_sections, 1u);
  ASSERT_NE(snapshot->warm, nullptr);

  // The warm cache starts from the mapped prefix and extends PAST it; the
  // cold cache generates everything. Every set and the coverage checkpoint
  // must agree — the certified-reuse contract, now across a process
  // boundary.
  const size_t target = persisted_sets + 32;
  SamplerCache warm_cache(snapshot->graph, snapshot->warm);
  const CollectionView warm_view = warm_cache.Acquire(key, target, nullptr, nullptr,
                                                      nullptr);
  SamplerCache cold_cache(graph);
  const CollectionView cold_view = cold_cache.Acquire(key, target, nullptr, nullptr,
                                                      nullptr);
  ASSERT_EQ(warm_view.NumSets(), target);
  ASSERT_EQ(cold_view.NumSets(), target);
  for (size_t i = 0; i < target; ++i) {
    const auto want = cold_view.Set(i);
    const auto got = warm_view.Set(i);
    ASSERT_EQ(want.size(), got.size()) << "set " << i;
    for (size_t j = 0; j < want.size(); ++j) {
      ASSERT_EQ(want[j], got[j]) << "set " << i << " entry " << j;
    }
  }
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    ASSERT_EQ(cold_view.Coverage(v), warm_view.Coverage(v)) << "node " << v;
  }
  const SamplerCacheStats stats = warm_cache.Stats();
  EXPECT_EQ(stats.warm_starts, 1u);
  EXPECT_EQ(stats.sets_adopted, persisted_sets);
  std::filesystem::remove(path);
}

// --- Lifetime: pins keep the mapping alive ----------------------------------

TEST(SnapshotLifetimeTest, GraphViewsOutliveSnapshotAndFile) {
  const DirectedGraph graph = MakeTestGraph(421);
  const std::string path = TempPath("unlinked.asms");
  ASSERT_TRUE(
      store::WriteSnapshot(graph, "u", WeightScheme::kWeightedCascade, {}, path).ok());
  DirectedGraph view = [&path] {
    auto snapshot = store::OpenSnapshot(path);
    ASM_CHECK(snapshot.ok()) << snapshot.status().ToString();
    return std::move(snapshot->graph);
    // GraphSnapshot (and its warm source slot) dies here; the graph copy
    // carries the payload pin.
  }();
  std::filesystem::remove(path);  // mmap survives unlink
  ExpectSameAdjacency(graph, view);  // ASan would flag any dangling access
}

TEST(SnapshotLifetimeTest, RetireMidSolveKeepsMappingAlive) {
  const DirectedGraph graph = MakeTestGraph(422);
  const std::string path = TempPath("retire.asms");
  ASSERT_TRUE(store::WriteSnapshot(graph, "retiree", WeightScheme::kWeightedCascade,
                                   {}, path)
                  .ok());

  std::vector<SolveRequest> requests;
  for (uint64_t i = 0; i < 6; ++i) {
    SolveRequest request;
    request.graph = "retiree";
    request.algorithm = i % 2 == 0 ? AlgorithmId::kAsti : AlgorithmId::kAteuc;
    request.eta = 20;
    request.realizations = 2;
    request.seed = 900 + i;
    request.keep_traces = true;
    requests.push_back(request);
  }
  const auto fingerprint = [](const SolveResult& result) {
    std::ostringstream out;
    for (const AdaptiveRunTrace& trace : result.traces) {
      for (NodeId seed : trace.seeds) out << seed << ',';
      out << '/' << trace.total_activated << ';';
    }
    for (size_t count : result.seed_counts) out << count << '|';
    return out.str();
  };

  // Reference run: same snapshot file and pool size, no retire.
  std::vector<std::string> reference;
  {
    GraphCatalog catalog;
    ASSERT_TRUE(RegisterSnapshotFile(catalog, path).ok());
    SeedMinEngine engine(catalog, {2});
    for (const SolveRequest& request : requests) {
      const auto solved = engine.Solve(request);
      ASSERT_TRUE(solved.ok()) << solved.status().ToString();
      reference.push_back(fingerprint(*solved));
    }
  }

  // Retire the entry while the submitted batch is still in flight: every
  // solve runs on its pinned snapshot, and the pins (graph spans into the
  // mapping) stay valid until the last future drains. TSAN/ASan runs of
  // this test are the actual assertion.
  GraphCatalog catalog;
  ASSERT_TRUE(RegisterSnapshotFile(catalog, path).ok());
  std::filesystem::remove(path);
  SeedMinEngine::ServingOptions options;
  options.num_threads = 2;
  options.num_drivers = 2;
  options.max_queue_depth = requests.size();  // never rejects
  SeedMinEngine engine(catalog, options);
  std::vector<std::future<StatusOr<SolveResult>>> futures;
  for (const SolveRequest& request : requests) {
    futures.push_back(engine.SubmitAsync(request));
  }
  ASSERT_TRUE(catalog.Retire("retiree").ok());
  for (size_t i = 0; i < futures.size(); ++i) {
    const StatusOr<SolveResult> solved = futures[i].get();
    ASSERT_TRUE(solved.ok()) << solved.status().ToString();
    EXPECT_EQ(fingerprint(*solved), reference[i]) << "request " << i;
  }
  // New submissions must now miss: the name is gone, only pins survived.
  EXPECT_EQ(engine.Solve(requests.front()).status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace asti
