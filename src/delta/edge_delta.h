// EdgeDelta — the validated edge-mutation batch that mints the next
// serving epoch (src/delta/README.md has the full contract).
//
// A delta is an ordered-irrelevant set of edge operations against one base
// graph snapshot: insert a new edge, delete an existing one, or reweight
// one in place. Node count is fixed per epoch — deltas mutate edges only.
// The batch binds to its base through the base's forward-CSR digest
// (graph/graph.h ForwardCsrDigest), so a delta staged against epoch e can
// never be applied to a different snapshot without an InvalidArgument; it
// may also carry the expected post-apply digest, which ApplyDelta
// re-checks.
//
// One serialization, the line-oriented text form below (asm_tool
// --apply-delta reads it through LoadDeltaFile). It round-trips every
// batch bit-exactly, and a stamped result_digest makes ApplyDelta refuse a
// file whose ops were altered yet still parse.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/types.h"
#include "util/status.h"

namespace asti {

enum class DeltaOpKind : uint8_t {
  kInsert = 0,    // add edge (source -> target) with `probability`
  kDelete = 1,    // remove edge (source -> target); probability ignored
  kReweight = 2,  // set (source -> target)'s probability to `probability`
};

/// Short lowercase name ("insert" / "delete" / "reweight").
const char* DeltaOpKindName(DeltaOpKind kind);

/// One edge mutation.
struct DeltaOp {
  DeltaOpKind kind = DeltaOpKind::kInsert;
  NodeId source = 0;
  NodeId target = 0;
  /// New propagation probability for insert/reweight; 0 for delete.
  double probability = 0.0;

  friend bool operator==(const DeltaOp&, const DeltaOp&) = default;
};

/// A batch of edge mutations against one base snapshot.
struct EdgeDelta {
  /// ForwardCsrDigest of the base graph this batch was staged against;
  /// 0 = unbound (applies to any graph whose edges satisfy the ops).
  uint64_t base_digest = 0;
  /// Expected ForwardCsrDigest of the minted graph; 0 = unchecked. Stamped
  /// by StampDigests so a loaded delta proves its apply produced the epoch
  /// it was staged for.
  uint64_t result_digest = 0;
  std::vector<DeltaOp> ops;

  size_t CountKind(DeltaOpKind kind) const;

  friend bool operator==(const EdgeDelta&, const EdgeDelta&) = default;
};

/// Graph-independent structural validation: no self-loops, probabilities
/// in (0, 1] for insert/reweight, and at most one op per (source, target)
/// pair — conflicting ops in one batch have no defined apply order.
/// InvalidArgument naming the offending op. ApplyDelta calls this first;
/// graph-dependent checks (endpoint range, edge presence/absence) happen
/// during apply.
Status ValidateDelta(const EdgeDelta& delta);

// --- Text format -----------------------------------------------------------
//
//   # comment (also '%')
//   delta v1
//   base_digest 0x<hex>        (optional)
//   result_digest 0x<hex>      (optional)
//   + <source> <target> <probability>
//   - <source> <target>
//   ~ <source> <target> <probability>
//
// Word aliases "insert" / "delete" / "reweight" are accepted in place of
// the symbols. The "delta v1" line must be the first significant line.

/// Parses the text form. InvalidArgument with a line number on any
/// malformed line; the parsed batch is additionally run through
/// ValidateDelta.
StatusOr<EdgeDelta> ParseDeltaText(const std::string& text);

/// Reads a text-form file through ParseDeltaText: IOError when the file
/// cannot be opened, the parser's InvalidArgument (prefixed with the path)
/// otherwise. The asm_tool --apply-delta entry point.
StatusOr<EdgeDelta> LoadDeltaFile(const std::string& path);

/// Serializes to the text form (symbols, one op per line; digests emitted
/// only when non-zero). ParseDeltaText(FormatDeltaText(d)) == d.
std::string FormatDeltaText(const EdgeDelta& delta);

}  // namespace asti
