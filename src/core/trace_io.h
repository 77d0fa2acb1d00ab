// Persistence for adaptive run traces.
//
// Serializes AdaptiveRunTrace to a line-oriented text format (and back) so
// experiment campaigns can be archived and re-analyzed without re-running
// the policies. Format, one record per line:
//
//   trace <eta> <total_activated> <reached:0|1> <seconds> <total_samples>
//   round <idx> <shortfall> <newly> <truncated> <estimate> <samples> <secs>
//         ... followed on the same line by the round's seeds
//   end
//
// Multiple traces concatenate; Load returns them all.

#pragma once

#include <string>
#include <vector>

#include "core/trace.h"
#include "util/status.h"

namespace asti {

/// Serializes traces to the archive format.
std::string SerializeTraces(const std::vector<AdaptiveRunTrace>& traces);

/// Parses the archive format. A field that is not one whole in-range number,
/// or a leftover token, is InvalidArgument naming the line and the field.
StatusOr<std::vector<AdaptiveRunTrace>> ParseTraces(const std::string& text);

/// File round trip.
Status SaveTraces(const std::vector<AdaptiveRunTrace>& traces, const std::string& path);
StatusOr<std::vector<AdaptiveRunTrace>> LoadTraces(const std::string& path);

}  // namespace asti
