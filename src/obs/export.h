// Exporter for MetricsSnapshot: Prometheus-style text exposition.
//
// The exporter is a pure function of the snapshot, emits entries in
// snapshot order (sorted — see MetricsRegistry::Snapshot), and applies each
// histogram's scale so time series recorded in nanoseconds read as
// seconds. Histogram buckets are emitted sparsely (only non-empty
// buckets, plus the +Inf/cumulative terminator), which keeps a 244-bucket
// grid's exposition proportional to the data actually observed.

#pragma once

#include <string>

#include "obs/metrics.h"

namespace asti {

/// Prometheus text exposition format:
///   # TYPE asti_requests_total counter
///   asti_requests_total{graph="wiki",algorithm="ASTI"} 42
///   asti_request_latency_seconds_bucket{graph="wiki",...,le="0.004"} 17
///   ...
///   asti_request_latency_seconds_sum{...} 1.25
///   asti_request_latency_seconds_count{...} 42
/// Bucket `le` bounds are the fixed grid's scaled BucketMax values;
/// bucket counts are cumulative, per the format.
std::string ExportPrometheusText(const MetricsSnapshot& snapshot);

}  // namespace asti
