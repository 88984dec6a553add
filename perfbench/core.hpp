// Pure helpers of the wall-clock benchmark, kept apart from the benchmark program so
// the self-tests (selftest.cpp) can exercise them without a cluster:
//
//   SliceIntoOps   — cut an access pattern into list-I/O ops of at most
//                    `max_file_regions` file regions (one paper "request"
//                    each), pairing each op with exactly the memory bytes
//                    its file regions consume.
//   TailPercentile — nearest-rank percentile with its sample counts.
//   WindowBytes    — bytes moved per time window, ops pro-rated.
//   StitchSpans    — join the spans of one traced pass by request id and
//                    thread nesting into per-layer times.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "io/access_pattern.hpp"
#include "obs/span.hpp"

namespace perfbench {

using pvfs::ByteCount;

/// Split `pattern` into consecutive ops of at most `max_file_regions` file
/// regions. Memory regions are cut where an op's byte total ends, so each
/// op's memory and file sides describe equal totals; memory offsets still
/// index the caller's whole buffer. Concatenating the ops in order gives
/// back the pattern's byte stream exactly.
std::vector<pvfs::io::AccessPattern> SliceIntoOps(
    const pvfs::io::AccessPattern& pattern, std::uint32_t max_file_regions);

/// One percentile of a sample set: the nearest-rank value (the smallest
/// sample with at least q*n samples at or below it), the sample count and
/// how many samples lie strictly beyond that rank.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

/// Nearest-rank percentile, q in (0, 1]. `samples` need not be sorted.
/// An empty set yields a zero Percentile.
Percentile TailPercentile(std::vector<double> samples, double q);

/// Median (mean of the middle pair for even counts); 0 when empty.
double Median(std::vector<double> values);

/// One completed op: its interval in seconds on the phase clock and the
/// user bytes it moved.
struct TimedOp {
  double start_s = 0.0;
  double end_s = 0.0;
  double bytes = 0.0;
};

/// Bytes moved in each window [marks[k], marks[k+1]), spreading every op's
/// bytes evenly over its interval so window throughputs are not quantized
/// to whole ops. An op of zero length counts in the window holding its end.
/// Returns marks.size() - 1 values.
std::vector<double> WindowBytes(const std::vector<TimedOp>& ops,
                                const std::vector<double>& marks);

/// Span names the benchmark stitches. `kOpSpan` is the benchmark's own span
/// around each op; the others are the spans the program already records.
inline constexpr const char* kOpSpan = "bench.op";
inline constexpr const char* kCallSpan = "client.call";
inline constexpr const char* kHandleSpan = "iod.handle";
inline constexpr const char* kServeSpan = "iod.serve";
inline constexpr const char* kManagerSpan = "manager.handle";

/// Per-layer times recovered from one traced pass. Durations in ns.
struct StitchedTrace {
  std::uint64_t ops = 0;              // bench.op spans
  std::uint64_t op_ns = 0;            // summed op durations
  std::uint64_t op_call_ns = 0;       // client.call time nested in ops
  std::vector<double> call_ns;        // every client.call duration
  std::uint64_t stitched_calls = 0;   // iod.handle spans matched to a call
  std::uint64_t transit_ns = 0;       // sum of (call - its iod.handle)
  std::uint64_t handles = 0;          // iod.handle spans
  std::uint64_t handle_ns = 0;
  std::uint64_t serves = 0;           // iod.serve spans matched to a handle
  std::uint64_t serve_ns = 0;
  std::uint64_t codec_ns = 0;         // sum of (handle - its iod.serve)
  std::uint64_t manager_handles = 0;
  std::uint64_t manager_handle_ns = 0;
  /// iod.handle spans whose request id matches no client.call.
  std::uint64_t unstitched = 0;
  /// Child spans not contained in their parent's interval (a call outside
  /// its op, a handle outside its call, a serve outside its handle).
  std::uint64_t nesting_violations = 0;
  /// Summed iod.handle time per server, for spans whose request id is in
  /// the `server_of` map given to StitchSpans.
  std::map<std::uint32_t, std::uint64_t> handle_ns_by_server;
};

/// Stitch `spans`: each iod.handle / manager.handle joins the client.call
/// carrying the same request id, each iod.serve joins the iod.handle with
/// its id, and each client.call joins the bench.op that encloses its start
/// on the same thread. `server_of` maps request ids to the iod they were
/// sent to (as recorded by the benchmark's transport wrapper).
StitchedTrace StitchSpans(
    const std::vector<pvfs::obs::SpanRecord>& spans,
    const std::unordered_map<std::uint64_t, std::uint32_t>& server_of);

}  // namespace perfbench
