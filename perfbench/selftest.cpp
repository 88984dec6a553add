// Self-tests of the benchmark's own arithmetic: op slicing, percentile
// reporting, windowed throughput and span stitching. Build and run with
//   python3 perfbench/run.py --selftest
// Exits nonzero on the first failed check.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core.hpp"
#include "workloads/cyclic.hpp"
#include "workloads/flash.hpp"
#include "workloads/tiledviz.hpp"

namespace {

using perfbench::ByteCount;
using pvfs::Extent;
using pvfs::io::AccessPattern;
using pvfs::obs::SpanRecord;

int g_failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                 \
      ++g_failures;                                                  \
    }                                                                \
  } while (0)

/// Every memory and file byte of `pattern` appears in exactly one op, the
/// ops keep the pattern's byte order, and each op has equal totals and at
/// most `max` file regions.
void CheckSlicing(const AccessPattern& pattern, std::uint32_t max) {
  const std::vector<AccessPattern> ops = perfbench::SliceIntoOps(pattern, max);
  auto flatten = [](const std::vector<Extent>& regions) {
    std::vector<ByteCount> bytes;
    for (const Extent& e : regions) {
      for (ByteCount b = 0; b < e.length; ++b) bytes.push_back(e.offset + b);
    }
    return bytes;
  };
  std::vector<ByteCount> mem, file;
  for (const AccessPattern& op : ops) {
    CHECK(op.file.size() <= max);
    CHECK(!op.file.empty());
    CHECK(pvfs::TotalBytes(op.memory) == op.total_bytes());
    for (ByteCount b : flatten(op.memory)) mem.push_back(b);
    for (ByteCount b : flatten(op.file)) file.push_back(b);
  }
  CHECK(mem == flatten(pattern.memory));
  CHECK(file == flatten(pattern.file));
  const std::size_t want_ops = (pattern.file.size() + max - 1) / max;
  CHECK(ops.size() == want_ops);
}

void TestSlicing() {
  // Contiguous memory, small regions (the cyclic shape, scaled down).
  pvfs::workloads::CyclicConfig cyclic{64 * 1024, 2, 256};
  CheckSlicing(pvfs::workloads::CyclicPattern(cyclic, 1), 64);
  // Region count not a multiple of the cap.
  CheckSlicing(pvfs::workloads::CyclicPattern(cyclic, 0), 60);
  // Tiled display rows.
  pvfs::workloads::TiledVizConfig tiled;
  tiled.tile_w = 16;
  tiled.tile_h = 100;
  tiled.overlap_x = 4;
  tiled.overlap_y = 3;
  CheckSlicing(pvfs::workloads::TiledVizPattern(tiled, 4), 64);
  // FLASH: 8-byte memory pieces against 4 KiB-style file regions.
  pvfs::workloads::FlashConfig flash;
  flash.nprocs = 2;
  flash.blocks_per_proc = 2;
  flash.nxb = flash.nyb = flash.nzb = 2;
  flash.nguard = 1;
  flash.nvars = 5;
  CheckSlicing(pvfs::workloads::FlashCheckpointPattern(flash, 1), 4);
  // A memory region that straddles an op boundary is split, not dropped.
  AccessPattern straddle;
  straddle.memory = {{100, 7}, {0, 5}};
  straddle.file = {{0, 3}, {10, 3}, {20, 3}, {30, 3}};
  CheckSlicing(straddle, 3);
  const auto ops = perfbench::SliceIntoOps(straddle, 3);
  CHECK(ops.size() == 2);
  CHECK(ops[0].memory.size() == 2 && ops[0].memory[1].offset == 0 &&
        ops[0].memory[1].length == 2);
  CHECK(ops[1].memory.size() == 1 && ops[1].memory[0].offset == 2 &&
        ops[1].memory[0].length == 3);
}

void TestPercentiles() {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);  // unsorted input
  perfbench::Percentile p50 = perfbench::TailPercentile(samples, 0.50);
  CHECK(p50.value == 50 && p50.samples == 100 && p50.beyond == 50);
  perfbench::Percentile p90 = perfbench::TailPercentile(samples, 0.90);
  CHECK(p90.value == 90 && p90.beyond == 10);
  perfbench::Percentile p99 = perfbench::TailPercentile(samples, 0.99);
  CHECK(p99.value == 99 && p99.beyond == 1);
  // Nearest rank rounds up: 7 samples, p50 is the 4th.
  perfbench::Percentile small =
      perfbench::TailPercentile({5, 1, 7, 3, 2, 6, 4}, 0.50);
  CHECK(small.value == 4 && small.beyond == 3);
  perfbench::Percentile one = perfbench::TailPercentile({42}, 0.90);
  CHECK(one.value == 42 && one.samples == 1 && one.beyond == 0);
  perfbench::Percentile none = perfbench::TailPercentile({}, 0.90);
  CHECK(none.samples == 0 && none.value == 0);
  CHECK(perfbench::Median({3, 1, 2}) == 2);
  CHECK(perfbench::Median({4, 1, 3, 2}) == 2.5);
  CHECK(perfbench::Median({}) == 0);
}

void TestWindows() {
  using perfbench::TimedOp;
  const std::vector<double> marks = {0, 1, 2, 3};
  // Inside window 0; straddling windows 1-2 (one quarter in 1); zero length
  // at t=2 (window 2); partly before the first mark (half counted).
  const std::vector<TimedOp> ops = {
      {0.2, 0.6, 100}, {1.5, 3.5, 400}, {2.0, 2.0, 7}, {-1.0, 1.0, 50}};
  const std::vector<double> b = perfbench::WindowBytes(ops, marks);
  auto near = [](double a, double want) { return std::fabs(a - want) < 1e-9; };
  CHECK(b.size() == 3);
  CHECK(near(b[0], 100 + 25));
  CHECK(near(b[1], 100));
  CHECK(near(b[2], 200 + 7));
  CHECK(perfbench::WindowBytes(ops, {0}).empty());
}

SpanRecord Span(const char* name, std::uint64_t id, std::uint64_t start,
                std::uint64_t dur, std::uint32_t thread) {
  SpanRecord s;
  s.name = name;
  s.request_id = id;
  s.start_ns = start;
  s.duration_ns = dur;
  s.thread = thread;
  return s;
}

void TestStitching() {
  using namespace perfbench;
  // Thread 1 runs two ops. Op A [0,1000) makes calls 11 [100,400) and
  // 12 [500,900); op B [2000,2600) makes call 13 [2100,2500). Daemon
  // threads 7 and 8 handle them.
  std::vector<SpanRecord> spans = {
      Span(kOpSpan, 0, 0, 1000, 1),
      Span(kCallSpan, 11, 100, 300, 1),
      Span(kCallSpan, 12, 500, 400, 1),
      Span(kOpSpan, 0, 2000, 600, 1),
      Span(kCallSpan, 13, 2100, 400, 1),
      Span(kHandleSpan, 11, 150, 200, 7),
      Span(kServeSpan, 11, 160, 150, 7),
      Span(kHandleSpan, 12, 550, 250, 8),
      Span(kServeSpan, 12, 600, 100, 8),
      Span(kHandleSpan, 13, 2200, 100, 7),
      Span(kServeSpan, 13, 2210, 60, 7),
  };
  const std::unordered_map<std::uint64_t, std::uint32_t> server_of = {
      {11, 0}, {12, 1}, {13, 0}};
  StitchedTrace t = StitchSpans(spans, server_of);
  CHECK(t.ops == 2);
  CHECK(t.op_ns == 1600);
  CHECK(t.op_call_ns == 1100);  // self time = 1600 - 1100 = 500
  CHECK(t.call_ns.size() == 3);
  CHECK(t.handles == 3 && t.stitched_calls == 3);
  CHECK(t.handle_ns == 550);
  CHECK(t.transit_ns == (300 - 200) + (400 - 250) + (400 - 100));
  CHECK(t.serves == 3 && t.serve_ns == 310);
  CHECK(t.codec_ns == (200 - 150) + (250 - 100) + (100 - 60));
  CHECK(t.unstitched == 0);
  CHECK(t.nesting_violations == 0);
  CHECK(t.handle_ns_by_server.at(0) == 300);
  CHECK(t.handle_ns_by_server.at(1) == 250);

  // A handle with no call is unstitched; a handle outliving its call and a
  // call running past its op are nesting violations.
  spans.push_back(Span(kHandleSpan, 99, 3000, 10, 7));
  spans.push_back(Span(kOpSpan, 0, 4000, 100, 2));
  spans.push_back(Span(kCallSpan, 14, 4050, 100, 2));  // ends after its op
  spans.push_back(Span(kHandleSpan, 14, 4060, 200, 8));  // outlives call 14
  t = StitchSpans(spans, server_of);
  CHECK(t.unstitched == 1);
  CHECK(t.nesting_violations == 2);
  // A manager span stitches to its call too but never counts as an iod.
  spans.push_back(Span(kCallSpan, 20, 5000, 50, 3));
  spans.push_back(Span(kManagerSpan, 20, 5010, 20, 9));
  t = StitchSpans(spans, server_of);
  CHECK(t.manager_handles == 1 && t.manager_handle_ns == 20);
  CHECK(t.unstitched == 1);
}

}  // namespace

int main() {
  TestSlicing();
  TestPercentiles();
  TestWindows();
  TestStitching();
  if (g_failures > 0) {
    std::fprintf(stderr, "perfbench selftest: %d checks failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
