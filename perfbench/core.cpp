#include "core.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

using pvfs::Extent;
using pvfs::io::AccessPattern;
using pvfs::obs::SpanRecord;

std::vector<AccessPattern> SliceIntoOps(const AccessPattern& pattern,
                                        std::uint32_t max_file_regions) {
  std::vector<AccessPattern> ops;
  if (max_file_regions == 0) return ops;
  std::size_t mem_idx = 0;
  ByteCount mem_used = 0;  // bytes of memory[mem_idx] already given out
  for (std::size_t f = 0; f < pattern.file.size(); f += max_file_regions) {
    const std::size_t f_end =
        std::min(pattern.file.size(), f + max_file_regions);
    AccessPattern op;
    op.file.assign(pattern.file.begin() + static_cast<std::ptrdiff_t>(f),
                   pattern.file.begin() + static_cast<std::ptrdiff_t>(f_end));
    ByteCount want = op.total_bytes();
    while (want > 0 && mem_idx < pattern.memory.size()) {
      const Extent& m = pattern.memory[mem_idx];
      const ByteCount take = std::min(m.length - mem_used, want);
      op.memory.push_back(Extent{m.offset + mem_used, take});
      want -= take;
      mem_used += take;
      if (mem_used == m.length) {
        ++mem_idx;
        mem_used = 0;
      }
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

Percentile TailPercentile(std::vector<double> samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  p.value = samples[rank - 1];
  p.beyond = samples.size() - rank;
  return p;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

std::vector<double> WindowBytes(const std::vector<TimedOp>& ops,
                                const std::vector<double>& marks) {
  std::vector<double> bytes(marks.size() > 1 ? marks.size() - 1 : 0, 0.0);
  for (const TimedOp& op : ops) {
    for (std::size_t k = 0; k < bytes.size(); ++k) {
      const double lo = marks[k], hi = marks[k + 1];
      if (op.end_s <= op.start_s) {
        if (op.end_s >= lo && op.end_s < hi) bytes[k] += op.bytes;
        continue;
      }
      const double overlap =
          std::min(op.end_s, hi) - std::max(op.start_s, lo);
      if (overlap > 0) {
        bytes[k] += op.bytes * overlap / (op.end_s - op.start_s);
      }
    }
  }
  return bytes;
}

namespace {

bool Named(const SpanRecord& span, const char* name) {
  return std::strcmp(span.name, name) == 0;
}

bool Contains(const SpanRecord& parent, const SpanRecord& child) {
  return child.start_ns >= parent.start_ns &&
         child.start_ns + child.duration_ns <=
             parent.start_ns + parent.duration_ns;
}

std::uint64_t Clamped(std::uint64_t parent, std::uint64_t child) {
  return parent > child ? parent - child : 0;
}

}  // namespace

StitchedTrace StitchSpans(
    const std::vector<SpanRecord>& spans,
    const std::unordered_map<std::uint64_t, std::uint32_t>& server_of) {
  StitchedTrace t;
  std::unordered_map<std::uint64_t, const SpanRecord*> call_by_id;
  std::unordered_map<std::uint64_t, const SpanRecord*> handle_by_id;
  // Ops per thread, in start order, for nesting client.call spans.
  std::unordered_map<std::uint32_t, std::vector<const SpanRecord*>> ops_by_thread;
  for (const SpanRecord& s : spans) {
    if (Named(s, kCallSpan)) {
      call_by_id[s.request_id] = &s;
      t.call_ns.push_back(static_cast<double>(s.duration_ns));
    } else if (Named(s, kHandleSpan)) {
      handle_by_id[s.request_id] = &s;
    } else if (Named(s, kOpSpan)) {
      ops_by_thread[s.thread].push_back(&s);
      ++t.ops;
      t.op_ns += s.duration_ns;
    }
  }
  for (auto& [thread, ops] : ops_by_thread) {
    std::sort(ops.begin(), ops.end(),
              [](const SpanRecord* a, const SpanRecord* b) {
                return a->start_ns < b->start_ns;
              });
  }

  for (const SpanRecord& s : spans) {
    if (Named(s, kCallSpan)) {
      auto it = ops_by_thread.find(s.thread);
      if (it == ops_by_thread.end()) continue;
      // The op that started last at or before this call's start.
      const auto& ops = it->second;
      auto after = std::upper_bound(
          ops.begin(), ops.end(), s.start_ns,
          [](std::uint64_t start, const SpanRecord* op) {
            return start < op->start_ns;
          });
      if (after == ops.begin()) continue;
      const SpanRecord& op = **std::prev(after);
      if (s.start_ns >= op.start_ns + op.duration_ns) continue;  // between ops
      if (!Contains(op, s)) ++t.nesting_violations;
      t.op_call_ns += s.duration_ns;
    } else if (Named(s, kHandleSpan) || Named(s, kManagerSpan)) {
      const bool iod = Named(s, kHandleSpan);
      if (iod) {
        ++t.handles;
        t.handle_ns += s.duration_ns;
        auto server = server_of.find(s.request_id);
        if (server != server_of.end()) {
          t.handle_ns_by_server[server->second] += s.duration_ns;
        }
      } else {
        ++t.manager_handles;
        t.manager_handle_ns += s.duration_ns;
      }
      auto call = call_by_id.find(s.request_id);
      if (s.request_id == 0 || call == call_by_id.end()) {
        if (iod) ++t.unstitched;
        continue;
      }
      if (!Contains(*call->second, s)) ++t.nesting_violations;
      if (iod) {
        ++t.stitched_calls;
        t.transit_ns += Clamped(call->second->duration_ns, s.duration_ns);
      }
    } else if (Named(s, kServeSpan)) {
      auto handle = handle_by_id.find(s.request_id);
      if (s.request_id == 0 || handle == handle_by_id.end()) continue;
      if (!Contains(*handle->second, s)) ++t.nesting_violations;
      ++t.serves;
      t.serve_ns += s.duration_ns;
      t.codec_ns += Clamped(handle->second->duration_ns, s.duration_ns);
    }
  }
  return t;
}

}  // namespace perfbench
