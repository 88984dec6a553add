// Wall-clock benchmark of the real (non-simulated) list-I/O data path.
//
// Drives one of three paper access patterns through
// io::MakeMethod(MethodType::kList) against an in-process
// net::SocketCluster of 4 iods over loopback TCP, with every server and
// client option at its shipped default. Two closed-loop client threads,
// each with its own Client and connections, issue ops (one ReadList /
// WriteList of at most 64 file regions) until the run time is spent.
//
//   perfbench --workload cyclic_read|tiledviz_read|flash_write
//             --seed N --seconds S --trace 0|1 [--commit SHA]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs an untraced and
// a traced pass and reports the per-layer metrics from the traced one.
// The last stdout line is the result JSON; the exit code is nonzero when
// any op failed or returned wrong bytes, or the trace does not stitch.
// See README.md in this directory for workloads and metrics.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <latch>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/wire.hpp"
#include "core.hpp"
#include "io/method.hpp"
#include "net/framing.hpp"
#include "net/socket_transport.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "pvfs/client.hpp"
#include "pvfs/store.hpp"
#include "workloads/cyclic.hpp"
#include "workloads/flash.hpp"
#include "workloads/tiledviz.hpp"

namespace perfbench {
namespace {

using pvfs::Client;
using pvfs::Extent;
using pvfs::FileOffset;
using pvfs::Status;
using pvfs::io::AccessPattern;
using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kServers = 4;
constexpr std::uint32_t kClients = 2;
constexpr pvfs::Striping kStriping{0, kServers, 16384};
constexpr const char* kFileName = "/perfbench/data";
/// Set-up is repeated this many times per untraced run; setup_s is the
/// median and the last deployment serves the timed phase.
constexpr int kSetupRepeats = 3;
/// Throughput and CPU are reported as the median over this many equal
/// windows of the timed phase.
constexpr int kWindows = 10;
constexpr ByteCount kPopulateChunk = 1 << 20;

// ---- Seeded inputs ---------------------------------------------------------

std::uint64_t SplitMix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<std::byte> SeededBytes(std::uint64_t seed, ByteCount n) {
  std::vector<std::byte> out(n);
  std::uint64_t state = seed;
  for (ByteCount i = 0; i < n; i += 8) {
    const std::uint64_t v = SplitMix(state);
    std::memcpy(out.data() + i, &v, std::min<ByteCount>(8, n - i));
  }
  return out;
}

std::vector<std::uint32_t> SeededOrder(std::uint64_t seed, std::size_t n) {
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  std::uint64_t state = seed;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[SplitMix(state) % i]);
  }
  return order;
}

// ---- Workloads -------------------------------------------------------------

struct Op {
  AccessPattern pattern;
  std::vector<pvfs::Segment> segments;  // matched (memory, file) runs
  std::uint32_t buffer = 0;  // index into ClientLoad::buffers
  ByteCount bytes = 0;
};

struct ClientLoad {
  std::vector<std::vector<std::byte>> buffers;
  std::vector<Op> ops;
  std::vector<std::uint32_t> order;  // seeded issue order, looped
};

struct Workload {
  std::string name;
  bool write = false;
  std::vector<std::byte> image;  // file contents written at set-up
  ByteCount fragment_bytes = 0;  // file-region size, for the store cells
  std::vector<ClientLoad> clients;
};

void AddOps(ClientLoad& load, const AccessPattern& pattern,
            std::uint32_t buffer) {
  for (AccessPattern& op : SliceIntoOps(pattern, pvfs::kMaxListRegions)) {
    const ByteCount bytes = op.total_bytes();
    std::vector<pvfs::Segment> segments = op.Segments().value();
    load.ops.push_back(Op{std::move(op), std::move(segments), buffer, bytes});
  }
}

std::optional<Workload> BuildWorkload(const std::string& name,
                                      std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.clients.resize(kClients);
  ByteCount file_bytes = 0;
  if (name == "cyclic_read") {
    // fig09: 16 MiB, 2 clients x 65,536 blocks of 128 B.
    pvfs::workloads::CyclicConfig cfg{16 * pvfs::kMiB, kClients, 65536};
    file_bytes = cfg.EffectiveTotal();
    w.fragment_bytes = cfg.BlockBytes();
    for (std::uint32_t c = 0; c < kClients; ++c) {
      w.clients[c].buffers.emplace_back(cfg.BytesPerClient());
      AddOps(w.clients[c], pvfs::workloads::CyclicPattern(cfg, c), 0);
    }
  } else if (name == "tiledviz_read") {
    // fig17: 3x2 wall, client r reads tiles r, r+2, r+4.
    pvfs::workloads::TiledVizConfig cfg;
    file_bytes = cfg.FileBytes();
    w.fragment_bytes = static_cast<ByteCount>(cfg.tile_w) * cfg.bytes_per_pixel;
    for (std::uint32_t c = 0; c < kClients; ++c) {
      for (std::uint32_t tile = c; tile < cfg.clients(); tile += kClients) {
        const auto buffer = static_cast<std::uint32_t>(w.clients[c].buffers.size());
        w.clients[c].buffers.emplace_back(cfg.TileBytes());
        AddOps(w.clients[c], pvfs::workloads::TiledVizPattern(cfg, tile), buffer);
      }
    }
  } else if (name == "flash_write") {
    // fig15: FLASH checkpoint, 16 blocks per process, 2 processes.
    pvfs::workloads::FlashConfig cfg;
    cfg.nprocs = kClients;
    cfg.blocks_per_proc = 16;
    w.write = true;
    file_bytes = cfg.FileBytes();
    w.fragment_bytes = cfg.FileChunkBytes();
    for (std::uint32_t c = 0; c < kClients; ++c) {
      w.clients[c].buffers.push_back(
          SeededBytes(seed * 7919 + 101 + c, cfg.MemBytesPerProc()));
      AddOps(w.clients[c], pvfs::workloads::FlashCheckpointPattern(cfg, c), 0);
    }
  } else {
    return std::nullopt;
  }
  w.image = SeededBytes(seed, file_bytes);
  for (std::uint32_t c = 0; c < kClients; ++c) {
    w.clients[c].order =
        SeededOrder(seed * 31 + 17 + c, w.clients[c].ops.size());
  }
  return w;
}

/// True when every byte `op` read into `buffer` equals the file image.
bool ReadMatches(const Op& op, const std::vector<std::byte>& buffer,
                 const std::vector<std::byte>& image) {
  return std::all_of(op.segments.begin(), op.segments.end(),
                     [&](const pvfs::Segment& seg) {
                       return std::memcmp(buffer.data() + seg.mem_offset,
                                          image.data() + seg.file_offset,
                                          seg.length) == 0;
                     });
}

// ---- Counting transport ----------------------------------------------------

/// Forwarding Transport that counts request and response bytes of iod
/// calls and, while recording, which iod each request id went to.
class CountingTransport final : public pvfs::Transport {
 public:
  explicit CountingTransport(std::unique_ptr<pvfs::Transport> inner)
      : inner_(std::move(inner)) {}

  pvfs::Result<std::vector<std::byte>> Call(
      const pvfs::Endpoint& dest, std::span<const std::byte> request) override {
    if (!dest.is_manager) {
      iod_calls_.fetch_add(1, std::memory_order_relaxed);
      request_bytes_.fetch_add(request.size(), std::memory_order_relaxed);
      if (recording_.load(std::memory_order_relaxed)) {
        std::lock_guard<std::mutex> lock(mu_);
        server_of_[pvfs::net::PeekTrailerId(request)] = dest.server;
      }
    }
    auto result = inner_->Call(dest, request);
    if (!dest.is_manager && result.ok()) {
      response_bytes_.fetch_add(result->size(), std::memory_order_relaxed);
    }
    return result;
  }

  std::uint32_t server_count() const override {
    return inner_->server_count();
  }

  struct Counts {
    std::uint64_t iod_calls = 0;
    std::uint64_t request_bytes = 0;
    std::uint64_t response_bytes = 0;
  };
  Counts counts() const {
    return {iod_calls_.load(), request_bytes_.load(), response_bytes_.load()};
  }
  void SetRecording(bool on) { recording_.store(on); }
  std::unordered_map<std::uint64_t, std::uint32_t> TakeServerMap() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(server_of_, {});
  }

 private:
  std::unique_ptr<pvfs::Transport> inner_;
  std::atomic<std::uint64_t> iod_calls_{0};
  std::atomic<std::uint64_t> request_bytes_{0};
  std::atomic<std::uint64_t> response_bytes_{0};
  std::atomic<bool> recording_{false};
  std::mutex mu_;
  std::unordered_map<std::uint64_t, std::uint32_t> server_of_;
};

// ---- Deployment ------------------------------------------------------------

struct Deployment {
  std::unique_ptr<pvfs::obs::Registry> registry;  // outlives the cluster
  std::unique_ptr<pvfs::net::SocketCluster> cluster;
};

/// Start the cluster, create the file and populate it with the image.
/// Returns the deployment, or nullptr after printing the failure.
std::unique_ptr<Deployment> Deploy(const Workload& w) {
  auto d = std::make_unique<Deployment>();
  d->registry = std::make_unique<pvfs::obs::Registry>();
  auto cluster = pvfs::net::SocketCluster::Start(kServers, pvfs::ServerConfig{},
                                                 0, d->registry.get());
  if (!cluster.ok()) {
    std::fprintf(stderr, "cluster start: %s\n",
                 cluster.status().ToString().c_str());
    return nullptr;
  }
  d->cluster = std::move(*cluster);
  auto transport = d->cluster->Connect(pvfs::net::ClientConfig{});
  Client client(transport.get(), Client::Options{});
  auto fd = client.Create(kFileName, kStriping);
  Status st = fd.status();
  for (ByteCount off = 0; st.ok() && off < w.image.size(); off += kPopulateChunk) {
    const ByteCount n = std::min<ByteCount>(kPopulateChunk, w.image.size() - off);
    st = client.Write(*fd, off, std::span(w.image).subspan(off, n));
  }
  if (st.ok()) st = client.Close(*fd);
  if (!st.ok()) {
    std::fprintf(stderr, "populate: %s\n", st.ToString().c_str());
    return nullptr;
  }
  return d;
}

struct Worker {
  std::unique_ptr<CountingTransport> transport;
  std::unique_ptr<Client> client;
  Client::Fd fd = -1;
  std::vector<bool> completed;  // op index -> written at least once
};

std::optional<std::vector<Worker>> OpenWorkers(Deployment& d,
                                               const Workload& w) {
  std::vector<Worker> workers(kClients);
  for (std::uint32_t c = 0; c < kClients; ++c) {
    Worker& wk = workers[c];
    wk.transport = std::make_unique<CountingTransport>(
        d.cluster->Connect(pvfs::net::ClientConfig{}));
    wk.client = std::make_unique<Client>(wk.transport.get(), Client::Options{});
    auto fd = wk.client->Open(kFileName);
    if (!fd.ok()) {
      std::fprintf(stderr, "open: %s\n", fd.status().ToString().c_str());
      return std::nullopt;
    }
    wk.fd = *fd;
    wk.completed.assign(w.clients[c].ops.size(), false);
  }
  return workers;
}

// ---- Timed phase -----------------------------------------------------------

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

struct PhaseResult {
  std::vector<double> latencies_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;
  std::vector<double> window_mibps;
  std::vector<double> window_cpu_ms_per_mib;
};

/// Run every client closed-loop for `seconds`; with `traced`, each op is
/// wrapped in a bench.op span.
PhaseResult RunPhase(Workload& w, std::vector<Worker>& workers, double seconds,
                     bool traced, int windows) {
  auto method = pvfs::io::MakeMethod(pvfs::io::MethodType::kList);
  std::vector<std::vector<double>> lat(kClients);
  std::vector<std::vector<TimedOp>> done(kClients);
  std::vector<std::uint64_t> attempted(kClients, 0), failed(kClients, 0);
  std::latch go(kClients + 1);
  Clock::time_point start, deadline;
  std::vector<std::jthread> threads;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientLoad& load = w.clients[c];
      Worker& wk = workers[c];
      go.arrive_and_wait();
      for (std::size_t i = 0; Clock::now() < deadline; ++i) {
        const std::uint32_t idx = load.order[i % load.order.size()];
        const Op& op = load.ops[idx];
        std::vector<std::byte>& buffer = load.buffers[op.buffer];
        if (!w.write) {
          for (const Extent& m : op.pattern.memory) {
            std::memset(buffer.data() + m.offset, 0xA5, m.length);
          }
        }
        const Clock::time_point t0 = Clock::now();
        Status st;
        {
          std::optional<pvfs::obs::ScopedSpan> span;
          if (traced) span.emplace(kOpSpan);
          st = w.write ? method->Write(*wk.client, wk.fd, op.pattern, buffer)
                       : method->Read(*wk.client, wk.fd, op.pattern, buffer);
        }
        const Clock::time_point t1 = Clock::now();
        lat[c].push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
        ++attempted[c];
        bool ok = st.ok();
        if (!ok) {
          std::fprintf(stderr, "client %u op %u: %s\n", c, idx,
                       st.ToString().c_str());
        } else if (!w.write && !ReadMatches(op, buffer, w.image)) {
          std::fprintf(stderr, "client %u op %u: read returned wrong bytes\n",
                       c, idx);
          ok = false;
        }
        if (!ok) {
          ++failed[c];
          continue;
        }
        if (w.write) wk.completed[idx] = true;
        done[c].push_back(TimedOp{Seconds(t0 - start), Seconds(t1 - start),
                                  static_cast<double>(op.bytes)});
      }
    });
  }
  start = Clock::now();
  deadline = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::vector<double> marks = {0.0};
  std::vector<double> cpu = {CpuSeconds()};
  go.arrive_and_wait();
  for (int k = 1; k <= windows; ++k) {
    std::this_thread::sleep_until(start + (deadline - start) * k / windows);
    marks.push_back(Seconds(Clock::now() - start));
    cpu.push_back(CpuSeconds());
  }
  threads.clear();  // join

  PhaseResult r;
  r.wall_s = Seconds(Clock::now() - start);
  std::vector<TimedOp> all;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    r.latencies_ms.insert(r.latencies_ms.end(), lat[c].begin(), lat[c].end());
    all.insert(all.end(), done[c].begin(), done[c].end());
    r.attempted += attempted[c];
    r.failed += failed[c];
  }
  const std::vector<double> bytes = WindowBytes(all, marks);
  for (int k = 0; k < windows; ++k) {
    const double mib = bytes[k] / pvfs::kMiB;
    r.window_mibps.push_back(mib / (marks[k + 1] - marks[k]));
    r.window_cpu_ms_per_mib.push_back(mib > 0 ? (cpu[k + 1] - cpu[k]) * 1e3 / mib
                                              : 0.0);
  }
  return r;
}

/// After a write workload, read the whole file back and compare it with
/// the set-up image overwritten by every op that completed. Returns the
/// number of failed checks (each mismatching op, plus one for any other
/// mismatch) and prints what it found.
std::uint64_t VerifyWrittenFile(Deployment& d, const Workload& w,
                                const std::vector<Worker>& workers) {
  std::vector<std::byte> expected = w.image;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    const ClientLoad& load = w.clients[c];
    for (std::size_t i = 0; i < load.ops.size(); ++i) {
      if (!workers[c].completed[i]) continue;
      const Op& op = load.ops[i];
      for (const pvfs::Segment& seg : op.segments) {
        std::memcpy(expected.data() + seg.file_offset,
                    load.buffers[op.buffer].data() + seg.mem_offset, seg.length);
      }
    }
  }
  auto transport = d.cluster->Connect(pvfs::net::ClientConfig{});
  Client client(transport.get(), Client::Options{});
  auto fd = client.Open(kFileName);
  std::vector<std::byte> actual(expected.size());
  Status st = fd.status();
  for (ByteCount off = 0; st.ok() && off < actual.size(); off += kPopulateChunk) {
    const ByteCount n = std::min<ByteCount>(kPopulateChunk, actual.size() - off);
    st = client.Read(*fd, off, std::span(actual).subspan(off, n));
  }
  if (!st.ok()) {
    std::fprintf(stderr, "readback: %s\n", st.ToString().c_str());
    return 1;
  }
  std::uint64_t failed = 0;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    const ClientLoad& load = w.clients[c];
    for (const Op& op : load.ops) {
      bool ok = true;
      for (const Extent& f : op.pattern.file) {
        ok = ok && std::memcmp(actual.data() + f.offset,
                               expected.data() + f.offset, f.length) == 0;
      }
      failed += ok ? 0 : 1;
    }
  }
  if (failed == 0 && actual != expected) failed = 1;
  if (failed > 0) {
    std::fprintf(stderr, "readback: %" PRIu64 " ops left wrong bytes\n", failed);
  }
  return failed;
}

// ---- Calibration and layer cells -------------------------------------------

/// Calibration results land here so the timed loops cannot be elided.
volatile std::uint32_t g_sink = 0;

/// CRC32C throughput over a 256 KiB buffer (one store chunk), MB/s.
double CalibrateCrc() {
  const std::vector<std::byte> buf = SeededBytes(7, 256 * 1024);
  std::uint32_t crc = 0;
  int reps = 0;
  const Clock::time_point t0 = Clock::now();
  while (Clock::now() - t0 < std::chrono::milliseconds(300)) {
    crc = pvfs::Crc32c(buf, crc);
    ++reps;
  }
  const double s = Seconds(Clock::now() - t0);
  g_sink = crc;
  return static_cast<double>(buf.size()) * reps / 1e6 / s;
}

/// memcpy bandwidth between two 16 MiB buffers, GB/s.
double CalibrateMemcpy() {
  std::vector<std::byte> src = SeededBytes(11, 16 * pvfs::kMiB);
  std::vector<std::byte> dst(src.size());
  int reps = 0;
  const Clock::time_point t0 = Clock::now();
  while (Clock::now() - t0 < std::chrono::milliseconds(200)) {
    std::memcpy(dst.data(), src.data(), src.size());
    ++reps;
  }
  const double s = Seconds(Clock::now() - t0);
  g_sink = static_cast<std::uint32_t>(dst[reps % dst.size()]);
  return static_cast<double>(src.size()) * reps / 1e9 / s;
}

struct StoreCells {
  double read_us_per_access = 0.0;
  double writev_us_per_request = 0.0;
};

/// LocalStore called directly on a fresh store, with the workload's own
/// fragment size: reads of one fragment, and WriteV of 64 fragments spaced
/// two fragments apart (the two clients interleave).
std::optional<StoreCells> MeasureStore(ByteCount fragment) {
  pvfs::LocalStore store;
  const pvfs::FileHandle h = 1;
  const std::vector<std::byte> data = SeededBytes(5, 4 * pvfs::kMiB);
  for (ByteCount off = 0; off < data.size(); off += pvfs::LocalStore::kChunkBytes) {
    store.Write(h, off, std::span(data).subspan(off, pvfs::LocalStore::kChunkBytes));
  }
  StoreCells cells;
  std::vector<std::byte> out(fragment);
  constexpr int kReads = 256;
  const ByteCount span_bytes = data.size() - fragment;
  Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kReads; ++i) {
    const FileOffset off = (static_cast<ByteCount>(i) * 2 * fragment) % span_bytes;
    if (!store.Read(h, off, out).ok()) return std::nullopt;
  }
  cells.read_us_per_access = Seconds(Clock::now() - t0) * 1e6 / kReads;

  constexpr int kWrites = 16;
  std::vector<pvfs::LocalStore::WritePiece> pieces;
  for (ByteCount p = 0; p < pvfs::kMaxListRegions; ++p) {
    const FileOffset off = (p * 2 * fragment) % span_bytes;
    pieces.push_back({off, std::span(data).subspan(off + fragment, fragment)});
  }
  t0 = Clock::now();
  for (int i = 0; i < kWrites; ++i) store.WriteV(h, pieces);
  cells.writev_us_per_request = Seconds(Clock::now() - t0) * 1e6 / kWrites;
  return cells;
}

// ---- Counter snapshots -----------------------------------------------------

struct Counters {
  pvfs::ClientStats client;
  std::uint64_t retries = 0;
  std::uint64_t busy_rejections = 0;
  CountingTransport::Counts net;
  std::uint64_t iod_requests = 0;
  std::uint64_t iod_regions = 0;
  std::uint64_t iod_local_accesses = 0;
  std::uint64_t iod_store_ops = 0;
  double wait_sum_us = 0.0;
  std::uint64_t wait_count = 0;
};

Counters Snapshot(Deployment& d, const std::vector<Worker>& workers) {
  Counters c;
  for (const Worker& wk : workers) {
    const pvfs::ClientStats s = wk.client->stats();
    c.client.operations += s.operations;
    c.client.fs_requests += s.fs_requests;
    c.client.messages += s.messages;
    c.client.regions_sent += s.regions_sent;
    c.client.manager_messages += s.manager_messages;
    const Client::RetryCounters r = wk.client->retry_counters();
    c.retries += r.retries;
    c.busy_rejections += r.busy_rejections;
    const CountingTransport::Counts n = wk.transport->counts();
    c.net.iod_calls += n.iod_calls;
    c.net.request_bytes += n.request_bytes;
    c.net.response_bytes += n.response_bytes;
  }
  for (pvfs::ServerId s = 0; s < kServers; ++s) {
    const auto& st = d.cluster->iod(s).stats();
    c.iod_requests += st.requests.load();
    c.iod_regions += st.regions.load();
    c.iod_local_accesses += st.local_accesses.load();
    c.iod_store_ops += st.store_ops.load();
    auto& hist = d.registry->Histogram("iod.admission.queue_wait_us",
                                       {{"server", std::to_string(s)}});
    c.wait_sum_us += hist.sum();
    c.wait_count += hist.count();
  }
  return c;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---- Output ----------------------------------------------------------------

struct Metrics {
  pvfs::obs::JsonValue json = pvfs::obs::JsonValue::Object();

  void Add(const std::string& name, double value, const char* unit,
           const std::string& note = "") {
    pvfs::obs::JsonValue m = pvfs::obs::JsonValue::Object();
    m.Set("value", pvfs::obs::JsonValue(value));
    m.Set("unit", pvfs::obs::JsonValue(unit));
    json.Set(name, std::move(m));
    std::printf("  %-32s %14.6g %-6s %s\n", name.c_str(), value, unit,
                note.c_str());
  }
};

std::string PercentileNote(const Percentile& p) {
  return "(n=" + std::to_string(p.samples) + ", " + std::to_string(p.beyond) +
         " beyond" + (p.beyond < 10 ? ", fewer than 10: unreliable)" : ")");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::strtoull(val, nullptr, 10);
    else if (key == "--seconds") a.seconds = std::strtod(val, nullptr);
    else if (key == "--trace") a.trace = std::strcmp(val, "0") != 0;
    else if (key == "--commit") a.commit = val;
    else return std::nullopt;
  }
  if (a.workload.empty() || !(a.seconds > 0)) return std::nullopt;
  return a;
}

struct Calibration {
  double crc32c_mbps = 0.0;
  double memcpy_gbps = 0.0;
};

void PrintFingerprint(const Args& a, const Calibration& cal) {
  pvfs::obs::JsonValue f = pvfs::obs::JsonValue::Object();
  f.Set("workload", pvfs::obs::JsonValue(a.workload));
  f.Set("seed", pvfs::obs::JsonValue(a.seed));
  f.Set("nproc", pvfs::obs::JsonValue(
                     static_cast<std::uint64_t>(std::thread::hardware_concurrency())));
  f.Set("compiler", pvfs::obs::JsonValue(PERFBENCH_COMPILER));
  f.Set("build_type", pvfs::obs::JsonValue(PERFBENCH_BUILD_TYPE));
#if defined(__x86_64__) || defined(__i386__)
  f.Set("sse4_2", pvfs::obs::JsonValue(__builtin_cpu_supports("sse4.2") != 0));
#else
  f.Set("sse4_2", pvfs::obs::JsonValue(false));
#endif
  f.Set("commit", pvfs::obs::JsonValue(a.commit));
  f.Set("wire.crc32c_MBps", pvfs::obs::JsonValue(cal.crc32c_mbps));
  f.Set("box.memcpy_GBps", pvfs::obs::JsonValue(cal.memcpy_gbps));
  pvfs::obs::JsonValue line = pvfs::obs::JsonValue::Object();
  line.Set("fingerprint", std::move(f));
  std::printf("%s\n", line.Dump().c_str());
}

/// Ops attempted and failed, summed over phases and the write readback.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void Add(const PhaseResult& r) {
    attempted += r.attempted;
    failed += r.failed;
  }
};

void ReportEndToEnd(const PhaseResult& timed, const std::vector<double>& setup_s,
                    Metrics& out) {
  const Percentile p50 = TailPercentile(timed.latencies_ms, 0.50);
  const Percentile p90 = TailPercentile(timed.latencies_ms, 0.90);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const std::string windows = "(median of " + std::to_string(kWindows) + " windows)";
  out.Add("throughput_MiBps", Median(timed.window_mibps), "MiB/s", windows);
  out.Add("op_p50_ms", p50.value, "ms", PercentileNote(p50));
  out.Add("op_p90_ms", p90.value, "ms", PercentileNote(p90));
  out.Add("cpu_ms_per_MiB", Median(timed.window_cpu_ms_per_mib), "ms/MiB", windows);
  out.Add("setup_s", Median(setup_s), "s",
          "(median of " + std::to_string(setup_s.size()) + ")");
  out.Add("peak_rss_MiB", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB");
}

/// Run the traced phase after the untraced one (`untraced`) and report the
/// per-layer metrics. Returns false when the trace does not stitch or a
/// store check fails.
bool ReportLayers(Workload& w, Deployment& d, std::vector<Worker>& workers,
                  double phase_s, const PhaseResult& untraced,
                  const std::vector<pvfs::obs::SpanRecord>& setup_spans,
                  const Calibration& cal, Metrics& out, Tally& tally) {
  const Counters before = Snapshot(d, workers);
  for (Worker& wk : workers) wk.transport->SetRecording(true);
  pvfs::obs::SetSpanTracing(true);
  const PhaseResult traced = RunPhase(w, workers, phase_s, true, kWindows);
  pvfs::obs::SetSpanTracing(false);
  const std::vector<pvfs::obs::SpanRecord> spans = pvfs::obs::DrainSpans();
  const Counters after = Snapshot(d, workers);
  tally.Add(traced);

  std::unordered_map<std::uint64_t, std::uint32_t> server_of;
  for (Worker& wk : workers) {
    wk.transport->SetRecording(false);
    server_of.merge(wk.transport->TakeServerMap());
  }
  const StitchedTrace t = StitchSpans(spans, server_of);
  const StitchedTrace st = StitchSpans(setup_spans, {});
  const double ops = static_cast<double>(traced.attempted);
  const double msgs =
      static_cast<double>(after.client.messages - before.client.messages);
  const double iod_reqs =
      static_cast<double>(after.iod_requests - before.iod_requests);
  const double calls =
      static_cast<double>(after.net.iod_calls - before.net.iod_calls);
  double busiest_ns = 0;
  for (const auto& [server, ns] : t.handle_ns_by_server) {
    busiest_ns = std::max(busiest_ns, static_cast<double>(ns));
  }
  const Percentile call50 = TailPercentile(t.call_ns, 0.50);
  const Percentile call90 = TailPercentile(t.call_ns, 0.90);
  const std::optional<StoreCells> store_cells = MeasureStore(w.fragment_bytes);
  const StoreCells store = store_cells.value_or(StoreCells{});
  pvfs::LocalStore::IntegrityCounters integ;
  for (pvfs::ServerId s = 0; s < kServers; ++s) {
    const auto i = d.cluster->iod(s).store().integrity();
    integ.read_corruptions += i.read_corruptions;
    integ.journal_replays += i.journal_replays;
  }
  const std::uint64_t unstitched = t.unstitched + st.unstitched;
  const std::uint64_t violations = t.nesting_violations + st.nesting_violations;
  const double untraced_mibps = Median(untraced.window_mibps);

  out.Add("client.self_us_per_op", Ratio(t.op_ns - t.op_call_ns, t.ops) / 1e3, "us");
  out.Add("client.calls_per_op", Ratio(msgs, ops), "count");
  out.Add("client.fs_requests_per_op",
          Ratio(after.client.fs_requests - before.client.fs_requests, ops), "count");
  out.Add("client.regions_per_message",
          Ratio(after.client.regions_sent - before.client.regions_sent, msgs), "count");
  out.Add("client.retries", after.retries - before.retries, "count");
  out.Add("client.busy_rejections", after.busy_rejections - before.busy_rejections,
          "count");
  out.Add("net.call_p50_us", call50.value / 1e3, "us", PercentileNote(call50));
  out.Add("net.call_p90_us", call90.value / 1e3, "us", PercentileNote(call90));
  out.Add("net.transit_us_per_call", Ratio(t.transit_ns, t.stitched_calls) / 1e3, "us");
  out.Add("net.request_bytes_per_call",
          Ratio(after.net.request_bytes - before.net.request_bytes, calls), "B");
  out.Add("net.response_bytes_per_call",
          Ratio(after.net.response_bytes - before.net.response_bytes, calls), "B");
  out.Add("iod.admission_wait_us",
          Ratio(after.wait_sum_us - before.wait_sum_us,
                after.wait_count - before.wait_count), "us");
  out.Add("iod.handle_us_per_call", Ratio(t.handle_ns, t.handles) / 1e3, "us");
  out.Add("iod.codec_us_per_call", Ratio(t.codec_ns, t.serves) / 1e3, "us");
  out.Add("iod.serve_us_per_call", Ratio(t.serve_ns, t.serves) / 1e3, "us");
  out.Add("iod.busy_frac", Ratio(busiest_ns, traced.wall_s * 1e9), "frac");
  out.Add("iod.regions_per_request",
          Ratio(after.iod_regions - before.iod_regions, iod_reqs), "count");
  out.Add("iod.local_accesses_per_request",
          Ratio(after.iod_local_accesses - before.iod_local_accesses, iod_reqs),
          "count");
  out.Add("iod.store_ops_per_request",
          Ratio(after.iod_store_ops - before.iod_store_ops, iod_reqs), "count");
  out.Add("store.read_us_per_access", store.read_us_per_access, "us");
  out.Add("store.writev_us_per_request", store.writev_us_per_request, "us");
  out.Add("store.read_corruptions", integ.read_corruptions, "count");
  out.Add("store.journal_replays", integ.journal_replays, "count");
  out.Add("wire.crc32c_MBps", cal.crc32c_mbps, "MB/s");
  out.Add("box.memcpy_GBps", cal.memcpy_gbps, "GB/s");
  out.Add("manager.messages_per_op",
          Ratio(after.client.manager_messages - before.client.manager_messages, ops),
          "count");
  out.Add("manager.handle_us", Ratio(st.manager_handle_ns, st.manager_handles) / 1e3,
          "us");
  out.Add("trace.overhead_frac",
          1.0 - Ratio(Median(traced.window_mibps), untraced_mibps), "frac",
          "(untraced " + std::to_string(untraced_mibps) + " MiB/s)");
  out.Add("trace.unstitched_spans", unstitched, "count");

  bool ok = true;
  if (!store_cells) {
    std::fprintf(stderr, "store: read on the fresh store failed\n");
    ok = false;
  }
  if (unstitched > 0 || violations > 0) {
    std::fprintf(stderr,
                 "trace: %" PRIu64 " unstitched spans, %" PRIu64
                 " children outlasting their parent\n",
                 unstitched, violations);
    ok = false;
  }
  if (integ.read_corruptions > 0 || integ.journal_replays > 0) {
    std::fprintf(stderr, "store: integrity counters are not zero\n");
    ok = false;
  }
  return ok;
}

int Run(const Args& args) {
  auto built = BuildWorkload(args.workload, args.seed);
  if (!built) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Workload& w = *built;
  const Calibration cal{CalibrateCrc(), CalibrateMemcpy()};
  PrintFingerprint(args, cal);

  // Set-up: repeated untraced (setup_s is their median); traced once in a
  // trace run so manager.handle spans cover file creation and opens.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  const int repeats = args.trace ? 1 : kSetupRepeats;
  pvfs::obs::SetSpanTracing(args.trace);
  for (int i = 0; i < repeats; ++i) {
    d.reset();
    const Clock::time_point t0 = Clock::now();
    d = Deploy(w);
    if (!d) return 1;
    setup_s.push_back(Seconds(Clock::now() - t0));
  }
  auto workers = OpenWorkers(*d, w);
  if (!workers) return 1;
  pvfs::obs::SetSpanTracing(false);
  const std::vector<pvfs::obs::SpanRecord> setup_spans = pvfs::obs::DrainSpans();

  // A trace run splits its time between the untraced and the traced phase.
  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  Tally tally;
  tally.Add(RunPhase(w, *workers, std::min(1.0, args.seconds / 10), false, 1));
  const PhaseResult timed = RunPhase(w, *workers, phase_s, false, kWindows);
  tally.Add(timed);

  std::printf("%s  %s  seed %" PRIu64 "  %g s  trace %d\n", w.name.c_str(),
              w.write ? "write" : "read", args.seed, args.seconds, args.trace);
  Metrics out;
  bool correct = true;
  if (args.trace) {
    correct = ReportLayers(w, *d, *workers, phase_s, timed, setup_spans, cal, out,
                           tally);
  } else {
    ReportEndToEnd(timed, setup_s, out);
  }
  if (w.write) tally.failed += VerifyWrittenFile(*d, w, *workers);
  std::printf("  %-32s %14" PRIu64 " of %" PRIu64 " attempted\n", "failed_ops",
              tally.failed, tally.attempted);
  correct = correct && tally.failed == 0 && tally.attempted > 0;

  pvfs::obs::JsonValue result = pvfs::obs::JsonValue::Object();
  result.Set("correct", pvfs::obs::JsonValue(correct));
  result.Set("attempted", pvfs::obs::JsonValue(tally.attempted));
  result.Set("failed", pvfs::obs::JsonValue(tally.failed));
  result.Set("metrics", std::move(out.json));
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  auto args = perfbench::ParseArgs(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--commit SHA]\n");
    return 2;
  }
  return perfbench::Run(*args);
}
