#include "layers.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "harness/experiment.h"
#include "mpi/mpi.h"
#include "soc/soc.h"
#include "workloads/microbench.h"
#include "workloads/npb.h"
#include "workloads/ume.h"

namespace perfbench {

using bridge::JobSpec;
using bridge::MicroOp;
using bridge::OpClass;
using bridge::TraceSourcePtr;
using bridge::WorkloadKind;

double nowSeconds() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// --- spans -----------------------------------------------------------------

std::int64_t SpanRecorder::open(std::string_view name, std::int64_t parent,
                                std::uint64_t request) {
  Span s;
  s.name = std::string(name);
  s.parent = parent;
  s.request = request;
  s.start = nowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanRecorder::close(std::int64_t id) {
  const double t = nowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<std::size_t>(id)).end = t;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanRecorder::writeJson(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                 "\"parent\":%lld,\"request\":%llu}%s\n",
                 i, s.name.c_str(), s.start, s.end,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 < all.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

std::vector<double> spanSelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<double, double>> iv;
    for (std::size_t c : children[i]) {
      const double a = std::max(s.start, spans[c].start);
      const double b = std::min(s.end, spans[c].end);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_a = 0.0;
    double cur_b = -1.0;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    out[i] = (s.end - s.start) - covered;
  }
  return out;
}

std::map<std::string, LayerTime> selfTimes(const std::vector<Span>& spans) {
  const std::vector<double> self = spanSelfTimes(spans);
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTime& t = out[spans[i].name];
    t.total_s += spans[i].end - spans[i].start;
    t.self_s += self[i];
    ++t.count;
  }
  return out;
}

// --- percentiles ------------------------------------------------------------

double percentileOf(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const std::size_t k = std::clamp<std::size_t>(
      static_cast<std::size_t>(rank), 1, samples.size());
  return samples[k - 1];
}

Percentile tailPercentile(std::vector<double> samples) {
  Percentile out;
  out.samples = samples.size();
  for (double p : {99.0, 90.0, 50.0}) {
    const std::size_t k = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(samples.size())));
    if (samples.size() >= k + 10 && k >= 1) {
      out.percentile = p;
      out.value = percentileOf(std::move(samples), p);
      return out;
    }
  }
  return out;
}

// --- chunked decorator ------------------------------------------------------

ChunkedTrace::ChunkedTrace(TraceSourcePtr inner, SpanRecorder* recorder,
                           const std::int64_t* parent, std::uint64_t request,
                           std::uint64_t* ops, std::vector<MemRecord>* capture)
    : inner_(std::move(inner)),
      recorder_(recorder),
      parent_(parent),
      request_(request),
      ops_(ops),
      capture_(capture) {
  buf_.reserve(kChunk);
}

bool ChunkedTrace::fill() {
  buf_.clear();
  pos_ = 0;
  if (done_) return false;
  const std::int64_t id =
      recorder_ ? recorder_->open("trace.fill", *parent_, request_) : -1;
  MicroOp op;
  while (buf_.size() < kChunk) {
    if (!inner_->next(&op)) {
      done_ = true;
      break;
    }
    buf_.push_back(op);
  }
  if (recorder_) recorder_->close(id);
  if (capture_) {
    for (const MicroOp& o : buf_) capture_->push_back({o.pc, o.addr, o.cls});
  }
  return !buf_.empty();
}

bool ChunkedTrace::next(MicroOp* out) {
  if (pos_ == buf_.size() && !fill()) return false;
  *out = buf_[pos_++];
  if (ops_) ++*ops_;
  return true;
}

// --- instrumented executor --------------------------------------------------

namespace {

/// Times a scope as a span when a recorder is present, and always adds the
/// elapsed seconds to `*acc`.
class Timed {
 public:
  Timed(SpanRecorder* rec, std::string_view name, std::int64_t parent,
        std::uint64_t request, double* acc)
      : rec_(rec), acc_(acc), t0_(nowSeconds()) {
    if (rec_) id_ = rec_->open(name, parent, request);
  }
  ~Timed() {
    if (rec_) rec_->close(id_);
    if (acc_) *acc_ += nowSeconds() - t0_;
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;
  std::int64_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  double* acc_;
  double t0_;
  std::int64_t id_ = -1;
};

/// The rank program executeJob builds for a multi-rank spec.
TraceSourcePtr rankTrace(const JobSpec& spec, int rank, int nranks) {
  if (spec.kind == WorkloadKind::kNpb) {
    bridge::NpbConfig c;
    c.scale = spec.scale;
    c.seed = spec.seed;
    c.mg_top = spec.npb_mg_top;
    return bridge::makeNpbRank(spec.npb, rank, nranks, c);
  }
  if (spec.kind == WorkloadKind::kUme) {
    bridge::UmeConfig c;
    c.zones_per_dim = spec.ume_zones_per_dim;
    c.scale = spec.scale;
    c.seed = spec.seed;
    return bridge::makeUmeRank(rank, nranks, c);
  }
  throw std::invalid_argument("perfbench: unsupported workload kind");
}

}  // namespace

JobRun runJob(const JobSpec& spec, SpanRecorder* rec, std::uint64_t request,
              std::vector<MemRecord>* capture) {
  JobRun out;
  double trace_s = 0.0;
  const double t0 = nowSeconds();
  std::int64_t job_id = rec ? rec->open("job", -1, request) : -1;
  std::int64_t run_id = -1;  // parent of the trace.fill spans
  const bridge::SocConfig cfg = bridge::resolveSocConfig(spec);

  auto wrap = [&](TraceSourcePtr t) -> TraceSourcePtr {
    if (rec == nullptr && capture == nullptr) return t;
    return std::make_unique<ChunkedTrace>(std::move(t), rec, &run_id,
                                          request, &out.trace_ops, capture);
  };

  if (spec.kind == WorkloadKind::kMicrobench) {
    std::unique_ptr<bridge::Soc> soc;
    {
      Timed t(rec, "soc.ctor", job_id, request, &out.soc_s);
      soc = std::make_unique<bridge::Soc>(cfg);
    }
    bridge::Cycle warm_cycles = 0;
    std::uint64_t warm_retired = 0;
    if (spec.warmup) {
      TraceSourcePtr w;
      {
        Timed t(rec, "trace.ctor", job_id, request, &trace_s);
        w = wrap(bridge::makeMicrobench(spec.kernel, spec.scale,
                                        spec.seed + bridge::kWarmupSeedOffset));
      }
      Timed t(rec, "sim.run", job_id, request, nullptr);
      run_id = t.id();
      warm_cycles = soc->runTrace(*w);
      warm_retired = soc->core(0).retired();
    }
    TraceSourcePtr trace;
    {
      Timed t(rec, "trace.ctor", job_id, request, &trace_s);
      trace = wrap(bridge::makeMicrobench(spec.kernel, spec.scale, spec.seed));
    }
    bridge::Cycle cycles = 0;
    {
      Timed t(rec, "sim.run", job_id, request, nullptr);
      run_id = t.id();
      cycles = soc->runTrace(*trace) - warm_cycles;
    }
    out.result.cycles = cycles;
    out.result.seconds = soc->seconds(cycles);
    out.result.retired = soc->core(0).retired() - warm_retired;
    out.result.ipc = cycles == 0 ? 0.0
                                 : static_cast<double>(out.result.retired) /
                                       static_cast<double>(cycles);
    out.stats = soc->stats().allCounters();
  } else {
    if (spec.ranks > 1 && capture != nullptr) {
      throw std::invalid_argument("perfbench: capture needs a 1-rank job");
    }
    std::unique_ptr<bridge::Soc> soc;
    {
      Timed t(rec, "soc.ctor", job_id, request, &out.soc_s);
      soc = std::make_unique<bridge::Soc>(cfg);
    }
    std::vector<TraceSourcePtr> traces;
    {
      Timed t(rec, "trace.ctor", job_id, request, &trace_s);
      for (int r = 0; r < spec.ranks; ++r) {
        traces.push_back(wrap(rankTrace(spec, r, spec.ranks)));
      }
    }
    bridge::MpiRunResult m;
    {
      Timed t(rec, "sim.run", job_id, request, nullptr);
      run_id = t.id();
      bridge::MpiSimulation sim(soc.get(), std::move(traces));
      m = sim.run();
    }
    out.result.cycles = m.cycles;
    out.result.seconds = soc->seconds(m.cycles);
    out.result.retired = m.retired;
    out.result.ipc = m.cycles == 0 ? 0.0
                                   : static_cast<double>(m.retired) /
                                         static_cast<double>(m.cycles);
    out.result.messages = m.messages;
    out.stats = soc->stats().allCounters();
  }
  if (rec) rec->close(job_id);
  out.setup_s = out.soc_s + trace_s;
  out.wall_s = nowSeconds() - t0;
  return out;
}

double setupSeconds(const JobSpec& spec) {
  const bridge::SocConfig cfg = bridge::resolveSocConfig(spec);
  std::vector<double> samples;
  for (int k = 0; k < kSetupSamples; ++k) {
    const double t0 = nowSeconds();
    const bridge::Soc soc(cfg);
    std::vector<TraceSourcePtr> traces;
    if (spec.kind == WorkloadKind::kMicrobench) {
      if (spec.warmup) {
        traces.push_back(bridge::makeMicrobench(
            spec.kernel, spec.scale, spec.seed + bridge::kWarmupSeedOffset));
      }
      traces.push_back(
          bridge::makeMicrobench(spec.kernel, spec.scale, spec.seed));
    } else {
      for (int r = 0; r < spec.ranks; ++r) {
        traces.push_back(rankTrace(spec, r, spec.ranks));
      }
    }
    samples.push_back(nowSeconds() - t0);
  }
  return median(samples);
}

JobRun executeTimed(const JobSpec& spec) {
  JobRun out;
  out.setup_s = setupSeconds(spec);
  const double t0 = nowSeconds();
  out.result = bridge::executeJob(spec, &out.stats);
  out.wall_s = nowSeconds() - t0;
  return out;
}

// --- memory replay ----------------------------------------------------------

ReplayTiming replayMemory(const std::vector<MemRecord>& ops,
                          const bridge::MemSysParams& params) {
  ReplayTiming out;
  std::uint64_t accesses = 0;
  {
    bridge::StatRegistry stats;
    bridge::MemoryHierarchy mem(1, params, &stats);
    bridge::Addr last_line = ~bridge::Addr{0};
    bridge::Cycle now = 0;
    const double t0 = nowSeconds();
    for (const MemRecord& op : ops) {
      const bridge::Addr line = bridge::lineAddr(op.pc);
      if (line != last_line) {
        last_line = line;
        now = std::max(now, mem.ifetch(0, op.pc, now).complete);
        ++accesses;
      }
      if (op.cls == OpClass::kLoad) {
        now = std::max(now, mem.load(0, op.pc, op.addr, now).complete);
        ++accesses;
      } else if (op.cls == OpClass::kStore) {
        now = std::max(now, mem.store(0, op.pc, op.addr, now).complete);
        ++accesses;
      }
    }
    const double dt = nowSeconds() - t0;
    out.timed_ns_per_access =
        accesses ? dt * 1e9 / static_cast<double>(accesses) : 0.0;
  }
  {
    bridge::StatRegistry stats;
    bridge::MemoryHierarchy mem(1, params, &stats);
    bridge::Addr last_line = ~bridge::Addr{0};
    const double t0 = nowSeconds();
    for (const MemRecord& op : ops) {
      const bridge::Addr line = bridge::lineAddr(op.pc);
      if (line != last_line) {
        last_line = line;
        mem.warmIfetch(0, op.pc);
      }
      if (op.cls == OpClass::kLoad) {
        mem.warmLoad(0, op.pc, op.addr);
      } else if (op.cls == OpClass::kStore) {
        mem.warmStore(0, op.pc, op.addr);
      }
    }
    const double dt = nowSeconds() - t0;
    out.warm_ns_per_access =
        accesses ? dt * 1e9 / static_cast<double>(accesses) : 0.0;
  }
  out.accesses = accesses;
  return out;
}

// --- calibration ------------------------------------------------------------

namespace {

struct Way {
  std::uint64_t tag = ~std::uint64_t{0};
  std::uint32_t lru = 0;
};

/// `accesses` lookups of an LCG address stream (three quarters of them in a
/// small hot region) in a 2048-set, 8-way LRU tag store; returns the hits.
std::uint64_t cacheKernel(std::vector<Way>& sets, std::uint32_t* clock,
                          std::uint64_t accesses) {
  std::uint64_t x = 12345, hits = 0;
  for (std::uint64_t i = 0; i < accesses; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    std::uint64_t line = (x >> 40) & 0xFFFFF;
    if ((x >> 20) & 3) line &= 0x3FFF;
    Way* set = &sets[(line & 2047) * 8];
    const std::uint64_t tag = line >> 11;
    int hit = -1, victim = 0;
    for (int w = 0; w < 8; ++w) {
      if (set[w].tag == tag) {
        hit = w;
        break;
      }
      if (set[w].lru < set[victim].lru) victim = w;
    }
    if (hit >= 0) {
      ++hits;
      set[hit].lru = ++*clock;
    } else {
      set[victim].tag = tag;
      set[victim].lru = ++*clock;
    }
  }
  return hits;
}

std::atomic<std::uint64_t> g_kernel_sink{0};

}  // namespace

double calibrationKernelSeconds() {
  thread_local std::vector<Way> sets(2048 * 8);
  thread_local std::uint32_t clock = 0;
  // Re-touch the table first: the job run before this one may have
  // evicted it, and that must not read as a slower host.
  std::uint64_t hits = cacheKernel(sets, &clock, 50'000);
  const double t0 = nowSeconds();
  hits += cacheKernel(sets, &clock, 300'000);
  const double dt = nowSeconds() - t0;
  g_kernel_sink += hits;
  return dt;
}

double hostScale() {
  thread_local std::vector<double> recent;
  thread_local std::size_t next = 0;
  const double k = calibrationKernelSeconds();
  if (recent.size() < kScaleWindow) {
    recent.push_back(k);
  } else {
    recent[next] = k;
    next = (next + 1) % kScaleWindow;
  }
  return kReferenceKernelSeconds / median(recent);
}

double setupKernelSeconds(const std::string& dir) {
  const double t0 = nowSeconds();
  for (int round = 0; round < 4; ++round) {
    std::vector<std::thread> threads;
    for (int i = 0; i < 3; ++i) threads.emplace_back([] {});
    for (std::thread& t : threads) t.join();
  }
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::runtime_error("perfbench: socketpair failed");
  }
  constexpr int kRoundTrips = 20;
  std::thread echo([&] {
    char c;
    for (int i = 0; i < kRoundTrips; ++i) {
      if (read(fds[1], &c, 1) != 1 || write(fds[1], &c, 1) != 1) break;
    }
  });
  char c = 'x';
  for (int i = 0; i < kRoundTrips; ++i) {
    if (write(fds[0], &c, 1) != 1 || read(fds[0], &c, 1) != 1) break;
  }
  echo.join();
  close(fds[0]);
  close(fds[1]);
  const std::filesystem::path sub = std::filesystem::path(dir) / "a" / "b";
  std::filesystem::create_directories(sub);
  for (int i = 0; i < 4; ++i) {
    const std::string name = "f" + std::to_string(i);
    std::ofstream(sub / name) << "perfbench";
    std::filesystem::rename(sub / name, sub.parent_path() / name);
  }
  std::filesystem::remove_all(dir);
  return nowSeconds() - t0;
}

std::vector<int> allowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) out.push_back(c);
  }
  return out;
}

void pinToCpus(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

void pinToCpu() {
  const int cpu = sched_getcpu();
  if (cpu >= 0) pinToCpus({cpu});
}

double peakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t counterSum(const bridge::StatsSnapshot& stats,
                         std::string_view suffix) {
  std::uint64_t sum = 0;
  for (const auto& [name, value] : stats) {
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      sum += value;
    }
  }
  return sum;
}

bool sameResult(const bridge::RunResult& a, const bridge::RunResult& b) {
  return a.cycles == b.cycles && a.retired == b.retired &&
         a.messages == b.messages && a.seconds == b.seconds && a.ipc == b.ipc;
}

}  // namespace perfbench
