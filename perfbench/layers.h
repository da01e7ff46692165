// Measurement primitives of the benchmark: spans, self times, percentiles,
// the chunked trace decorator, an instrumented job executor, and the
// memory-hierarchy replay.
//
// Everything here times calls into the simulator's public functions from
// outside; nothing under src/ is instrumented.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "sweep/job.h"
#include "trace/trace_source.h"

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double nowSeconds();

/// Median of `values` (0 for an empty list).
double median(std::vector<double> values);

/// One timed interval at a layer boundary. Spans of one request (simulator
/// job or serve request) share `request`; `parent` is the id of the span
/// that caused this one, -1 for a root.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

/// In-memory span store, written out once when the benchmark ends.
/// Thread-safe: the serve workloads record from two client threads.
class SpanRecorder {
 public:
  /// Opens a span starting now; returns its id.
  std::int64_t open(std::string_view name, std::int64_t parent,
                    std::uint64_t request);
  /// Closes span `id` now.
  void close(std::int64_t id);

  std::vector<Span> spans() const;
  /// JSON array of spans; false if the file cannot be written.
  bool writeJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Self time of every span, in span order.
std::vector<double> spanSelfTimes(const std::vector<Span>& spans);

/// Per-name totals: wall time of every span with that name, the part of it
/// not covered by its children, and the number of spans.
struct LayerTime {
  double total_s = 0.0;
  double self_s = 0.0;
  std::uint64_t count = 0;
};

/// A span's self time is its duration minus the union of its children's
/// intervals clipped to it.
std::map<std::string, LayerTime> selfTimes(const std::vector<Span>& spans);

/// The highest of the percentiles {99, 90, 50} that leaves at least ten
/// samples above it, with the sample count; `percentile` is 0 when fewer
/// than 20 samples exist (even the median would have fewer than ten beyond).
struct Percentile {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
};
Percentile tailPercentile(std::vector<double> samples);
/// Nearest-rank percentile `p` in (0, 100] of `samples` (0 if empty).
double percentileOf(std::vector<double> samples, double p);

/// Memory-relevant part of a micro-op, as captured for replay.
struct MemRecord {
  bridge::Addr pc = 0;
  bridge::Addr addr = 0;
  bridge::OpClass cls = bridge::OpClass::kNop;
};

/// Decorator that pulls micro-ops from the wrapped source in chunks, timing
/// each chunk fill as a "trace.fill" span under `*parent`. Generators are
/// pure functions of their configuration, so reading ahead leaves the op
/// sequence, and with it every simulated cycle, unchanged. Optionally
/// records each op's memory-relevant fields for the replay.
class ChunkedTrace final : public bridge::TraceSource {
 public:
  static constexpr std::size_t kChunk = 4096;

  /// `recorder` may be null (no spans); `ops`, if given, counts every op
  /// handed out; `capture`, if given, receives every op's memory fields.
  ChunkedTrace(bridge::TraceSourcePtr inner, SpanRecorder* recorder,
               const std::int64_t* parent, std::uint64_t request,
               std::uint64_t* ops = nullptr,
               std::vector<MemRecord>* capture = nullptr);

  bool next(bridge::MicroOp* out) override;
  const std::string& name() const override { return inner_->name(); }

 private:
  bool fill();

  bridge::TraceSourcePtr inner_;
  SpanRecorder* recorder_;
  const std::int64_t* parent_;
  std::uint64_t request_;
  std::uint64_t* ops_;
  std::vector<MemRecord>* capture_;
  std::vector<bridge::MicroOp> buf_;
  std::size_t pos_ = 0;
  bool done_ = false;
};

/// One job run through bridge::executeJob (executeTimed) or through the
/// instrumented executor (runJob).
struct JobRun {
  bridge::RunResult result;
  bridge::StatsSnapshot stats;
  double wall_s = 0.0;   // whole job, construction included
  double setup_s = 0.0;  // SoC + trace-program construction
  double soc_s = 0.0;    // SoC construction alone (runJob only)
  std::uint64_t trace_ops = 0;  // ops generated (runJob only)
};

/// Construction is a few milliseconds and its time varies with the heap
/// state, so setupSeconds builds this many times and reports the median.
inline constexpr int kSetupSamples = 3;

/// Median host seconds, over kSetupSamples builds, to construct what
/// bridge::executeJob constructs before it runs `spec`: the SoC and the
/// job's trace programs.
double setupSeconds(const bridge::JobSpec& spec);

/// Runs `spec` through bridge::executeJob, the program's own entry point,
/// timing the call; `setup_s` is setupSeconds(spec), measured before it.
JobRun executeTimed(const bridge::JobSpec& spec);

/// Runs `spec` (microbench, NPB or UME) exactly as bridge::executeJob does,
/// but builds the SoC and the rank programs itself so their construction
/// can be timed apart from the run. With a recorder, spans "soc.ctor",
/// "trace.ctor", "sim.run" and (through ChunkedTrace) "trace.fill" are
/// recorded under a "job" span; `capture`, if given, receives the
/// memory-relevant fields of the job's ops (single-core programs only).
JobRun runJob(const bridge::JobSpec& spec, SpanRecorder* recorder = nullptr,
              std::uint64_t request = 0,
              std::vector<MemRecord>* capture = nullptr);

/// Host nanoseconds per access of one replay of a captured op stream
/// through a standalone MemoryHierarchy built from `params`.
struct ReplayTiming {
  double timed_ns_per_access = 0.0;
  double warm_ns_per_access = 0.0;
  std::uint64_t accesses = 0;
};
ReplayTiming replayMemory(const std::vector<MemRecord>& ops,
                          const bridge::MemSysParams& params);

/// Host-speed calibration. The host's throughput drifts by tens of percent
/// over seconds as other tenants load the machine, and a job list run twice
/// in a row can differ by 20%. A fixed kernel shaped like the simulator's
/// hot loops (set-associative tag search with LRU update over an L2-sized
/// table) slows down with it, so timed figures are scaled by
/// kReferenceKernelSeconds / calibrationKernelSeconds() measured next to
/// them: they read as seconds on a reference host where the kernel takes
/// kReferenceKernelSeconds. The kernel does not call the simulator, so a
/// change to the program moves only the measured side.
inline constexpr double kReferenceKernelSeconds = 0.005;
/// Host seconds of one run of the calibration kernel (table warmed first)
/// on the calling thread.
double calibrationKernelSeconds();

/// A single 5 ms kernel run moves by several percent with interrupts and
/// cache state, while the drift it tracks is slower, over seconds. So the
/// scale uses the median of the calling thread's last kScaleWindow runs.
inline constexpr std::size_t kScaleWindow = 9;
/// Runs the calibration kernel once and returns kReferenceKernelSeconds
/// over the median of the calling thread's last kScaleWindow kernel times:
/// the factor that turns host seconds into reference-host seconds.
double hostScale();

/// The serve set-up is not CPU-bound: it creates threads, files and
/// sockets and hands work between threads, and on a loaded host those
/// operating-system paths slow down by more than the calibration kernel
/// does. Serve set-up times are therefore scaled by
/// kReferenceSetupKernelSeconds / setupKernelSeconds(), a second fixed
/// kernel that walks the same paths without calling the simulator: it
/// starts and joins threads, bounces a byte over a socket pair between two
/// threads, and creates, renames and removes files under `dir`, which it
/// removes.
inline constexpr double kReferenceSetupKernelSeconds = 0.001;
/// Host seconds of one run of the set-up kernel.
double setupKernelSeconds(const std::string& dir);

/// The CPUs this process may run on.
std::vector<int> allowedCpus();

/// Restricts the calling thread, and the threads it creates afterwards, to
/// `cpus`.
void pinToCpus(const std::vector<int>& cpus);

/// Restricts the calling thread, and the threads it creates afterwards, to
/// the CPU it is running on, so that the calibration kernel and the work it
/// calibrates share one CPU.
void pinToCpu();

/// Peak resident set size of this process in MiB.
double peakRssMb();

/// Sum of every counter in `stats` whose name ends with `suffix`.
std::uint64_t counterSum(const bridge::StatsSnapshot& stats,
                         std::string_view suffix);

/// Results equal in every field a client can observe.
bool sameResult(const bridge::RunResult& a, const bridge::RunResult& b);

}  // namespace perfbench
