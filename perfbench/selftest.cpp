// Self-tests of the benchmark's own measurement code:
//   python3 perfbench/run.py --self-test
// Exit status 0 when every check holds.
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "jobs.h"
#include "layers.h"
#include "sweep/fingerprint.h"
#include "workloads/npb.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);    \
      ++g_failures;                                                  \
    }                                                                \
  } while (0)

using perfbench::Span;

/// n, n-1, ..., 1: unsorted on purpose.
std::vector<double> descending(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(n - i + 1));
  return v;
}

void testPercentiles() {
  const perfbench::Percentile a = perfbench::tailPercentile(descending(1000));
  CHECK(a.percentile == 99 && a.value == 990 && a.samples == 1000);
  // 999 samples leave only 9 above the 99th percentile.
  const perfbench::Percentile b = perfbench::tailPercentile(descending(999));
  CHECK(b.percentile == 90 && b.samples == 999);
  const perfbench::Percentile c = perfbench::tailPercentile(descending(100));
  CHECK(c.percentile == 90 && c.value == 90);
  const perfbench::Percentile d = perfbench::tailPercentile(descending(25));
  CHECK(d.percentile == 50 && d.value == 13);
  const perfbench::Percentile e = perfbench::tailPercentile(descending(15));
  CHECK(e.percentile == 0 && e.samples == 15);
  CHECK(perfbench::percentileOf(descending(4), 50) == 2);
  CHECK(perfbench::median({3, 1, 2, 10}) == 2.5);
}

void testSelfTimes() {
  std::vector<Span> s(5);
  s[0] = {"job", 0, 10, -1, 7};
  s[1] = {"a", 1, 3, 0, 7};
  s[2] = {"a", 2, 5, 0, 7};    // overlaps s[1]: the union counts once
  s[3] = {"b", 8, 12, 0, 7};   // clipped to the parent's end
  s[4] = {"c", 2.5, 2.75, 1, 7};  // grandchild: only s[1] loses it
  const std::vector<double> self = perfbench::spanSelfTimes(s);
  CHECK(self[0] == 4.0);   // 10 - ([1,5] + [8,10])
  CHECK(self[1] == 1.75);  // 2 - 0.25
  CHECK(self[2] == 3.0);
  CHECK(self[3] == 4.0);
  const auto by_name = perfbench::selfTimes(s);
  CHECK(by_name.at("a").count == 2 && by_name.at("a").self_s == 4.75 &&
        by_name.at("a").total_s == 5.0);
}

void testChunkedPreservesOps() {
  bridge::NpbConfig cfg;
  cfg.scale = 0.02;
  auto plain = bridge::makeNpbRank(bridge::NpbBenchmark::kIS, 1, 4, cfg);
  std::int64_t parent = -1;
  std::uint64_t ops = 0;
  perfbench::SpanRecorder rec;
  perfbench::ChunkedTrace chunked(
      bridge::makeNpbRank(bridge::NpbBenchmark::kIS, 1, 4, cfg), &rec, &parent,
      0, &ops);
  bridge::MicroOp a, b;
  std::uint64_t n = 0;
  bool same = true;
  while (true) {
    const bool more_a = plain->next(&a);
    const bool more_b = chunked.next(&b);
    if (more_a != more_b) {
      same = false;
      break;
    }
    if (!more_a) break;
    ++n;
    same = same && a.cls == b.cls && a.pc == b.pc && a.addr == b.addr &&
           a.dst == b.dst && a.src0 == b.src0 && a.src1 == b.src1 &&
           a.taken == b.taken && a.mpi.kind == b.mpi.kind &&
           a.mpi.peer == b.mpi.peer && a.mpi.bytes == b.mpi.bytes;
  }
  CHECK(same && n > perfbench::ChunkedTrace::kChunk);
  CHECK(ops == n);
  CHECK(rec.spans().size() ==
        (n + perfbench::ChunkedTrace::kChunk - 1) / perfbench::ChunkedTrace::kChunk);
}

void testInstrumentedRunMatchesExecuteJob() {
  std::vector<bridge::JobSpec> specs = {
      bridge::npbJob(bridge::PlatformId::kBananaPiSim, bridge::NpbBenchmark::kCG,
                     4, 0.02, 3),
      bridge::npbJob(bridge::PlatformId::kMilkVSim, bridge::NpbBenchmark::kIS, 1,
                     0.02, 3),
      perfbench::ServeSchedule(5, 1).freshSpec(2),
  };
  specs.push_back(perfbench::sampledSpec(specs[0]));
  for (const bridge::JobSpec& spec : specs) {
    const bridge::RunResult ref = bridge::executeJob(spec);
    perfbench::SpanRecorder rec;
    const perfbench::JobRun traced = perfbench::runJob(spec, &rec, 1);
    const perfbench::JobRun plain = perfbench::runJob(spec);
    CHECK(perfbench::sameResult(traced.result, ref));
    CHECK(perfbench::sameResult(plain.result, ref));
    const perfbench::JobRun timed = perfbench::executeTimed(spec);
    CHECK(perfbench::sameResult(timed.result, ref));
    CHECK(timed.setup_s > 0.0 && timed.wall_s > timed.setup_s);
    CHECK(traced.trace_ops >= ref.retired);
    CHECK(perfbench::selfTimes(rec.spans()).count("trace.fill") == 1);
  }
}

void testServeScheduleNeverSharesFreshFingerprints() {
  std::set<std::string> seen;
  bool shared = false;
  for (unsigned client = 0; client < 2; ++client) {
    const perfbench::ServeSchedule s(9, client);
    for (std::uint64_t k = 0; k < 500; ++k) {
      shared |= !seen.insert(bridge::jobFingerprint(s.freshSpec(k))).second;
    }
    // Repeats only ask for fingerprints the client has completed.
    bool repeats_ok = true;
    for (std::uint64_t i = 0; i < 4000; ++i) {
      const std::uint64_t k = s.freshIndex(i);
      repeats_ok &= perfbench::ServeSchedule::isFresh(i) ? k == i / 4 : k <= i / 4;
    }
    CHECK(repeats_ok);
  }
  CHECK(!shared && seen.size() == 1000);
  // The same seed gives the same specs.
  CHECK(bridge::jobFingerprint(perfbench::ServeSchedule(9, 1).freshSpec(3)) ==
        bridge::jobFingerprint(perfbench::ServeSchedule(9, 1).freshSpec(3)));
}

}  // namespace

int main() {
  testPercentiles();
  testSelfTimes();
  testChunkedPreservesOps();
  testInstrumentedRunMatchesExecuteJob();
  testServeScheduleNeverSharesFreshFingerprints();
  std::printf("%s: %d failed checks\n", g_failures ? "FAIL" : "ok", g_failures);
  return g_failures ? 1 : 0;
}
