// perfbench_driver: runs one benchmark workload in this process and prints
// its metrics. perfbench/run.py builds this binary and calls it; see
// perfbench/README.md for the workloads and what each metric should move.
//
//   perfbench_driver --workload full_mix|sampled_npb|serve_local|serve_worker
//                    --seed N --seconds S --trace 0|1
//   perfbench_driver --pin     print the pinned results table (pinned.inc)
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Every other line is a human-readable report.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "jobs.h"
#include "layers.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "serve/worker.h"
#include "soc/soc.h"
#include "sweep/fingerprint.h"
#include "sweep/sweep.h"

namespace perfbench {
namespace {

using bridge::JobSpec;
using bridge::RunResult;

// --- metric tables ----------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"},          {"req_per_s", "1/s"},
    {"sim_muops_per_s", "uop/us"}, {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

// Layers with no work on a workload report 0 (for example the serve
// counters on a simulator workload, or the sampling error of a
// full-fidelity run).
constexpr MetricDef kPerLayer[] = {
    {"trace.ns_per_op", "ns"},
    {"trace.share", "ratio"},
    {"soc.ctor_ms", "ms"},
    {"soc.constructions", "count"},
    {"sim.inorder.ns_per_uop", "ns"},
    {"sim.ooo.ns_per_uop", "ns"},
    {"mem.timed_ns_per_access", "ns"},
    {"mem.warm_ns_per_access", "ns"},
    {"mem.l1d.miss_ratio", "ratio"},
    {"mem.l2.miss_ratio", "ratio"},
    {"mem.llc.miss_ratio", "ratio"},
    {"mem.tlb.miss_ratio", "ratio"},
    {"mem.writebacks", "count"},
    {"mem.prefetches", "count"},
    {"mpi.messages", "count"},
    {"mpi.rank_overhead", "ratio"},
    {"sampling.ff_ops", "count"},
    {"sampling.measured_ops", "count"},
    {"sampling.detailed_share", "ratio"},
    {"sampling.cycle_err_max", "ratio"},
    {"sampling.cycle_err_mean", "ratio"},
    {"sweep.hit_us", "us"},
    {"sweep.fingerprint_us", "us"},
    {"protocol.encode_us", "us"},
    {"protocol.decode_us", "us"},
    {"serve.hit_p50_ms", "ms"},
    {"serve.hit_p99_ms", "ms"},
    {"serve.miss_p50_ms", "ms"},
    {"serve.miss_p90_ms", "ms"},
    {"serve.hit_overhead_us", "us"},
    {"serve.hit_ratio", "ratio"},
    {"serve.executed", "count"},
    {"serve.cache_hits", "count"},
    {"serve.attached", "count"},
    {"worker.miss_wait_ms", "ms"},
    {"serve.claimed", "count"},
    {"serve.completed_remote", "count"},
    {"serve.leases_expired", "count"},
    {"tracing.overhead", "ratio"},
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;
};

void fail(Outcome* out, const std::string& why, std::uint64_t ops = 1) {
  std::printf("FAIL: %s\n", why.c_str());
  out->correct = false;
  out->failed += ops;
}

void printResult(const Outcome& out, bool traced) {
  std::string metrics;
  auto emit = [&](const MetricDef& m) {
    const auto it = out.values.find(m.name);
    const double v = it == out.values.end() ? 0.0 : it->second;
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name, v, m.unit);
    metrics += buf;
  };
  if (traced) {
    for (const MetricDef& m : kPerLayer) emit(m);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// --- simulator workloads ----------------------------------------------------

/// One pass over a job list. Times are reference-host seconds: each job's
/// host time scaled by the calibration kernel run just before it. Untraced
/// passes run each job through bridge::executeJob; traced passes through
/// the instrumented executor, which records the spans.
struct SimPass {
  double wall_s = 0.0;
  double setup_s = 0.0;
  double busy_s = 0.0;  // wall time minus set-up
  std::vector<double> job_setup_s;  // per job in job order, 0 if failed
  double host_wall_s = 0.0;  // unscaled
  std::uint64_t uops = 0;
  std::vector<JobRun> runs;  // job order
  std::vector<bool> ok;
};

SimPass runPass(const std::vector<JobSpec>& jobs, SpanRecorder* rec,
                std::uint64_t pass) {
  SimPass p;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const double scale = hostScale();
    try {
      p.runs.push_back(rec ? runJob(jobs[i], rec, pass * 1000 + i)
                           : executeTimed(jobs[i]));
      p.ok.push_back(true);
    } catch (const std::exception& e) {
      std::printf("FAIL: %s threw: %s\n", jobs[i].label.c_str(), e.what());
      p.runs.emplace_back();
      p.ok.push_back(false);
      p.job_setup_s.push_back(0.0);
      continue;
    }
    const JobRun& r = p.runs.back();
    p.wall_s += r.wall_s * scale;
    p.busy_s += (r.wall_s - r.setup_s) * scale;
    p.setup_s += r.setup_s * scale;
    p.job_setup_s.push_back(r.setup_s * scale);
    p.host_wall_s += r.wall_s;
    p.uops += r.result.retired;
  }
  return p;
}

/// Checks every job of `p` against the pinned results (default seed) or
/// against `first` (other seeds: a rerun must repeat the first run).
/// Returns the number of failed jobs.
std::uint64_t checkPass(const std::vector<JobSpec>& jobs, const SimPass& p,
                        const SimPass* first, const char* what) {
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const RunResult& r = p.runs[i].result;
    bool good = p.ok[i] && r.cycles > 0 && r.retired > 0;
    if (good) {
      if (const PinnedResult* pin = pinnedResult(jobs[i])) {
        good = r.cycles == pin->cycles && r.retired == pin->retired &&
               r.messages == pin->messages;
      } else if (first != nullptr) {
        good = first->ok[i] && sameResult(r, first->runs[i].result);
      }
    }
    if (!good) {
      std::printf("FAIL: %s (%s): cycles=%llu retired=%llu messages=%llu\n",
                  jobs[i].label.c_str(), what,
                  static_cast<unsigned long long>(r.cycles),
                  static_cast<unsigned long long>(r.retired),
                  static_cast<unsigned long long>(r.messages));
      ++failed;
    }
  }
  return failed;
}

std::vector<RunResult> resultsOf(const SimPass& p) {
  std::vector<RunResult> out;
  for (const JobRun& r : p.runs) out.push_back(r.result);
  return out;
}

/// Full-fidelity cycles of each job: pinned at the default seed, simulated
/// otherwise.
std::vector<std::uint64_t> fullCycles(const std::vector<JobSpec>& full_jobs) {
  std::vector<std::uint64_t> out;
  for (const JobSpec& spec : full_jobs) {
    const PinnedResult* pin = pinnedResult(spec);
    out.push_back(pin ? pin->cycles : bridge::executeJob(spec).cycles);
  }
  return out;
}

/// |sampled - full| / full per job; prints the sampled/full ratio of each.
std::vector<double> cycleErrors(const std::vector<JobSpec>& jobs,
                                const SimPass& sampled,
                                const std::vector<std::uint64_t>& full) {
  std::vector<double> errs;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const double s = static_cast<double>(sampled.runs[i].result.cycles);
    const double f = static_cast<double>(full[i]);
    errs.push_back(std::abs(s - f) / f);
    std::printf("  sampled/full %-22s %.4f\n", jobs[i].label.c_str(), s / f);
  }
  return errs;
}

std::vector<JobSpec> simJobs(const std::string& workload, std::uint64_t seed) {
  if (workload == "full_mix") return npbJobs(seed, /*with_ume=*/true);
  std::vector<JobSpec> jobs;
  for (const JobSpec& j : npbJobs(seed, /*with_ume=*/false)) {
    jobs.push_back(sampledSpec(j));
  }
  return jobs;
}

void fillMemCounters(const std::vector<const bridge::StatsSnapshot*>& stats,
                     Outcome* out) {
  auto sum = [&](std::string_view suffix) {
    std::uint64_t s = 0;
    for (const bridge::StatsSnapshot* st : stats) s += counterSum(*st, suffix);
    return static_cast<double>(s);
  };
  auto missRatio = [&](const char* level) {
    const std::string pre = std::string("mem.") + level;
    const double miss = sum(pre + ".miss");
    return ratio(miss, miss + sum(pre + ".hit"));
  };
  auto& v = out->values;
  v["mem.l1d.miss_ratio"] = missRatio("l1d");
  v["mem.l2.miss_ratio"] = missRatio("l2");
  v["mem.llc.miss_ratio"] = missRatio("llc");
  v["mem.tlb.miss_ratio"] =
      ratio(sum("mem.tlb.miss"), sum("mem.l1d.hit") + sum("mem.l1d.miss"));
  v["mem.writebacks"] = sum("mem.writebacks");
  v["mem.prefetches"] = sum("mem.prefetches");
  v["sampling.ff_ops"] = sum("sampling.ff_ops");
  v["sampling.measured_ops"] = sum("sampling.measured_ops");
}

/// Memory-layer replay over the 1-rank jobs' captured op streams, one
/// "mem.replay" span per job.
void replayLayer(const std::vector<JobSpec>& jobs, SpanRecorder* rec,
                 Outcome* out) {
  double timed_ns = 0.0, warm_ns = 0.0;
  std::uint64_t accesses = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobSpec& spec = jobs[i];
    if (spec.ranks != 1) continue;
    std::vector<MemRecord> ops;
    runJob(spec, nullptr, 0, &ops);
    const std::int64_t span = rec->open("mem.replay", -1, i);
    const ReplayTiming t =
        replayMemory(ops, bridge::resolveSocConfig(spec).mem);
    rec->close(span);
    timed_ns += t.timed_ns_per_access * static_cast<double>(t.accesses);
    warm_ns += t.warm_ns_per_access * static_cast<double>(t.accesses);
    accesses += t.accesses;
  }
  const double n = static_cast<double>(accesses);
  out->values["mem.timed_ns_per_access"] = ratio(timed_ns, n);
  out->values["mem.warm_ns_per_access"] = ratio(warm_ns, n);
  std::printf("memory replay: %llu accesses, timed %.1f ns, warm %.1f ns\n",
              static_cast<unsigned long long>(accesses), ratio(timed_ns, n),
              ratio(warm_ns, n));
}

/// Per-layer metrics of the simulator from the spans of instrumented
/// passes. `request % 1000` is the job index of every span's request.
void simLayers(const std::vector<JobSpec>& jobs,
               const std::vector<SimPass>& traced, const SpanRecorder& rec,
               Outcome* out) {
  const std::vector<Span> spans = rec.spans();
  const std::vector<double> self = spanSelfTimes(spans);
  const std::map<std::string, LayerTime> layers = selfTimes(spans);
  auto layer = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? LayerTime{} : it->second;
  };
  // Run-span self time (the timing models, MPI runtime and memory
  // hierarchy, trace generation excluded) per job.
  std::vector<double> run_self(jobs.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "sim.run") run_self[spans[i].request % 1000] += self[i];
  }
  std::vector<double> retired(jobs.size(), 0.0);
  double ops = 0.0;
  for (const SimPass& p : traced) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      retired[i] += static_cast<double>(p.runs[i].result.retired);
      ops += static_cast<double>(p.runs[i].trace_ops);
    }
  }
  double in_t = 0, in_u = 0, ooo_t = 0, ooo_u = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const bool ooo = bridge::resolveSocConfig(jobs[i]).core_kind ==
                     bridge::CoreKind::kOutOfOrder;
    (ooo ? ooo_t : in_t) += run_self[i];
    (ooo ? ooo_u : in_u) += retired[i];
  }
  // ns/uop at 4 ranks over ns/uop at 1 rank, summed over the NPB
  // (kernel, platform) pairs that have both.
  double t1 = 0, u1 = 0, t4 = 0, u4 = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].kind != bridge::WorkloadKind::kNpb) continue;
    (jobs[i].ranks == 1 ? t1 : t4) += run_self[i];
    (jobs[i].ranks == 1 ? u1 : u4) += retired[i];
  }
  const LayerTime fill = layer("trace.fill");
  const LayerTime job = layer("job");
  const LayerTime soc = layer("soc.ctor");
  auto& v = out->values;
  v["trace.ns_per_op"] = ratio(fill.self_s * 1e9, ops);
  v["trace.share"] = ratio(fill.total_s, job.total_s);
  v["soc.ctor_ms"] = ratio(soc.total_s * 1e3, static_cast<double>(soc.count));
  v["soc.constructions"] =
      ratio(static_cast<double>(soc.count), static_cast<double>(traced.size()));
  v["sim.inorder.ns_per_uop"] = ratio(in_t * 1e9, in_u);
  v["sim.ooo.ns_per_uop"] = ratio(ooo_t * 1e9, ooo_u);
  v["mpi.rank_overhead"] = ratio(ratio(t4, u4), ratio(t1, u1));
}

Outcome runSimWorkload(const std::string& workload, std::uint64_t seed,
                       double seconds, bool traced) {
  Outcome out;
  const std::vector<JobSpec> jobs = simJobs(workload, seed);
  const bool sampled = workload == "sampled_npb";
  // One thread does all the work; keeping it on one CPU keeps each job on
  // the CPU its calibration ran on.
  pinToCpu();
  std::vector<SimPass> plain, instrumented;
  SpanRecorder rec;
  const double t0 = nowSeconds();
  // Untraced passes until the time is up; a traced run interleaves one
  // instrumented pass after each.
  do {
    plain.push_back(runPass(jobs, nullptr, plain.size()));
    if (traced) {
      instrumented.push_back(runPass(jobs, &rec, instrumented.size()));
    }
  } while (nowSeconds() - t0 < seconds);

  for (std::size_t k = 0; k < plain.size(); ++k) {
    out.attempted += jobs.size();
    out.failed += checkPass(jobs, plain[k], k ? &plain[0] : nullptr, "rerun");
  }
  for (const SimPass& p : instrumented) {
    out.attempted += jobs.size();
    out.failed += checkPass(jobs, p, &plain[0], "traced vs untraced");
  }
  out.correct = out.failed == 0;
  std::printf("%s seed %llu: %zu passes of %zu jobs, cycles digest %s\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              plain.size(), jobs.size(),
              cyclesDigest(jobs, resultsOf(plain[0])).c_str());

  for (std::size_t k = 0; k < plain.size(); ++k) {
    const SimPass& p = plain[k];
    std::printf("  pass %zu: wall %.4f s (host %.4f s), setup %.4f s, "
                "%.4f uop/us\n",
                k, p.wall_s, p.host_wall_s, p.setup_s,
                static_cast<double>(p.uops) / (p.busy_s * 1e6));
  }
  // Set-up is summed over the jobs from each job's median over the passes,
  // so that one slow build moves one job's sample and not a pass total.
  double setup_s = 0.0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    std::vector<double> job;
    for (const SimPass& p : plain) job.push_back(p.job_setup_s[i]);
    setup_s += median(job);
  }
  // Wall time and speed are totals over the passes: with four or five
  // passes a run, their mean repeated across runs twice as closely as
  // their median.
  double total_wall = 0.0, total_busy = 0.0, total_uops = 0.0;
  for (const SimPass& p : plain) {
    total_wall += p.wall_s;
    total_busy += p.busy_s;
    total_uops += static_cast<double>(p.uops);
  }
  auto& v = out.values;
  v["wall_s"] = total_wall / static_cast<double>(plain.size());
  v["setup_s"] = setup_s;
  v["sim_muops_per_s"] = total_uops / (total_busy * 1e6);
  v["req_per_s"] = static_cast<double>(plain.size() * jobs.size()) / total_wall;
  v["peak_rss_mb"] = peakRssMb();
  std::printf("wall_s %.4f  setup_s %.4f  sim_muops_per_s %.4f  "
              "req_per_s %.3f  peak_rss_mb %.1f\n",
              v["wall_s"], v["setup_s"], v["sim_muops_per_s"], v["req_per_s"],
              v["peak_rss_mb"]);

  if (sampled && (traced || seed == kDefaultSeed)) {
    std::vector<JobSpec> full = npbJobs(seed, /*with_ume=*/false);
    const std::vector<double> errs =
        cycleErrors(jobs, plain[0], fullCycles(full));
    double sum = 0.0;
    for (double e : errs) sum += e;
    v["sampling.cycle_err_max"] = *std::max_element(errs.begin(), errs.end());
    v["sampling.cycle_err_mean"] = sum / static_cast<double>(errs.size());
    std::printf("cycle_err_max %.4f  cycle_err_mean %.4f (all %zu jobs, "
                "4-rank included)\n",
                v["sampling.cycle_err_max"], v["sampling.cycle_err_mean"],
                errs.size());
  }
  if (!traced) return out;

  std::vector<const bridge::StatsSnapshot*> stats;
  double messages = 0.0, retired = 0.0;
  for (const JobRun& r : plain[0].runs) {
    stats.push_back(&r.stats);
    messages += static_cast<double>(r.result.messages);
    retired += static_cast<double>(r.result.retired);
  }
  fillMemCounters(stats, &out);
  v["mpi.messages"] = messages;
  v["sampling.detailed_share"] = 1.0 - ratio(v["sampling.ff_ops"], retired);
  simLayers(jobs, instrumented, rec, &out);
  replayLayer(jobs, &rec, &out);
  std::vector<double> traced_wall;
  for (const SimPass& p : instrumented) traced_wall.push_back(p.wall_s);
  double traced_total = 0.0;
  for (double w : traced_wall) traced_total += w;
  const double traced_mean = traced_total / static_cast<double>(traced_wall.size());
  v["tracing.overhead"] = ratio(traced_mean, v["wall_s"]);
  std::printf("tracing overhead: traced wall_s %.4f vs untraced %.4f\n",
              traced_mean, v["wall_s"]);
  std::filesystem::create_directories(".bench_build");
  rec.writeJson(".bench_build/spans-" + workload + ".json");
  return out;
}

// --- serve workloads --------------------------------------------------------

constexpr unsigned kClients = 2;
constexpr std::size_t kMinHits = 1000;
constexpr std::size_t kMinMisses = 100;

/// A daemon (plus, optionally, one in-process worker) on a private socket
/// and cache under `dir`. Ready once the constructor returns: the worker
/// has registered and the daemon has answered a ping. The daemon's threads
/// run on `daemon_cpus` and the worker's on `worker_cpus`; the constructing
/// thread is left on `daemon_cpus`.
class Deployment {
 public:
  Deployment(const std::string& dir, bool with_worker,
             const std::vector<int>& daemon_cpus,
             const std::vector<int>& worker_cpus)
      : dir_(dir) {
    pinToCpus(daemon_cpus);
    bridge::serve::DaemonOptions o;
    o.socket_path = dir + "/d.sock";
    o.sweep.cache_dir = dir + "/cache";
    daemon_ = std::make_unique<bridge::serve::SweepDaemon>(o);
    std::string error;
    if (!daemon_->start(&error)) {
      throw std::runtime_error("daemon start: " + error);
    }
    if (with_worker) {
      pinToCpus(worker_cpus);
      bridge::serve::WorkerOptions w;
      w.socket_path = o.socket_path;
      w.name = "perfbench";
      w.sweep.workers = kClients;
      worker_ = std::make_unique<bridge::serve::SweepWorker>(w);
      worker_thread_ = std::thread([this] {
        try {
          worker_->run();
        } catch (const std::exception& e) {
          // Misses then age back to the daemon's own pool, and the
          // completed_remote check reports the loss.
          std::printf("FAIL: worker stopped: %s\n", e.what());
        }
      });
      pinToCpus(daemon_cpus);
      const double deadline = nowSeconds() + 10.0;
      while (daemon_->stats().workers == 0) {
        if (nowSeconds() > deadline) {
          throw std::runtime_error("worker did not register within 10 s");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    }
    bridge::serve::ServeClient(o.socket_path).ping();
  }

  ~Deployment() {
    if (worker_) {
      worker_->requestStop();
      worker_thread_.join();
    }
    daemon_->requestStop();
    daemon_->join();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  const std::string& socket() const { return daemon_->socketPath(); }
  std::string cacheDir() const { return dir_ + "/cache"; }
  bridge::serve::ServeStats stats() const { return daemon_->stats(); }

 private:
  std::string dir_;
  std::unique_ptr<bridge::serve::SweepDaemon> daemon_;
  std::unique_ptr<bridge::serve::SweepWorker> worker_;
  std::thread worker_thread_;  // declared last: joined before the rest go
};

struct Request {
  bool fresh = false;
  bool ok = false;
  double latency_s = 0.0;  // host seconds
  std::uint64_t retired = 0;
};

/// Per-client state that persists across segments and phases, so fresh
/// fingerprints stay fresh for the daemon's whole life.
struct ClientState {
  ClientState(std::uint64_t seed, unsigned id) : schedule(seed, id), id(id) {}
  ServeSchedule schedule;
  unsigned id;
  std::uint64_t next = 0;            // next request index
  std::vector<RunResult> completed;  // fresh results, by fresh index
  std::vector<Request> log;
};

/// Traffic runs in segments of kSegmentRounds rounds (4 requests each) per
/// client, both clients starting together, with the calibration kernel run
/// between segments while no request is in flight.
constexpr std::uint64_t kSegmentRounds = 25;

struct Segment {
  double host_s = 0.0;
  double scale = 1.0;  // hostScale() before the segment
  std::size_t requests = 0;
};

struct Traffic {
  std::vector<Segment> segments;
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t failures = 0;
};

/// One client's share of a segment: a closed loop, each request sent when
/// the previous reply arrived. Spans "serve.request" when traced.
void clientSegment(bridge::serve::ServeClient& client, ClientState* c,
                   SpanRecorder* rec, std::size_t* failures) {
  for (std::uint64_t n = 0; n < 4 * kSegmentRounds; ++n) {
    const std::uint64_t i = c->next++;
    Request r;
    r.fresh = ServeSchedule::isFresh(i);
    const std::uint64_t k = c->schedule.freshIndex(i);
    const JobSpec spec = c->schedule.freshSpec(k);
    const std::int64_t span =
        rec ? rec->open("serve.request", -1, (std::uint64_t{c->id} << 32) | i)
            : -1;
    const double s0 = nowSeconds();
    std::vector<bridge::SweepResult> res;
    try {
      res = client.run({spec});
    } catch (const std::exception& e) {
      std::printf("FAIL: request %llu of client %u threw: %s\n",
                  static_cast<unsigned long long>(i), c->id, e.what());
    }
    r.latency_s = nowSeconds() - s0;
    if (rec) rec->close(span);
    r.ok = res.size() == 1 && res[0].ok();
    if (r.ok) r.retired = res[0].result.retired;
    if (r.fresh) {
      // Kept even when failed, so that index k stays fresh spec k.
      c->completed.push_back(r.ok ? res[0].result : RunResult{});
      r.ok = r.ok && !res[0].from_cache && k + 1 == c->completed.size();
    } else {
      r.ok = r.ok && res[0].from_cache && k < c->completed.size() &&
             sameResult(res[0].result, c->completed[k]);
    }
    if (!r.ok) ++*failures;
    c->log.push_back(r);
  }
}

/// Segments until they have taken `seconds` and the phase holds at least
/// kMinHits hits and kMinMisses misses; `between` runs after each segment,
/// while no request is in flight.
Traffic runTraffic(const std::string& socket, std::vector<ClientState>* clients,
                   double seconds, SpanRecorder* rec, Outcome* out,
                   const std::function<void()>& between) {
  Traffic t;
  std::vector<std::unique_ptr<bridge::serve::ServeClient>> conns;
  for (std::size_t id = 0; id < clients->size(); ++id) {
    conns.push_back(std::make_unique<bridge::serve::ServeClient>(socket));
  }
  std::vector<std::size_t> failures(clients->size(), 0);
  double traffic_s = 0.0;
  while (traffic_s < seconds || t.hits < kMinHits || t.misses < kMinMisses) {
    Segment seg;
    seg.scale = hostScale();
    const double s0 = nowSeconds();
    std::vector<std::thread> threads;
    for (std::size_t id = 0; id < clients->size(); ++id) {
      threads.emplace_back(clientSegment, std::ref(*conns[id]),
                           &(*clients)[id], rec, &failures[id]);
    }
    for (std::thread& th : threads) th.join();
    seg.host_s = nowSeconds() - s0;
    traffic_s += seg.host_s;
    seg.requests = clients->size() * 4 * kSegmentRounds;
    t.segments.push_back(seg);
    t.misses += clients->size() * kSegmentRounds;
    t.hits += clients->size() * 3 * kSegmentRounds;
    between();
  }
  for (std::size_t f : failures) t.failures += f;
  out->attempted += t.hits + t.misses;
  if (t.failures > 0) {
    fail(out, std::to_string(t.failures) +
                  " requests failed or returned a result that differs from "
                  "the fingerprint's fresh execution",
         t.failures);
  }
  return t;
}

struct TrafficSummary {
  std::size_t requests = 0;
  double ref_s = 0.0;     // reference-host seconds of all segments
  double host_s = 0.0;    // unscaled
  double req_per_s = 0.0;
  double wall_s = 0.0;    // reference seconds per kWindow requests
  double delivered_uops = 0.0;
  std::vector<double> hit_ms, miss_ms;
};

constexpr std::size_t kWindow = 200;

/// Summary of the requests logged from `mark` on (per client) in `t`.
TrafficSummary summarize(const std::vector<ClientState>& clients,
                         const std::vector<std::size_t>& mark,
                         const Traffic& t) {
  TrafficSummary s;
  for (std::size_t id = 0; id < clients.size(); ++id) {
    const ClientState& c = clients[id];
    for (std::size_t i = mark[id]; i < c.log.size(); ++i) {
      const Request& r = c.log[i];
      s.delivered_uops += static_cast<double>(r.retired);
      (r.fresh ? s.miss_ms : s.hit_ms).push_back(r.latency_s * 1e3);
    }
  }
  for (const Segment& seg : t.segments) {
    s.requests += seg.requests;
    s.ref_s += seg.host_s * seg.scale;
    s.host_s += seg.host_s;
  }
  s.req_per_s = ratio(static_cast<double>(s.requests), s.ref_s);
  s.wall_s = ratio(s.ref_s * static_cast<double>(kWindow),
                   static_cast<double>(s.requests));
  return s;
}

void printLatency(const char* cls, const std::vector<double>& ms) {
  const Percentile tail = tailPercentile(ms);
  std::printf("%s latency: p50 %.4f ms, p%.0f %.4f ms (%zu samples)\n", cls,
              percentileOf(ms, 50), tail.percentile, tail.value, tail.samples);
}

/// Median host microseconds of `fn` over `reps` calls, each recorded as a
/// span named `name` when traced.
template <typename Fn>
double timeCalls(const char* name, std::size_t reps, SpanRecorder* rec,
                 Fn&& fn) {
  std::vector<double> us;
  for (std::size_t i = 0; i < reps; ++i) {
    const std::int64_t id = rec ? rec->open(name, -1, i) : -1;
    const double t0 = nowSeconds();
    fn(i);
    us.push_back((nowSeconds() - t0) * 1e6);
    if (rec) rec->close(id);
  }
  return median(us);
}

/// Layer metrics of the sweep and protocol layers over the workload's own
/// hit specs and frames.
void serveCodecAndSweepLayers(const Deployment& d,
                              const std::vector<ClientState>& clients,
                              SpanRecorder* rec, Outcome* out) {
  std::vector<JobSpec> specs;
  std::vector<RunResult> results;
  for (const ClientState& c : clients) {
    for (std::size_t k = 0; k < c.completed.size() && k < 200; ++k) {
      specs.push_back(c.schedule.freshSpec(k));
      results.push_back(c.completed[k]);
    }
  }
  std::vector<std::string> req_json(specs.size()), resp_json(specs.size());
  std::vector<bridge::serve::ServeRequest> reqs(specs.size());
  std::vector<bridge::serve::ServeResponse> resps(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    reqs[i].kind = bridge::serve::ServeRequest::Kind::kRun;
    reqs[i].jobs = {specs[i]};
    bridge::SweepResult sr;
    sr.label = specs[i].label;
    sr.fingerprint = bridge::jobFingerprint(specs[i]);
    sr.result = results[i];
    sr.from_cache = true;
    resps[i].kind = bridge::serve::ServeResponse::Kind::kResults;
    resps[i].results = {sr};
  }
  const std::size_t n = specs.size();
  auto& v = out->values;
  v["protocol.encode_us"] =
      timeCalls("protocol.encode", n, rec, [&](std::size_t i) {
        req_json[i] = bridge::serve::requestToJson(reqs[i]);
        resp_json[i] = bridge::serve::responseToJson(resps[i]);
      });
  std::size_t bad = 0;
  v["protocol.decode_us"] =
      timeCalls("protocol.decode", n, rec, [&](std::size_t i) {
        const auto q = bridge::serve::requestFromJson(req_json[i]);
        const auto r = bridge::serve::responseFromJson(resp_json[i]);
        if (!q || !r || r->results.size() != 1 ||
            !sameResult(r->results[0].result, results[i])) {
          ++bad;
        }
      });
  v["sweep.fingerprint_us"] = timeCalls(
      "sweep.fingerprint", n, rec,
      [&](std::size_t i) { (void)bridge::jobFingerprint(specs[i]); });
  bridge::SweepOptions so;
  so.workers = 1;
  so.cache_dir = d.cacheDir();
  bridge::SweepEngine engine(so);
  v["sweep.hit_us"] = timeCalls("sweep.runOne", n, rec, [&](std::size_t i) {
    const bridge::SweepResult r = engine.runOne(specs[i]);
    if (!r.ok() || !r.from_cache || !sameResult(r.result, results[i])) ++bad;
  });
  out->attempted += 2 * n;
  if (bad > 0) fail(out, "codec or warm runOne disagreed with a served result", bad);
}

/// Simulator-layer metrics of the miss path: the fresh specs run in this
/// process, once through executeJob and once instrumented.
double missPathLayers(const std::vector<ClientState>& clients,
                      SpanRecorder* rec, Outcome* out) {
  std::vector<JobSpec> specs;
  for (std::size_t k = 0; k < 24 && k < clients[0].completed.size(); ++k) {
    specs.push_back(clients[0].schedule.freshSpec(k));
  }
  std::vector<double> exec_ms;
  for (const JobSpec& s : specs) {
    const double t0 = nowSeconds();
    bridge::executeJob(s);
    exec_ms.push_back((nowSeconds() - t0) * 1e3);
  }
  SimPass pass = runPass(specs, rec, 0);
  out->attempted += specs.size();
  for (std::size_t k = 0; k < specs.size(); ++k) {
    if (!pass.ok[k] || !sameResult(pass.runs[k].result, clients[0].completed[k])) {
      fail(out, "instrumented run of " + specs[k].label + " differs from served result");
    }
  }
  std::vector<const bridge::StatsSnapshot*> stats;
  for (const JobRun& r : pass.runs) stats.push_back(&r.stats);
  fillMemCounters(stats, out);
  out->values["sampling.detailed_share"] = 1.0;
  simLayers(specs, {pass}, *rec, out);
  replayLayer(specs, rec, out);
  return median(exec_ms);
}

/// Where the serve deployment runs. The clients, the daemon and the
/// calibration kernel share one CPU, so a hit is a round trip within one
/// CPU. The worker, which simulates every miss, gets the next kClients
/// CPUs, one per slot, so misses run in parallel and never on the CPU that
/// serves hits. On a loaded host every wake-up of an idle vCPU waits for
/// the host to schedule it: with the daemon on CPUs apart from its clients
/// the throughput of identical runs spread by 20%, and with misses simulated
/// on the daemon's CPU hits queued behind them.
struct CpuLayout {
  std::vector<int> clients, daemon, worker;
};

CpuLayout cpuLayout() {
  const std::vector<int> cpus = allowedCpus();
  if (cpus.empty()) throw std::runtime_error("no CPU in the affinity mask");
  const std::vector<int> home{cpus[0]};
  const std::size_t first = cpus.size() > 1 ? 1 : 0;
  const std::size_t last = std::min<std::size_t>(first + kClients, cpus.size());
  return {home, home, {cpus.begin() + first, cpus.begin() + last}};
}

Outcome runServeWorkload(const std::string& workload, std::uint64_t seed,
                         double seconds, bool traced) {
  Outcome out;
  const bool with_worker = workload == "serve_worker";
  const std::string base =
      ".bench_build/tmp/serve-" + std::to_string(::getpid());
  const CpuLayout cpus = cpuLayout();
  auto d = std::make_unique<Deployment>(base + "/traffic", with_worker,
                                        cpus.daemon, cpus.worker);
  pinToCpus(cpus.clients);

  // Set-up is the wall time from daemon construction until the worker has
  // registered and the first ping is answered: a few milliseconds, so it is
  // repeated and the median reported. Each sample builds a whole second
  // deployment on the clients' CPU, next to the set-up kernel that scales
  // it: hand-offs between its threads are then switches on one CPU, not
  // wake-ups of idle vCPUs, which on a loaded host wait for the host. Slow
  // spells of the host last seconds and once moved every sample of a run
  // from 2 ms to 8 ms, so samples are taken between traffic segments,
  // spread over the run, rather than back to back.
  constexpr std::size_t kSetups = 60;
  std::vector<double> setup, setup_host;
  const auto setupSample = [&] {
    if (setup.size() >= kSetups) return;
    const double scale = kReferenceSetupKernelSeconds /
                         setupKernelSeconds(base + "/setup-kernel");
    const double t0 = nowSeconds();
    Deployment probe(base + "/setup" + std::to_string(setup.size()),
                     with_worker, cpus.clients, cpus.clients);
    setup_host.push_back(nowSeconds() - t0);
    setup.push_back(setup_host.back() * scale);
  };

  std::vector<ClientState> clients;
  for (unsigned id = 0; id < kClients; ++id) clients.emplace_back(seed, id);
  std::vector<std::size_t> mark(kClients, 0);
  const Traffic traffic = runTraffic(d->socket(), &clients,
                                     traced ? seconds / 2 : seconds, nullptr,
                                     &out, setupSample);
  while (setup.size() < kSetups) setupSample();
  const TrafficSummary plain = summarize(clients, mark, traffic);

  std::printf("%s seed %llu: %zu requests (%zu hits, %zu misses) from %u "
              "clients in %zu segments, %.2f host s\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              plain.requests, plain.hit_ms.size(), plain.miss_ms.size(),
              kClients, traffic.segments.size(), plain.host_s);
  printLatency("hit", plain.hit_ms);
  printLatency("miss", plain.miss_ms);
  std::printf("setup: median %.5f host s over %zu deployments (p10 %.5f, "
              "p90 %.5f)\n",
              median(setup_host), kSetups, percentileOf(setup_host, 10),
              percentileOf(setup_host, 90));
  auto& v = out.values;
  v["wall_s"] = plain.wall_s;
  v["req_per_s"] = plain.req_per_s;
  v["sim_muops_per_s"] = plain.delivered_uops / (plain.ref_s * 1e6);
  v["setup_s"] = median(setup);
  v["peak_rss_mb"] = peakRssMb();
  std::printf("wall_s %.5f (per %zu requests)  req_per_s %.2f (host %.2f)  "
              "sim_muops_per_s %.4f  setup_s %.5f  peak_rss_mb %.1f\n",
              v["wall_s"], kWindow, v["req_per_s"],
              ratio(static_cast<double>(plain.requests), plain.host_s),
              v["sim_muops_per_s"], v["setup_s"], v["peak_rss_mb"]);

  SpanRecorder rec;
  TrafficSummary instrumented;
  if (traced) {
    for (std::size_t id = 0; id < kClients; ++id) mark[id] = clients[id].log.size();
    const Traffic t2 =
        runTraffic(d->socket(), &clients, seconds / 2, &rec, &out, [] {});
    instrumented = summarize(clients, mark, t2);
  }

  // Counter identities: every fresh fingerprint executed exactly once
  // (locally or by the worker), every repeat served from the cache, and no
  // request attached to another's flight.
  std::uint64_t fresh = 0, hits = 0;
  for (const ClientState& c : clients) {
    fresh += c.completed.size();
    for (const Request& r : c.log) hits += r.fresh ? 0 : 1;
  }
  const bridge::serve::ServeStats st = d->stats();
  std::printf("daemon: %s\n", st.summary().c_str());
  if (st.executed + st.completed_remote != fresh) {
    fail(&out, "executed + completed_remote = " +
                   std::to_string(st.executed + st.completed_remote) +
                   ", fresh fingerprints = " + std::to_string(fresh));
  }
  if (st.cache_hits != hits) {
    fail(&out, "cache_hits = " + std::to_string(st.cache_hits) +
                   ", hits sent = " + std::to_string(hits));
  }
  if (st.attached != 0) {
    fail(&out, "attached = " + std::to_string(st.attached) + ", expected 0");
  }
  if (with_worker && st.completed_remote == 0) {
    fail(&out, "no miss went through the worker");
  }
  if (!traced) {
    d.reset();
    std::filesystem::remove_all(base);
    return out;
  }

  // Per-layer metrics; latencies come from the untraced phase.
  const double hit_p50 = percentileOf(plain.hit_ms, 50);
  const double miss_p50 = percentileOf(plain.miss_ms, 50);
  v["serve.hit_p50_ms"] = hit_p50;
  v["serve.hit_p99_ms"] = percentileOf(plain.hit_ms, 99);
  v["serve.miss_p50_ms"] = miss_p50;
  v["serve.miss_p90_ms"] = percentileOf(plain.miss_ms, 90);
  v["serve.hit_ratio"] = ratio(static_cast<double>(st.cache_hits),
                               static_cast<double>(st.jobs));
  v["serve.executed"] = static_cast<double>(st.executed);
  v["serve.cache_hits"] = static_cast<double>(st.cache_hits);
  v["serve.attached"] = static_cast<double>(st.attached);
  v["serve.claimed"] = static_cast<double>(st.claimed);
  v["serve.completed_remote"] = static_cast<double>(st.completed_remote);
  v["serve.leases_expired"] = static_cast<double>(st.leases_expired);
  serveCodecAndSweepLayers(*d, clients, &rec, &out);
  v["serve.hit_overhead_us"] = hit_p50 * 1e3 - v["sweep.hit_us"] -
                               v["protocol.encode_us"] -
                               v["protocol.decode_us"];
  const double exec_ms = missPathLayers(clients, &rec, &out);
  v["worker.miss_wait_ms"] = miss_p50 - exec_ms;
  v["tracing.overhead"] = ratio(plain.req_per_s, instrumented.req_per_s);
  std::printf("miss path: executeJob %.4f ms, miss p50 %.4f ms\n", exec_ms,
              miss_p50);
  std::printf("tracing overhead: traced req_per_s %.2f vs untraced %.2f\n",
              instrumented.req_per_s, plain.req_per_s);
  rec.writeJson(".bench_build/spans-" + workload + ".json");
  d.reset();
  std::filesystem::remove_all(base);
  return out;
}

// --- pinned table -----------------------------------------------------------

void printPinned() {
  std::vector<JobSpec> jobs = npbJobs(kDefaultSeed, /*with_ume=*/true);
  for (const JobSpec& j : npbJobs(kDefaultSeed, /*with_ume=*/false)) {
    jobs.push_back(sampledSpec(j));
  }
  for (const JobSpec& j : jobs) {
    const RunResult r = bridge::executeJob(j);
    std::printf("    {\"%s\", %s, %lluull, %lluull, %lluull},\n",
                j.label.c_str(),
                bridge::hasSamplingOverrides(j.overrides) ? "true" : "false",
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.retired),
                static_cast<unsigned long long>(r.messages));
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload full_mix|sampled_npb|"
               "serve_local|serve_worker --seed N --seconds S --trace 0|1\n"
               "       perfbench_driver --pin\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--pin") {
      printPinned();
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string val = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      workload = val;
    } else if (a == "--seed") {
      seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') return usage();
    } else if (a == "--seconds") {
      seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(seconds > 0)) return usage();
    } else if (a == "--trace") {
      if (val != "0" && val != "1") return usage();
      traced = val == "1";
    } else {
      return usage();
    }
  }
  Outcome out;
  try {
    if (workload == "full_mix" || workload == "sampled_npb") {
      out = runSimWorkload(workload, seed, seconds, traced);
    } else if (workload == "serve_local" || workload == "serve_worker") {
      out = runServeWorkload(workload, seed, seconds, traced);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  std::fflush(stdout);
  printResult(out, traced);
  return 0;
}
