#include "jobs.h"

#include <cstdio>
#include <cstring>

#include "sim/config.h"
#include "sim/sampling/sampling.h"
#include "sweep/fingerprint.h"

namespace perfbench {

using bridge::JobSpec;
using bridge::NpbBenchmark;
using bridge::PlatformId;

std::vector<JobSpec> npbJobs(std::uint64_t seed, bool with_ume) {
  std::vector<JobSpec> jobs;
  for (PlatformId p : {PlatformId::kBananaPiSim, PlatformId::kMilkVSim}) {
    for (NpbBenchmark b : bridge::allNpbBenchmarks()) {
      for (int ranks : {1, 4}) {
        jobs.push_back(bridge::npbJob(p, b, ranks, kSimScale, seed));
      }
    }
  }
  if (with_ume) {
    bridge::UmeConfig u;
    u.scale = kSimScale;
    u.seed = seed;
    jobs.push_back(bridge::umeJob(PlatformId::kMilkVSim, 4, u));
  }
  return jobs;
}

JobSpec sampledSpec(JobSpec spec) {
  bridge::SamplingParams p;
  p.enabled = true;
  bridge::applySamplingOverrides(&spec.overrides, p);
  return spec;
}

namespace {

// executeJob at kDefaultSeed, regenerated with `perfbench_driver --pin`.
// A timing-model change that moves these is a change in simulated results
// and must say so.
constexpr PinnedResult kPinned[] = {
#include "pinned.inc"
};

}  // namespace

const PinnedResult* pinnedResult(const JobSpec& spec) {
  if (spec.seed != kDefaultSeed) return nullptr;
  const bool sampled = bridge::hasSamplingOverrides(spec.overrides);
  for (const PinnedResult& p : kPinned) {
    if (p.sampled == sampled && spec.label == p.label) return &p;
  }
  return nullptr;
}

std::string cyclesDigest(const std::vector<JobSpec>& jobs,
                         const std::vector<bridge::RunResult>& results) {
  std::string text;
  for (std::size_t i = 0; i < jobs.size() && i < results.size(); ++i) {
    char line[160];
    std::snprintf(line, sizeof line, "%s %llu %llu %llu\n",
                  jobs[i].label.c_str(),
                  static_cast<unsigned long long>(results[i].cycles),
                  static_cast<unsigned long long>(results[i].retired),
                  static_cast<unsigned long long>(results[i].messages));
    text += line;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(bridge::fnv1a64(text)));
  return hex;
}

ServeSchedule::ServeSchedule(std::uint64_t seed, unsigned client)
    : seed_(seed), client_(client) {}

std::uint64_t ServeSchedule::freshIndex(std::uint64_t i) const {
  const std::uint64_t round = i / 4;
  if (isFresh(i)) return round;
  // A repeat picks any fingerprint completed so far (rounds 0..round),
  // by a pure hash of (seed, client, i).
  std::uint64_t h = seed_ * 0x9E3779B97F4A7C15ull ^
                    (std::uint64_t{client_} << 40) ^ i;
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  return h % (round + 1);
}

JobSpec ServeSchedule::freshSpec(std::uint64_t k) const {
  // Low 24 bits: index; next 8: client; the run seed above them. Distinct
  // (client, k) pairs therefore never share a trace seed within a run.
  const std::uint64_t seed =
      (seed_ << 32) + (std::uint64_t{client_} << 24) + k + 1;
  return bridge::microbenchJob(PlatformId::kRocket1, "MD", 0.2, seed);
}

}  // namespace perfbench
