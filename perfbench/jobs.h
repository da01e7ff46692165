// Inputs of the benchmark's workloads, generated from the run's seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sweep/job.h"

namespace perfbench {

/// The seed whose simulated results are pinned in jobs.cpp.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Reduced scale of the simulator workloads' NPB and UME jobs.
inline constexpr double kSimScale = 0.1;

/// NPB CG/EP/IS/MG x {BananaPiSim, MilkVSim} x {1, 4} ranks, full
/// fidelity; with `with_ume`, plus UME 4 ranks on MilkVSim. Every job's
/// trace seed is `seed`.
std::vector<bridge::JobSpec> npbJobs(std::uint64_t seed, bool with_ume);

/// The same spec with the stock SamplingParams pinned in its overrides.
bridge::JobSpec sampledSpec(bridge::JobSpec spec);

/// (cycles, retired, messages) of executeJob on a job, as pinned.
struct PinnedResult {
  const char* label;
  bool sampled;
  std::uint64_t cycles;
  std::uint64_t retired;
  std::uint64_t messages;
};

/// The pinned result of `spec` at kDefaultSeed, or null if none is pinned.
/// Sampled specs are looked up among the sampled entries.
const PinnedResult* pinnedResult(const bridge::JobSpec& spec);

/// FNV-1a digest of (label, cycles, retired, messages) over `results`, in
/// order, so two commits can compare a non-default seed exactly.
std::string cyclesDigest(const std::vector<bridge::JobSpec>& jobs,
                         const std::vector<bridge::RunResult>& results);

/// Closed-loop serve traffic of one client. Requests come in rounds of
/// four: a fresh fingerprint, then three repeats of fingerprints this
/// client has already completed. Fresh specs are one microbench kernel,
/// platform and scale with seeds unique to (run seed, client, index), so
/// clients never share a fingerprint and no request attaches to another's
/// flight.
class ServeSchedule {
 public:
  ServeSchedule(std::uint64_t seed, unsigned client);

  /// True if request `i` is a fresh fingerprint (a cache miss).
  static bool isFresh(std::uint64_t i) { return i % 4 == 0; }
  /// Index of the fresh spec request `i` asks for.
  std::uint64_t freshIndex(std::uint64_t i) const;
  /// The k-th fresh spec of this client.
  bridge::JobSpec freshSpec(std::uint64_t k) const;

 private:
  std::uint64_t seed_;
  unsigned client_;
};

}  // namespace perfbench
