// The fixed inputs of the three workloads, shared by the timed runs, the
// traced run and the pin printer.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "experiments/registry.h"
#include "experiments/report.h"
#include "mpc/gmw.h"
#include "rpd/estimator.h"

namespace perfbench {

// ----------------------------------------------------------- paper_suite

/// The suite runs every scenario at 1/kSuiteRunDivisor of its registered
/// runs (at its registered seeds): one pass then fits a run of the
/// benchmark, and every paper check still passes at that size.
inline constexpr std::size_t kSuiteRunDivisor = 4;

/// fairbench's arguments for one scenario of the suite pass.
fairsfe::bench::Args suite_args(const fairsfe::experiments::ScenarioSpec& spec,
                                std::size_t threads);

// ---------------------------------------------------------- gmw_circuits

/// An honest GMW execution target (experiments::gmw_honest_pair) with the
/// run count of each execution path per job. The counts give every job a
/// similar length (about 100 ms on a 2020s x86 core), so each path carries
/// a similar share of the workload's time and the job-latency median sits
/// in a dense part of the distribution.
struct GmwTarget {
  std::string name;
  fairsfe::circuit::Circuit circuit;
  std::size_t inline_runs;
  std::size_t offline_runs;
  std::size_t sliced_runs;
};
std::vector<GmwTarget> gmw_targets();

/// One target's compiled configurations: the inline one (also driving the
/// 64-lane sliced path) and the offline_ideal one over a dealer batch sized
/// for `offline_runs`.
struct GmwPrepared {
  std::shared_ptr<const fairsfe::mpc::GmwConfig> inline_cfg;
  std::shared_ptr<const fairsfe::mpc::GmwConfig> offline_cfg;
  double batch_s = 0.0;
  std::size_t triples = 0;
};
GmwPrepared prepare_gmw(const GmwTarget& t, std::uint64_t dealer_seed);

enum class GmwPath { kInline, kOffline, kSliced };
const char* to_string(GmwPath p);

/// One estimate of a target through one path, checked against its pin.
struct GmwJobResult {
  fairsfe::rpd::UtilityEstimate est;
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< CPU seconds of this process during the estimate
  bool pinned = false;  ///< all runs valid and the estimate equals the pin
};
GmwJobResult run_gmw_job(const GmwTarget& t, const GmwPrepared& p, GmwPath path,
                         std::uint64_t seed, std::size_t threads);

// ------------------------------------------------------------ daemon_mix

/// One fairbenchd request class. `fresh_seed` classes carry a new seed on
/// every request (offline-batch cache miss); the others repeat one request.
/// The repo records no daemon traffic, so the mix is assumed: the open-loop
/// cycle gives every class one slot and `contract` two (service.cpp), and
/// every request asks for kRequestRuns runs.
struct RequestClass {
  std::string name;
  std::string scenario;
  std::string preproc;    ///< "" = inline
  std::string transport;  ///< "" = inproc
  bool fixed_seed;        ///< send "seed": kFixedRequestSeed
  bool fresh_seed;
};
/// Runs per request, as in scripts/loadtest.py's example invocation; exp21's
/// statistical checks need at least 24.
inline constexpr std::size_t kRequestRuns = 32;
inline constexpr std::uint64_t kFixedRequestSeed = 7;
const std::vector<RequestClass>& request_classes();

/// The request line for class `c` (seed used only by fresh-seed classes).
std::string request_line(const RequestClass& c, std::uint64_t seed, const std::string& id);
/// The fairbench arguments the daemon derives from that request.
fairsfe::bench::Args request_args(const RequestClass& c, std::uint64_t seed);

}  // namespace perfbench
