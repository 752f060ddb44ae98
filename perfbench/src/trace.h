// Layer attribution from outside the library.
//
// replay() re-runs an estimate's per-run loop single-threaded, exactly as
// rpd::estimate_utility does it: run i draws Rng(seed).fork_at("run", i),
// builds its setup from fork("setup"), binds its offline slice, applies the
// fault-plan override and executes on fork("engine"). With tracing on, the
// setup's parties, functionality and adversary are wrapped in forwarding
// proxies that time every call into them; nested calls (a functionality
// consulting the adversary's abort gate, an adversary driving a corrupted
// party through honest_step) are charged to the innermost layer, so the
// per-layer figures are self times that add up to the replay's wall time.
// The proxies never draw randomness or reorder calls, so the replayed events
// must equal estimate_utility's run_events exactly; run_traced() checks it.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "rpd/estimator.h"

namespace perfbench {

enum Layer : std::size_t {
  kEngine,   ///< sim: routing and bookkeeping outside the calls below
  kFactory,  ///< setups: the per-run setup factory and slice binding
  kParty,    ///< fair/mpc party state machines (IParty)
  kFunc,     ///< ideal functionalities (IFunctionality: OT hub, ShareGen)
  kAdv,      ///< adversary strategy logic (IAdversary)
  kProbe,    ///< AdvContext::probe_output: clone + hypothetical continuation
  kScore,    ///< rpd: event classification and payoff scoring
  kNumLayers
};

/// Per-replay totals.
struct LayerTotals {
  std::array<double, kNumLayers> self_s{};
  std::uint64_t probe_calls = 0;
  std::uint64_t honest_steps = 0;
  std::uint64_t messages = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t rounds = 0;
  std::size_t runs = 0;
  double wall_s = 0.0;

  void add(const LayerTotals& o);
};

struct ReplayResult {
  LayerTotals totals;
  std::vector<fairsfe::rpd::FairnessEvent> events;
};

/// Replay `opts.runs` runs of `factory` as estimate_utility(target{factory},
/// model, opts) would (scalar path, inproc transport).
ReplayResult replay(const fairsfe::rpd::SetupFactory& factory,
                    const fairsfe::rpd::PayoffModel& model,
                    const fairsfe::rpd::EstimatorOptions& opts, bool traced);

}  // namespace perfbench
