// The traced run: per-layer attribution of the workload's own estimates,
// plus the kernel, path and service probes.
#include <map>
#include <memory>
#include <set>

#include "adversary/lock_abort.h"
#include "bench.h"
#include "circuit/circuit.h"
#include "experiments/setups.h"
#include "rpd/payoff_model.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace fs = fairsfe;
namespace {

/// Runs replayed per traced estimate (four estimator shards, so the
/// N-thread estimate has parallel work).
constexpr std::size_t kTraceRuns = 256;
/// Runs per traced GMW estimate.
constexpr std::size_t kTraceGmwRuns = 256;
/// Threads of the parallel estimate the 1-thread one is compared with.
constexpr std::size_t kParallelThreads = 4;
/// Open-loop ladder length of the service probe.
constexpr double kProbeLadderSeconds = 6.0;

struct TracedEstimate {
  std::string group;  ///< scenario id or GMW target
  fs::rpd::SetupFactory factory;
  std::shared_ptr<const fs::rpd::PayoffModel> model;
  fs::rpd::EstimatorOptions opts;
};

void add_scenario(const fs::experiments::ScenarioSpec& spec, std::vector<TracedEstimate>& out) {
  std::shared_ptr<const fs::rpd::PayoffModel> model =
      spec.model ? spec.model : std::make_shared<fs::rpd::VectorModel>(spec.gamma);
  // Every attack of the scenario's registered family, seeded as
  // assess_protocol seeds attack k. The estimates a scenario body runs
  // itself (its parameter sweeps) are not reachable from outside the
  // library, so the family stands in for them.
  for (std::size_t k = 0; k < spec.attacks.size(); ++k) {
    fs::rpd::EstimatorOptions o = spec.default_options();
    o.runs = kTraceRuns;
    o.seed = spec.base_seed + k;
    out.push_back({spec.id, spec.attacks[k].factory, model, o});
  }
}

// A lock-abort adversary corrupting party 0 of a GMW execution under `cfg`
// (inline OT), as exp12 attacks its compiled circuits: the GMW target's
// adversary layer, measured on the workload's own circuits.
fs::rpd::SetupFactory gmw_lock_abort(std::shared_ptr<const fs::mpc::GmwConfig> cfg) {
  return [cfg](fs::Rng& rng) {
    fs::rpd::RunSetup s;
    std::vector<std::vector<bool>> inputs;
    for (std::size_t p = 0; p < cfg->circuit.num_parties(); ++p) {
      const fs::Bytes x = rng.bytes((cfg->circuit.input_width(p) + 7) / 8);
      inputs.push_back(fs::circuit::bytes_to_bits(x, cfg->circuit.input_width(p)));
    }
    const fs::Bytes y = fs::circuit::bits_to_bytes(cfg->circuit.eval(inputs));
    s.parties = fs::mpc::make_gmw_parties(cfg, inputs, rng);
    s.functionality = fs::mpc::make_gmw_functionality(*cfg);
    s.adversary = std::make_unique<fs::adversary::LockAbortAdversary>(
        std::set<fs::sim::PartyId>{0}, y);
    s.engine.max_rounds = 64;
    return s;
  };
}

std::vector<TracedEstimate> traced_estimates(const Options& opt,
                                             std::vector<GmwPrepared>& keep) {
  std::vector<TracedEstimate> out;
  auto& reg = fs::experiments::Registry::instance();
  if (opt.workload == "paper_suite") {
    for (const auto* spec : reg.all()) add_scenario(*spec, out);
  } else if (opt.workload == "daemon_mix") {
    std::set<std::string> seen;
    for (const RequestClass& c : request_classes()) {
      if (seen.insert(c.scenario).second) add_scenario(*reg.find(c.scenario), out);
    }
  } else {
    const auto model =
        std::make_shared<fs::rpd::VectorModel>(fs::rpd::PayoffVector::standard());
    for (const GmwTarget& t : gmw_targets()) {
      keep.push_back(prepare_gmw(t, opt.seed));
      fs::rpd::EstimatorOptions o;
      o.runs = kTraceGmwRuns;
      o.seed = opt.seed;
      const auto& p = keep.back();
      out.push_back({t.name + "/inline",
                     fs::experiments::gmw_honest_pair(p.inline_cfg).factory, model, o});
      out.push_back({t.name + "/offline_ideal",
                     fs::experiments::gmw_honest_pair(p.offline_cfg).factory, model, o});
      out.push_back({t.name + "/lock_abort", gmw_lock_abort(p.inline_cfg), model, o});
    }
  }
  return out;
}

}  // namespace

Result run_traced(const Options& opt) {
  Result r;
  std::vector<GmwPrepared> keep;
  const std::vector<TracedEstimate> estimates = traced_estimates(opt, keep);
  LayerTotals traced;
  double untraced_s = 0.0;
  double est1_s = 0.0;
  double estn_s = 0.0;
  std::map<std::string, double> group_s;
  for (const TracedEstimate& e : estimates) {
    // Untraced replays on both sides of the traced one; the faster counts,
    // so warm-up does not read as tracing overhead.
    const ReplayResult plain = replay(e.factory, *e.model, e.opts, false);
    const ReplayResult layered = replay(e.factory, *e.model, e.opts, true);
    const ReplayResult again = replay(e.factory, *e.model, e.opts, false);
    fs::rpd::EstimationTarget target;
    target.factory = e.factory;
    auto t0 = Clock::now();
    const auto one = fs::rpd::estimate_utility(target, *e.model, e.opts);
    est1_s += seconds_since(t0);
    fs::rpd::EstimatorOptions on = e.opts;
    on.threads = kParallelThreads;
    t0 = Clock::now();
    const auto many = fs::rpd::estimate_utility(target, *e.model, on);
    estn_s += seconds_since(t0);
    // The replay is valid only if it reproduces the estimator's per-run
    // events exactly, traced and untraced, at 1 and 4 threads.
    r.tally(layered.events == one.run_events && plain.events == one.run_events &&
            again.events == one.run_events && many.run_events == one.run_events);
    traced.add(layered.totals);
    const double plain_s = std::min(plain.totals.wall_s, again.totals.wall_s);
    untraced_s += plain_s;
    group_s[e.group] += plain_s;
  }

  const double runs = static_cast<double>(std::max<std::size_t>(1, traced.runs));
  const auto per_run_us = [&](Layer l) { return traced.self_s[l] * 1e6 / runs; };
  r.set("setups.factory_us", per_run_us(kFactory), "us");
  r.set("sim.engine_self_us", per_run_us(kEngine), "us");
  r.set("fair.party_us", per_run_us(kParty), "us");
  r.set("mpc.func_us", per_run_us(kFunc), "us");
  r.set("adversary.adv_us", per_run_us(kAdv), "us");
  r.set("adversary.probe_us", per_run_us(kProbe), "us");
  r.set("adversary.probe_calls", static_cast<double>(traced.probe_calls) / runs, "count");
  r.set("adversary.honest_steps", static_cast<double>(traced.honest_steps) / runs, "count");
  r.set("rpd.score_us", per_run_us(kScore), "us");
  r.set("sim.messages", static_cast<double>(traced.messages) / runs, "count");
  r.set("sim.payload_bytes", static_cast<double>(traced.payload_bytes) / runs, "bytes");
  r.set("sim.rounds", static_cast<double>(traced.rounds) / runs, "count");
  r.set("trace.replayed_runs", runs, "count");
  r.set("trace.overhead_pct", 100.0 * (traced.wall_s - untraced_s) / untraced_s, "pct");
  // Thread-seconds the 4-thread estimates spend beyond the 1-thread ones
  // (shard start-up, merge, contention), and the matching efficiency.
  const double parallel_s = static_cast<double>(kParallelThreads) * estn_s;
  r.set("rpd.merge_overhead_pct", 100.0 * (parallel_s - est1_s) / est1_s, "pct");
  r.set("util.parallel_eff", est1_s / parallel_s, "ratio");

  r.merge(run_crypto_probe());
  r.merge(run_mpc_probe(opt));
  r.merge(run_service_probe(opt, kProbeLadderSeconds));

  std::string detail = "{\"estimates\":" + std::to_string(estimates.size()) + ",\"replay_s\":{";
  bool first = true;
  for (const auto& [g, s] : group_s) {
    detail += (first ? "\"" : ",\"") + g + "\":" + std::to_string(s);
    first = false;
  }
  r.detail_json = detail + "}}";
  return r;
}

}  // namespace perfbench
