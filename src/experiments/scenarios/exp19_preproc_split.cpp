// E19 — offline/online phase split (DESIGN.md §10): moving the OT
// correlations of the GMW substrate into a preprocessing phase — whether
// dealt by a trusted dealer (offline_ideal) or produced by running the real
// OT rounds up front (offline_ot) — leaves every measured utility and
// fairness verdict bit-identical to the classic inline OT-hybrid execution.
//
// This is the composition claim of E12 applied to the *phase structure* of
// the protocol rather than the hybrid box: the paper's utilities are
// functions of who learns what, so substituting when the correlated
// randomness is produced must be invisible to the estimator. The scenario
// runs the same rushing lock-abort attack under all three PreprocModes with
// the same seeds and demands exact (not statistical) agreement.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>

#include "adversary/lock_abort.h"
#include "circuit/builder.h"
#include "experiments/registry.h"
#include "experiments/report.h"
#include "experiments/scenarios/scenarios.h"
#include "experiments/setups.h"
#include "mpc/gmw.h"
#include "mpc/preproc/provider.h"

namespace fairsfe::experiments {
namespace {

using mpc::preproc::PreprocMode;

// Rushing lock-abort against a GMW execution under `cfg` (any PreprocMode):
// corrupt p1, extract y at the output round, abort. The factory body is
// mode-independent, so the setup_rng draws — inputs and share randomness —
// are consumed identically under every mode; only the AND-layer mechanics
// differ.
rpd::SetupFactory gmw_lock_abort(std::shared_ptr<const mpc::GmwConfig> cfg) {
  return [cfg](Rng& rng) {
    rpd::RunSetup s;
    std::vector<std::vector<bool>> inputs;
    for (std::size_t p = 0; p < cfg->circuit.num_parties(); ++p) {
      const Bytes x = rng.bytes((cfg->circuit.input_width(p) + 7) / 8);
      inputs.push_back(circuit::bytes_to_bits(x, cfg->circuit.input_width(p)));
    }
    const Bytes y = circuit::bits_to_bytes(cfg->circuit.eval(inputs));
    s.parties = mpc::make_gmw_parties(cfg, inputs, rng);
    s.functionality = mpc::make_gmw_functionality(*cfg);
    s.adversary =
        std::make_unique<adversary::LockAbortAdversary>(std::set<sim::PartyId>{0}, y);
    s.bind_run = mpc::make_gmw_run_binder(s.parties);
    s.engine.max_rounds = 128;
    return s;
  };
}

bool bit_identical(const rpd::UtilityEstimate& a, const rpd::UtilityEstimate& b) {
  return a.utility == b.utility && a.std_error == b.std_error &&
         a.event_freq == b.event_freq && a.run_events == b.run_events;
}

void run(ScenarioContext& ctx) {
  bench::Reporter& rep = ctx.rep;
  const rpd::PayoffVector gamma = ctx.spec.gamma;
  rep.gamma(gamma);

  // One offline batch per (mode, circuit), sized for the whole sweep. The
  // driver-amortized ctx.batch covers the registered budget (2-party
  // millionaires) when fairbench ran with the matching --preproc mode; every
  // other batch is generated — and its offline cost reported — here.
  auto batch_for = [&](PreprocMode mode, const circuit::Circuit& c,
                       std::size_t parties, std::size_t triples_per_run) {
    const std::size_t triples = rep.runs() * triples_per_run;
    if (mode == ctx.preproc && ctx.batch && ctx.batch->num_parties() == parties &&
        ctx.batch->num_triples() >= triples) {
      return ctx.batch;  // the driver already timed this one
    }
    (void)c;
    mpc::preproc::PreprocRequest req;
    req.parties = parties;
    req.triples = triples;
    Rng rng(ctx.spec.base_seed);
    const auto t0 = std::chrono::steady_clock::now();
    auto batch = mpc::preproc::generate_batch(mode, req, rng);
    const auto t1 = std::chrono::steady_clock::now();
    rep.offline_batch(std::string(mpc::preproc::to_string(mode)), triples,
                      std::chrono::duration<double>(t1 - t0).count());
    return batch;
  };

  auto estimate_mode = [&](const circuit::Circuit& c, PreprocMode mode,
                           std::uint64_t seed) {
    mpc::GmwConfigBuilder b = mpc::GmwConfig::for_circuit(c);
    if (mpc::preproc::is_offline(mode)) {
      auto probe = mpc::GmwConfig::public_output(c);
      b.with_preproc(mode, batch_for(mode, c, c.num_parties(), probe.triples_per_run()));
    }
    // Same seed for every mode: run i sees identical inputs and share
    // randomness, so agreement can be demanded exactly.
    return rpd::estimate_utility(gmw_lock_abort(b.build_shared()), gamma,
                                 rep.opts(seed));
  };

  rep.row_header();

  // 2-party millionaires: the full three-way split.
  {
    const circuit::Circuit mill = circuit::make_millionaires_circuit(8);
    const std::uint64_t seed = ctx.spec.base_seed;
    const auto inl = estimate_mode(mill, PreprocMode::kInline, seed);
    const auto ideal = estimate_mode(mill, PreprocMode::kOfflineIdeal, seed);
    const auto ot = estimate_mode(mill, PreprocMode::kOfflineOt, seed);
    rep.row("millionaires-8 [inline]", inl, "g10 (rushing lock-abort)");
    rep.row("millionaires-8 [offline_ideal]", ideal, "identical to inline");
    rep.row("millionaires-8 [offline_ot]", ot, "identical to inline");
    rep.check(bit_identical(inl, ideal),
              "millionaires-8: offline_ideal bit-identical to inline");
    rep.check(bit_identical(inl, ot),
              "millionaires-8: offline_ot bit-identical to inline");
    rep.check(std::abs(inl.utility - gamma.g10) < inl.margin() + 0.02,
              "millionaires-8: lock-abort earns g10 regardless of phase split");
  }

  // 4-party max: the multi-party Beaver path (pairwise shares across all
  // n(n-1)/2 pairs), inline vs dealer.
  {
    const circuit::Circuit max4 = circuit::make_max_circuit(4, 8);
    const std::uint64_t seed = ctx.spec.base_seed + 100;
    const auto inl = estimate_mode(max4, PreprocMode::kInline, seed);
    const auto ideal = estimate_mode(max4, PreprocMode::kOfflineIdeal, seed);
    rep.row("max-4party-8 [inline]", inl, "g10 (rushing lock-abort)");
    rep.row("max-4party-8 [offline_ideal]", ideal, "identical to inline");
    rep.check(bit_identical(inl, ideal),
              "max-4party-8: offline_ideal bit-identical to inline");
  }

  rep.note(
      "\nNote: the offline batch is a pure function of (seed, budget) — the\n"
      "dealer derives it from Rng forks, the OT-driven provider replays the\n"
      "real OtHub rounds — so the online phase (one broadcast per AND layer,\n"
      "zero kFunc traffic) is a drop-in substitution. See DESIGN.md §10.\n");
}

}  // namespace

void register_exp19(Registry& r) {
  ScenarioSpec s;
  s.id = "exp19_preproc_split";
  s.title = "E19: offline/online split — preprocessing leaves utilities unchanged";
  s.claim =
      "Claim: producing the GMW OT correlations offline (trusted dealer or\n"
      "up-front OT rounds) yields bit-identical utilities and verdicts.";
  s.protocol = "GMW (inline OT / offline_ideal / offline_ot)";
  s.attack = "rushing lock-abort";
  s.tags = {"smoke", "gmw", "preproc", "mpc", "composition"};
  s.gamma = rpd::PayoffVector::standard();
  s.default_runs = 300;
  s.base_seed = 1900;
  // The driver-amortized budget: 2-party millionaires, one triple per AND
  // gate per run (the 4-party leg sizes its own batch in the body).
  s.preproc = PreprocBudget{
      .parties = 2,
      .triples_per_run =
          mpc::GmwConfig::public_output(circuit::make_millionaires_circuit(8))
              .triples_per_run(),
      .rots_per_run = 0};
  s.bound = [](const rpd::PayoffVector& g, double) { return g.g10; };
  s.bound_note = "g10 under every PreprocMode";
  // Canonical family stays inline so assess_protocol callers with arbitrary
  // run counts never outrun a pre-sized batch.
  s.attacks = {{"lock-abort [inline]",
                gmw_lock_abort(mpc::GmwConfigBuilder(
                                   circuit::make_millionaires_circuit(8))
                                   .build_shared())}};
  s.run = run;
  r.add(std::move(s));
}

}  // namespace fairsfe::experiments
