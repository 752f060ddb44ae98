// E10 — Theorems 23/24: the Gordon–Katz protocols bound the attacker's
// payoff by 1/p under ~γ = (0,0,1,0), at the cost of O(p·|Y|) (poly-domain)
// or O(p²·|Z|) (poly-range) reconstruction rounds. The harness sweeps p,
// fields the full attack family, and prints utility vs 1/p together with the
// round counts — who wins (the protocol), by what factor (1/p), and how the
// cost scales.
#include <algorithm>
#include <cstdio>
#include <string>

#include "experiments/registry.h"
#include "experiments/report.h"
#include "experiments/scenarios/scenarios.h"
#include "experiments/setups.h"

namespace fairsfe::experiments {
namespace {

void run(ScenarioContext& ctx) {
  bench::Reporter& rep = ctx.rep;
  const std::size_t runs = rep.runs();
  const rpd::PayoffVector gamma = ctx.spec.gamma;
  rep.gamma(gamma);

  std::uint64_t seed = ctx.spec.base_seed;
  rep.note("--- poly-size DOMAIN protocol (AND, |Y| = 2), Theorem 23 ---\n");
  for (const std::size_t p : {2u, 3u, 4u, 6u, 8u}) {
    const fair::GkParams params = fair::make_gk_and_params(p);
    rep.note("p = %zu  (round cap %zu, alpha = %.4f)\n", p, params.cap(),
             params.alpha());
    rep.row_header();
    double best = 0.0;
    for (const auto& attack : gk_attack_family(params)) {
      const auto est = rpd::estimate_utility(attack.factory, gamma, rep.opts(seed++));
      char buf[32];
      std::snprintf(buf, sizeof(buf), "<= 1/p = %.4f", 1.0 / static_cast<double>(p));
      rep.row(attack.name, est, buf);
      best = std::max(best, est.utility);
      rep.check(est.utility <= 1.0 / static_cast<double>(p) + est.margin() + 0.02,
                "p=" + std::to_string(p) + " " + attack.name + " <= 1/p");
    }
    rep.note("best attack: %.4f vs bound %.4f\n\n", best, 1.0 / static_cast<double>(p));
  }

  rep.note("--- poly-size RANGE protocol (AND output, |Z| = 2), Theorem 24 ---\n");
  for (const std::size_t p : {2u, 3u, 4u}) {
    fair::GkParams params = fair::make_gk_and_params(p);
    params.variant = fair::GkParams::Variant::kPolyRange;
    params.sample_range = [](Rng& r) { return Bytes{static_cast<std::uint8_t>(r.bit())}; };
    rep.note("p = %zu  (round cap %zu, alpha = %.5f)\n", p, params.cap(),
             params.alpha());
    rep.row_header();
    for (const auto& attack : gk_attack_family(params)) {
      const auto est = rpd::estimate_utility(attack.factory, gamma, rep.opts(seed++).with_runs(runs / 2));
      char buf[32];
      std::snprintf(buf, sizeof(buf), "<= 1/p = %.4f", 1.0 / static_cast<double>(p));
      rep.row(attack.name, est, buf);
      rep.check(est.utility <= 1.0 / static_cast<double>(p) + est.margin() + 0.02,
                "range p=" + std::to_string(p) + " " + attack.name + " <= 1/p");
    }
    rep.note("\n");
  }

  rep.note("Contrast: Theorem 3's general-function optimum is (g10+g11)/2 = 0.5\n"
           "under this gamma — the GK protocols beat it for p > 2 precisely\n"
           "because their functions have polynomial-size domains/ranges.\n");
}

}  // namespace

void register_exp10(Registry& r) {
  ScenarioSpec s;
  s.id = "exp10_gk_partial_fairness";
  s.title = "E10: Theorems 23/24 — Gordon-Katz 1/p-security";
  s.claim =
      "Claim: u_A <= 1/p for every attack; rounds grow as O(p*|Y|) /\n"
      "O(p^2*|Z|).";
  s.protocol = "Gordon-Katz poly-domain / poly-range";
  s.attack = "GK attack family";
  s.tags = {"smoke", "two-party", "gk", "partial-fairness"};
  s.gamma = rpd::PayoffVector::partial_fairness();
  s.default_runs = 2500;
  s.base_seed = 1000;
  // x = 1/p: the Theorem 23/24 cap on the attacker's payoff.
  s.bound = [](const rpd::PayoffVector&, double x) { return x; };
  s.bound_note = "u_A <= 1/p (pass x = 1/p)";
  s.attacks = gk_attack_family(fair::make_gk_and_params(4));
  s.run = run;
  r.add(std::move(s));
}

}  // namespace fairsfe::experiments
