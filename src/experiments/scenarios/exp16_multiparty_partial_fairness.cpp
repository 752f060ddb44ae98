// E16 (extension) — multi-party 1/p-security (Beimel–Lindell–Omri–Orlov,
// the paper's reference [3] for Section 5).
//
// The simplified multi-party GK protocol (fair/gk_multi.h) keeps every
// coalition's unfair-abort payoff under 1/p, independently of the coalition
// size t: the only unsimulatable event is withholding the round-i* summands,
// and rushing does not help guess i*. The harness sweeps n, t and p.
#include <cstdio>
#include <string>

#include "experiments/registry.h"
#include "experiments/report.h"
#include "experiments/scenarios/scenarios.h"
#include "experiments/setups.h"
#include "fair/gk_multi.h"

namespace fairsfe::experiments {
namespace {

void run(ScenarioContext& ctx) {
  bench::Reporter& rep = ctx.rep;
  const rpd::PayoffVector pf = ctx.spec.gamma;
  rep.gamma(pf);

  std::uint64_t seed = ctx.spec.base_seed;
  for (const std::size_t n : {3u, 4u, 5u}) {
    for (const std::size_t p : {2u, 4u}) {
      const fair::GkMultiParams params = fair::make_gk_multi_and_params(n, p);
      rep.note("--- n = %zu, p = %zu (cap %zu rounds, alpha %.4f) ---\n", n, p,
               params.cap(), params.alpha());
      rep.row_header();
      for (std::size_t t = 1; t < n; ++t) {
        double best = 0.0;
        std::string best_name;
        rpd::UtilityEstimate best_est;
        for (const auto& attack : gk_multi_attack_family(n, t, p)) {
          const auto est = rpd::estimate_utility(attack.factory, pf, rep.opts(seed++));
          if (est.utility >= best) {
            best = est.utility;
            best_name = attack.name;
            best_est = est;
          }
          rep.check(est.utility <= 1.0 / static_cast<double>(p) + est.margin() + 0.02,
                    "n=" + std::to_string(n) + " t=" + std::to_string(t) + " p=" +
                    std::to_string(p) + " " + attack.name + " <= 1/p");
        }
        char buf[48];
        std::snprintf(buf, sizeof(buf), "<= 1/p = %.4f", 1.0 / static_cast<double>(p));
        rep.row("t=" + std::to_string(t) + " best: " + best_name, best_est, buf);
      }
      rep.note("\n");
    }
  }

  rep.note("Shape: unlike the all-or-nothing Pi-1/2-GMW staircase (E07), partial\n"
           "fairness degrades with p, not with t — the multi-party extension\n"
           "keeps the 1/p guarantee even against n-1 colluding parties.\n");
}

}  // namespace

void register_exp16(Registry& r) {
  ScenarioSpec s;
  s.id = "exp16_multiparty_partial_fairness";
  s.title = "E16 (extension): multi-party 1/p-security [Beimel et al.]";
  s.claim =
      "Claim: every t-coalition's payoff stays <= 1/p under (0,0,1,0),\n"
      "for all 1 <= t <= n-1, at O(p*|Y|) broadcast rounds.";
  s.protocol = "multi-party GK (fair/gk_multi.h)";
  s.attack = "GK multi-party coalition family";
  s.tags = {"smoke", "multi-party", "gk", "partial-fairness", "extension"};
  s.gamma = rpd::PayoffVector::partial_fairness();
  s.default_runs = 1500;
  s.base_seed = 1600;
  // x = 1/p, as in E10.
  s.bound = [](const rpd::PayoffVector&, double x) { return x; };
  s.bound_note = "u_A <= 1/p (pass x = 1/p)";
  s.attacks = gk_multi_attack_family(4, 2, 4);
  s.run = run;
  r.add(std::move(s));
}

}  // namespace fairsfe::experiments
