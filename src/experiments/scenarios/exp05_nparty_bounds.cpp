// E05 — Lemma 11 / Lemma 13: the multi-party bounds.
//
// Against ΠOptnSFE a t-adversary earns at most (t·γ10 + (n−t)·γ11)/n — the
// chance of having corrupted the value-holder p_{i*} is exactly t/n — and
// the (n−1)-coalition (or the mixed A_ī adversary) achieves the optimum
// ((n−1)γ10 + γ11)/n. The harness sweeps n and t and prints both series.
#include <cmath>
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
  const rpd::PayoffVector gamma = ctx.spec.gamma;
  rep.gamma(gamma);

  std::uint64_t seed = ctx.spec.base_seed;

  for (const std::size_t n : {3u, 4u, 5u, 6u, 8u}) {
    rep.note("--- n = %zu ---\n", n);
    rep.row_header();
    for (std::size_t t = 1; t < n; ++t) {
      const auto est = rpd::estimate_utility(optn_lock_abort(n, t), gamma, rep.opts(seed++));
      const double bound = gamma.nparty_bound(t, n);
      char buf[64];
      std::snprintf(buf, sizeof(buf), "(t*g10+(n-t)*g11)/n = %.3f", bound);
      rep.row("lock-abort t=" + std::to_string(t), est, buf);
      rep.check(std::abs(est.utility - bound) < est.margin() + 0.03,
                "n=" + std::to_string(n) + " t=" + std::to_string(t) +
                " matches the Lemma 11 value");
    }
    // Lemma 13: the mixed adversary achieves the optimum.
    const auto mixed = rpd::estimate_utility(optn_a_ibar_mixed(n), gamma, rep.opts(seed++));
    char buf[64];
    std::snprintf(buf, sizeof(buf), "optimum ((n-1)g10+g11)/n = %.3f",
                  gamma.nparty_opt_bound(n));
    rep.row("mixed A_ibar (Lemma 13)", mixed, buf);
    rep.check(mixed.utility >= gamma.nparty_opt_bound(n) - mixed.margin() - 0.03,
              "n=" + std::to_string(n) + " mixed A_ibar achieves the optimum");
    rep.note("\n");
  }

  rep.note("Shape: utility grows linearly in t with slope (g10-g11)/n and the\n"
           "optimum approaches g10 as n grows — exactly the paper's series.\n");
}

}  // namespace

void register_exp05(Registry& r) {
  ScenarioSpec s;
  s.id = "exp05_nparty_bounds";
  s.title = "E05: Lemma 11/13 — OptNSFE multi-party bounds";
  s.claim = "Claim: u(t-adversary) = (t*g10 + (n-t)*g11)/n; optimum at t = n-1.";
  s.protocol = "OptNSFE";
  s.attack = "t-coalition lock-abort, mixed A_ibar";
  s.tags = {"smoke", "multi-party", "optn"};
  s.gamma = rpd::PayoffVector::standard();
  s.default_runs = 2500;
  s.base_seed = 500;
  // x = t/n: the Lemma 11 line through (0, g11) and (1, g10).
  s.bound = [](const rpd::PayoffVector& g, double x) {
    return x * g.g10 + (1.0 - x) * g.g11;
  };
  s.bound_note = "(t*g10+(n-t)*g11)/n at x = t/n";
  s.attacks = {{"lock-abort n=5 t=4", optn_lock_abort(5, 4)},
               {"mixed A_ibar n=5", optn_a_ibar_mixed(5)}};
  s.run = run;
  r.add(std::move(s));
}

}  // namespace fairsfe::experiments
