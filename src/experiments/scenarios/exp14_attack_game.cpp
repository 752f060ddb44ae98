// E14 (extension) — the RPD attack meta-game, played out.
//
// RPD frames protocol design as a zero-sum game: the designer D commits to a
// protocol, the attacker A best-responds. The paper notes (footnote 1 and
// Remark 2) that an optimally fair protocol is exactly a minimax solution of
// this game. The harness builds the payoff matrix — rows: candidate
// two-party protocols; columns: attack strategies — and verifies that
// ΠOpt2SFE is the minimax row, i.e. argmin over protocols of the best
// attacker's utility.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "adversary/lock_abort.h"
#include "experiments/registry.h"
#include "experiments/report.h"
#include "experiments/scenarios/scenarios.h"
#include "experiments/setups.h"
#include "fair/gradual.h"
#include "fair/opt2sfe.h"

namespace fairsfe::experiments {
namespace {

// The one-round strawman from exp04, reproduced via the library API: plain
// unfair SFE with simultaneous opening == the Pi1 contract protocol family;
// here we reuse Pi1/Pi2 and gradual release as the alternative designs.
struct ProtocolRow {
  std::string name;
  std::function<rpd::SetupFactory(sim::PartyId)> attack_for;
};

rpd::SetupFactory gradual_attack(sim::PartyId corrupt) {
  return [corrupt](Rng& rng) {
    rpd::RunSetup s;
    const Bytes x0 = rng.bytes(2), x1 = rng.bytes(2);
    fair::GradualConfig cfg;
    cfg.secret_bits = 16;
    cfg.budget_bits = {4, 4};
    s.parties = fair::make_gradual_parties(cfg, x0, x1, rng);
    s.adversary = std::make_unique<adversary::LockAbortAdversary>(
        std::set<sim::PartyId>{corrupt}, x0 + x1);
    s.engine.max_rounds = 64;
    return s;
  };
}

void run(ScenarioContext& ctx) {
  bench::Reporter& rep = ctx.rep;
  const rpd::PayoffVector gamma = ctx.spec.gamma;
  rep.gamma(gamma);

  const std::vector<ProtocolRow> designs = {
      {"Pi1 (ordered opening)",
       [](sim::PartyId c) { return contract_attack(fair::ContractVariant::kPi1, c); }},
      {"Pi2 (coin-tossed order)",
       [](sim::PartyId c) { return contract_attack(fair::ContractVariant::kPi2, c); }},
      {"gradual release (16 bits)", gradual_attack},
      {"Opt2SFE", [](sim::PartyId c) { return opt2_lock_abort(c); }},
  };

  rep.note("payoff matrix: max over {corrupt p1, corrupt p2} lock-abort attackers\n\n");
  rep.note("%-28s %14s %14s %12s\n", "design", "vs corrupt p1", "vs corrupt p2",
           "sup_A");
  std::uint64_t seed = ctx.spec.base_seed;
  double best_value = 1e9;
  std::string best_name;
  double opt2_value = 0;
  for (const auto& d : designs) {
    const auto a1 = rpd::estimate_utility(d.attack_for(0), gamma, rep.opts(seed++));
    const auto a2 = rpd::estimate_utility(d.attack_for(1), gamma, rep.opts(seed++));
    const double sup = std::max(a1.utility, a2.utility);
    rep.note("%-28s %14.4f %14.4f %12.4f\n", d.name.c_str(), a1.utility, a2.utility,
             sup);
    if (sup < best_value) {
      best_value = sup;
      best_name = d.name;
    }
    if (d.name == "Opt2SFE") opt2_value = sup;
  }
  rep.note("\nminimax design: %s (game value %.4f; theory %.4f)\n\n", best_name.c_str(),
           best_value, gamma.two_party_opt_bound());

  // Opt2SFE must sit at the game value. (Pi2 ties it on this function — the
  // coin-tossed contract exchange is itself optimally fair for swaps, so the
  // minimax row is attained by both; any nominal argmin winner among the
  // tied rows is Monte-Carlo noise.)
  rep.check(opt2_value <= best_value + 0.03,
            "Opt2SFE attains the minimax value of the attack game");
  rep.check(std::abs(opt2_value - gamma.two_party_opt_bound()) < 0.03,
            "the game value equals (g10+g11)/2 — Theorems 3+4 as a saddle point");
  rep.note("Interpretation: the designer cannot push the best attacker below\n"
           "(g10+g11)/2 (Theorem 4), and Opt2SFE attains it (Theorem 3): the pair\n"
           "(Opt2SFE, Agen) is an equilibrium of the RPD meta-game.\n");
}

}  // namespace

void register_exp14(Registry& r) {
  ScenarioSpec s;
  s.id = "exp14_attack_game";
  s.title = "E14 (extension): the RPD attack game, minimax check";
  s.claim =
      "Claim: Opt2SFE = argmin_Pi max_A u_A(Pi, A) over the two-party\n"
      "designs in this library (the optimal protocol is the game value).";
  s.protocol = "Pi1 / Pi2 / gradual release / Opt2SFE (the design rows)";
  s.attack = "lock-abort columns (corrupt p1, corrupt p2)";
  s.tags = {"smoke", "two-party", "game", "extension"};
  s.gamma = rpd::PayoffVector::standard();
  s.default_runs = 2000;
  s.base_seed = 1400;
  s.bound = [](const rpd::PayoffVector& g, double) { return g.two_party_opt_bound(); };
  s.bound_note = "game value (g10+g11)/2";
  s.attacks = {{"Opt2SFE vs corrupt p1", opt2_lock_abort(0)},
               {"Opt2SFE vs corrupt p2", opt2_lock_abort(1)}};
  s.run = run;
  r.add(std::move(s));
}

}  // namespace fairsfe::experiments
