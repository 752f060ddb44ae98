#include "pins.h"

#include <cstdio>
#include <map>

#include "bench.h"
#include "service/runner.h"
#include "workloads.h"

namespace perfbench {
namespace fs = fairsfe;
namespace {

const std::map<std::string, std::string> kScenarioPins = {
    {"exp01_contract_fairness", "c016c665acefff7ee111efddb83fbcbf7ce0c09370dbbf2168a2d590e5a1d00e"},  // deviations 0
    {"exp02_opt2sfe_upper", "e260f45ee68981e4d1d9fc7fcf7332f3f01a340106c9b6d2511eff0ac1cd9581"},  // deviations 0
    {"exp03_swap_lower", "9d0d8f9b31bfe136a3db33806f688d178b077c8bf2afdf28234e261bae3f21de"},  // deviations 0
    {"exp04_reconstruction_rounds", "feea8884b05b016a272af6a020748d2ea2b78344a385b033a83f8cf63bad1ce2"},  // deviations 0
    {"exp05_nparty_bounds", "823fa86f6f6991c418f726a8489e50ca019e2998db6597e5dc4bcfcfa7298879"},  // deviations 0
    {"exp06_utility_balance", "00d16068dfd850ae69e074c639f23a89cf2e4c539d1c845d62730a5cc137ef7c"},  // deviations 0
    {"exp07_gmw_half_unbalanced", "8e9e5d43b4ec370a629207aebdaa2f358ae22ebe07f96b3ea3bdcb1731cfb889"},  // deviations 0
    {"exp08_optimal_vs_balanced", "58e13346f3bf52513895e0690767e8a031e31e063f2884d8be75c20db71a27ed"},  // deviations 0
    {"exp09_corruption_cost", "9df5ee6498300fb014e087ce9d37b7ac03bf53ea6ec0b1a869f2dcf3f0ac3786"},  // deviations 0
    {"exp10_gk_partial_fairness", "8d7a96d6d3072919f3f980ffa1b07316ba6b36724791bb2521bee0d170cbefe2"},  // deviations 0
    {"exp11_leaky_and_separation", "e7c69137871e6fd96d824f1f5ada81dde155782172849af2f38f5edf88abd979"},  // deviations 0
    {"exp12_composition", "9364ac0fd51db4633c23c7de05fa4c64ab0c58c53ae38e98949f555f0d8af40b"},  // deviations 0
    {"exp13_gradual_release", "65cd60377e70e716699e69dc113d04ccbd543a3c8ea6652612360e88664d20af"},  // deviations 0
    {"exp14_attack_game", "e1f52aa4d6bd26b3e64b0bcc096729662a38aecb7fdfdc42de6ddbd7943bb974"},  // deviations 0
    {"exp15_gamma_sensitivity", "e8a08b6d57e54358a2a66244b273655487be07e429f4adcc3264523723f9115e"},  // deviations 0
    {"exp16_multiparty_partial_fairness", "025ca83c6bd31c68b6bf1f3781087b57dddc3a2ea5585840f55a82eacf806ebc"},  // deviations 0
    {"exp17_cleve_bias", "171dc6a784765732387e502528105998814f5c6cf2dc4c9cb3fa345fbd7ee17f"},  // deviations 0
    {"exp18_fault_tolerance", "a24b018d3f94c5276df056d74874d974e5e21ab986cd070c3fa1d2e78a3bf766"},  // deviations 0
    {"exp19_preproc_split", "13d78eec0fd8cd2225ade07c8ffeed6e70bd4be4858977676d5a77ee9a2c655f"},  // deviations 0
    {"exp20_bitslice", "3e243f46f520a0595b0f30218daafd98c0f3ac2d99761dd9667cc49c18604ac8"},  // deviations 0
    {"exp21_partial_1p", "9cffbeb08b58c46327518a1cbf7b867a8f64722117324758d8909e0b6703511b"},  // deviations 0
    {"exp22_penalty_shift", "8222c741511c9bf599e61d88b2e6bc07378c1f9406ed3b9af07690a1c682d74b"},  // deviations 0
};

const std::map<std::string, GmwPin> kGmwPins = {
    {"millionaires_16", {0, {0, 1, 0, 0}}},
    {"max_4party_8bit", {0, {0, 1, 0, 0}}},
};

const std::map<std::string, std::string> kClassPins = {
    {"contract", "0ef07ae88db9573e6cec41b6a4b2157885af3e37e547f1ec016c136fae1ea9cc"},  // deviations 0
    {"zoo", "9c0e6633204941f21374fed067b07558d215441650474755332c0b6da0378f8e"},  // deviations 0
    {"gmw", "be082094f9d0ae15f383583fece70315c15ce724b74c9650439eb61e2126a482"},  // deviations 0
    {"preproc_hit", "9f5e191fd8af65f50b6919e9bc0693897287dd9f759c6ff649e07f5780acb7b6"},  // deviations 0
    {"tcp", "4f9282fb5766e817491886c592fe14cee23fae4ecddec1300113037a491e01e1"},  // deviations 0
};

template <typename Map>
typename Map::mapped_type lookup(const Map& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? typename Map::mapped_type{} : it->second;
}

}  // namespace

std::string scenario_pin(const std::string& id) { return lookup(kScenarioPins, id); }
GmwPin gmw_pin(const std::string& target) { return lookup(kGmwPins, target); }
std::string class_pin(const std::string& name) { return lookup(kClassPins, name); }

void print_pins(std::FILE* out) {
  std::fprintf(out, "const std::map<std::string, std::string> kScenarioPins = {\n");
  for (const auto* spec : fs::experiments::Registry::instance().all()) {
    const auto res = fs::service::run_scenario(*spec, suite_args(*spec, hardware_threads()));
    std::fprintf(out, "    {\"%s\", \"%s\"},  // deviations %d\n", spec->id.c_str(),
                report_digest(res.json).c_str(), res.deviations);
  }
  std::fprintf(out, "};\n\nconst std::map<std::string, GmwPin> kGmwPins = {\n");
  for (const GmwTarget& t : gmw_targets()) {
    const GmwPrepared p = prepare_gmw(t, 1);
    const auto res = run_gmw_job(t, p, GmwPath::kInline, 1, 1);
    const auto& f = res.est.event_freq;
    std::fprintf(out, "    {\"%s\", {%.17g, {%.17g, %.17g, %.17g, %.17g}}},\n", t.name.c_str(),
                res.est.utility, f[0], f[1], f[2], f[3]);
  }
  std::fprintf(out, "};\n\nconst std::map<std::string, std::string> kClassPins = {\n");
  for (const RequestClass& c : request_classes()) {
    if (c.fresh_seed) continue;
    const auto* spec = fs::experiments::Registry::instance().find(c.scenario);
    const auto res = fs::service::run_scenario(*spec, request_args(c, 0));
    std::fprintf(out, "    {\"%s\", \"%s\"},  // deviations %d\n", c.name.c_str(),
                report_digest(res.json).c_str(), res.deviations);
  }
  std::fprintf(out, "};\n");
}

}  // namespace perfbench
