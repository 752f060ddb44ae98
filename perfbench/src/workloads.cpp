#include "workloads.h"

#include "circuit/builder.h"
#include "crypto/rng.h"
#include "mpc/preproc/provider.h"
#include "bench.h"

namespace perfbench {
namespace fs = fairsfe;

fs::bench::Args suite_args(const fs::experiments::ScenarioSpec& spec, std::size_t threads) {
  fs::bench::Args a;
  a.runs = std::max<std::size_t>(1, spec.default_runs / kSuiteRunDivisor);
  a.runs_set = true;
  a.threads = threads;
  a.quiet = true;
  return a;
}

std::vector<GmwTarget> gmw_targets() {
  return {
      {"millionaires_16", fs::circuit::make_millionaires_circuit(16), 1792, 4096, 26624},
      {"max_4party_8bit", fs::circuit::make_max_circuit(4, 8), 192, 896, 6400},
  };
}

GmwPrepared prepare_gmw(const GmwTarget& t, std::uint64_t dealer_seed) {
  GmwPrepared p;
  p.inline_cfg = std::make_shared<const fs::mpc::GmwConfig>(
      fs::mpc::GmwConfig::public_output(t.circuit));
  fs::mpc::preproc::PreprocRequest req;
  req.parties = t.circuit.num_parties();
  req.triples = t.offline_runs * p.inline_cfg->triples_per_run();
  fs::Rng dealer(dealer_seed);
  const auto t1 = Clock::now();
  auto batch = fs::mpc::preproc::generate_batch(fs::mpc::preproc::PreprocMode::kOfflineIdeal,
                                                req, dealer);
  p.batch_s = seconds_since(t1);
  p.triples = req.triples;
  p.offline_cfg = fs::mpc::GmwConfig::for_circuit(t.circuit)
                      .with_plan(p.inline_cfg->plan)
                      .with_preproc(fs::mpc::preproc::PreprocMode::kOfflineIdeal, batch)
                      .build_shared();
  return p;
}

const char* to_string(GmwPath p) {
  switch (p) {
    case GmwPath::kInline: return "inline";
    case GmwPath::kOffline: return "offline_ideal";
    case GmwPath::kSliced: return "sliced";
  }
  return "?";
}

const std::vector<RequestClass>& request_classes() {
  static const std::vector<RequestClass> classes = {
      {"contract", "exp01_contract_fairness", "", "", false, false},
      {"zoo", "exp21_partial_1p", "", "", false, false},
      {"gmw", "exp12_composition", "", "", false, false},
      {"preproc_hit", "exp19_preproc_split", "offline_ideal", "", true, false},
      {"preproc_miss", "exp19_preproc_split", "offline_ideal", "", false, true},
      {"tcp", "exp01_contract_fairness", "", "tcp", false, false},
  };
  return classes;
}

std::string request_line(const RequestClass& c, std::uint64_t seed, const std::string& id) {
  std::string line = "{\"verb\":\"estimate\",\"scenario\":\"" + c.scenario +
                     "\",\"runs\":" + std::to_string(kRequestRuns) + ",\"threads\":1";
  if (!c.preproc.empty()) line += ",\"preproc\":\"" + c.preproc + "\"";
  if (!c.transport.empty()) line += ",\"transport\":\"" + c.transport + "\"";
  if (c.fixed_seed) line += ",\"seed\":" + std::to_string(kFixedRequestSeed);
  if (c.fresh_seed) line += ",\"seed\":" + std::to_string(seed);
  line += ",\"id\":\"" + id + "\"}";
  return line;
}

fs::bench::Args request_args(const RequestClass& c, std::uint64_t seed) {
  fs::bench::Args a;
  a.runs = kRequestRuns;
  a.runs_set = true;
  a.threads = 1;
  a.quiet = true;
  if (!c.preproc.empty()) a.preproc = *fs::mpc::preproc::parse_preproc_mode(c.preproc);
  if (!c.transport.empty()) a.transport = *fs::sim::parse_transport_kind(c.transport);
  if (c.fixed_seed) a.seed = kFixedRequestSeed;
  if (c.fresh_seed) a.seed = seed;
  return a;
}

}  // namespace perfbench
