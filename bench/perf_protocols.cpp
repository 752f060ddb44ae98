// perf_protocols — the two GMW speedup claims that no scenario can pin,
// because a scenario's report is compared byte for byte and a throughput
// ratio differs from run to run:
//
//   * the online phase (DESIGN.md §10), spending one pre-dealt ideal-dealer
//     batch, runs gmw_max_4party_8bit at >= 3x the inline OT-hybrid rate;
//   * the bit-sliced engine (DESIGN.md §11), 64 runs per machine word, runs
//     gmw_millionaires_16 at >= 10x the scalar rate.
//
//   build/bench/perf_protocols
//
// Both rates are single-threaded estimator throughput (honest runs through
// rpd::estimate_utility), so the ratio is the one an experiment sees. Each
// claim prints one PASS/DEVIATION line; the exit status is 1 when either
// deviates, 2 on any argument. Wall-clock ratios depend on the host, so
// scripts/ci.sh runs this non-gating. Bit-identity of the three paths is
// pinned by the tests and by exp19/exp20; per-layer cost is perfbench's job
// (perfbench/README.md).
#include <cstdio>
#include <memory>
#include <utility>

#include "circuit/builder.h"
#include "experiments/report.h"
#include "experiments/setups.h"
#include "mpc/gmw.h"
#include "mpc/preproc/provider.h"

namespace fairsfe {
namespace {

using Config = std::shared_ptr<const mpc::GmwConfig>;

constexpr std::size_t kOnlineRuns = 2000;
constexpr std::size_t kSlicedRuns = 8192;

// Honest-run estimator throughput of one GMW configuration.
double runs_per_sec(Config cfg, std::size_t runs, std::size_t lanes) {
  const experiments::GmwHonestPair pair = experiments::gmw_honest_pair(std::move(cfg));
  rpd::EstimatorOptions opts;
  opts.runs = runs;
  opts.seed = 42;
  opts.lanes = lanes;
  return rpd::estimate_utility({pair.factory, pair.sliced, pair.parties},
                               rpd::VectorModel(rpd::payoff::standard()), opts)
      .runs_per_sec();
}

// The same circuit with every run's triples pre-dealt by the ideal dealer.
Config online_config(const Config& inline_cfg, std::size_t runs) {
  mpc::preproc::PreprocRequest req;
  req.parties = inline_cfg->circuit.num_parties();
  req.triples = runs * inline_cfg->triples_per_run();
  Rng dealer_rng(1);
  auto batch = mpc::preproc::generate_batch(mpc::preproc::PreprocMode::kOfflineIdeal, req,
                                            dealer_rng);
  return mpc::GmwConfig::for_circuit(inline_cfg->circuit)
      .with_plan(inline_cfg->plan)
      .with_preproc(mpc::preproc::PreprocMode::kOfflineIdeal, std::move(batch))
      .build_shared();
}

void check_ratio(bench::Reporter& rep, const char* what, double fast, double slow,
                 double at_least) {
  const double ratio = slow > 0 ? fast / slow : 0.0;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s >= %.0fx (%.0f vs %.0f runs/s, measured %.2fx)", what,
                at_least, fast, slow, ratio);
  rep.check(ratio >= at_least, buf);
}

}  // namespace
}  // namespace fairsfe

int main(int argc, char** argv) {
  using namespace fairsfe;
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s   (takes no arguments)\n", argv[0]);
    return 2;
  }
  bench::Reporter rep(bench::Args{}, 0);
  rep.title("perf_protocols: GMW online-phase and bit-sliced speedups",
            "single-threaded honest-run estimator throughput, same seed per pair");

  const Config max4 = std::make_shared<const mpc::GmwConfig>(
      mpc::GmwConfig::public_output(circuit::make_max_circuit(4, 8)));
  const double inline_rate = runs_per_sec(max4, kOnlineRuns, 1);
  const double online_rate = runs_per_sec(online_config(max4, kOnlineRuns), kOnlineRuns, 1);
  check_ratio(rep, "gmw_max_4party_8bit online phase vs inline", online_rate, inline_rate,
              3.0);

  const Config mill = std::make_shared<const mpc::GmwConfig>(
      mpc::GmwConfig::public_output(circuit::make_millionaires_circuit(16)));
  const double scalar_rate = runs_per_sec(mill, kSlicedRuns, 1);
  const double sliced_rate = runs_per_sec(mill, kSlicedRuns, 64);
  check_ratio(rep, "gmw_millionaires_16 sliced vs scalar", sliced_rate, scalar_rate, 10.0);

  rep.finish();
  return rep.deviations() == 0 ? 0 : 1;
}
