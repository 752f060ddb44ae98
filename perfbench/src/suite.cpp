// paper_suite: the 22-scenario reproduction, as `fairbench --threads N`
// runs it, one service::run_scenario call per scenario.
#include <malloc.h>

#include <algorithm>
#include <map>

#include "bench.h"
#include "crypto/rng.h"
#include "pins.h"
#include "service/runner.h"
#include "workloads.h"

namespace perfbench {
namespace fs = fairsfe;

Result run_paper_suite(const Options& opt) {
  Result r;
  // Set-up: the CPU time of a fresh fairbench process up to its scenario
  // table (process start, static initialisation, registry population); 20
  // spawns before the passes and 20 after each.
  std::vector<double> setups;
  const auto spawn = [&] {
    for (int k = 0; k < 20; ++k) {
      double cpu_s = 0.0;
      const int rc = run_process({opt.fairbench_path, "--list"}, &cpu_s);
      setups.push_back(cpu_s);
      r.tally(rc == 0);
    }
  };
  spawn();

  const auto specs = fs::experiments::Registry::instance().all();
  const std::size_t threads = hardware_threads();
  fs::Rng order_rng(opt.seed);
  std::size_t passes = 0;
  std::map<std::string, std::vector<double>> per_scenario;  // CPU seconds
  std::map<std::string, std::vector<double>> per_scenario_wall;
  std::map<std::string, std::vector<double>> per_scenario_rss_mb;
  const auto start = Clock::now();
  do {
    // The seed fixes the scenario order of every pass; results do not
    // depend on it.
    auto order = specs;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[order_rng.below(i)]);
    }
    for (const fs::experiments::ScenarioSpec* spec : order) {
      const auto t0 = Clock::now();
      malloc_trim(0);
      reset_peak_rss();
      const double c0 = cpu_seconds();
      const fs::service::ScenarioRunResult res =
          fs::service::run_scenario(*spec, suite_args(*spec, threads));
      per_scenario[spec->id].push_back(cpu_seconds() - c0);
      per_scenario_wall[spec->id].push_back(seconds_since(t0));
      per_scenario_rss_mb[spec->id].push_back(peak_rss_mb());
      r.tally(res.deviations == 0 && report_digest(res.json) == scenario_pin(spec->id));
    }
    ++passes;
    spawn();
  } while (seconds_since(start) < opt.seconds);

  // A scenario's cost is its median CPU time over the passes (all estimator
  // threads together); the pass cost is the sum of those medians.
  std::vector<double> scenario_ms;
  for (const auto& [id, v] : per_scenario) scenario_ms.push_back(median(v) * 1e3);
  double work_ms = 0.0;
  for (double ms : scenario_ms) work_ms += ms;
  r.set("cpu_s", work_ms / 1e3, "s");
  r.set("cpu_p50_ms", median(scenario_ms), "ms");
  r.set("cpu_p90_ms", percentile(scenario_ms, 90), "ms");
  // The peak is the largest scenario's, each scenario's peak being its
  // median over the passes.
  double rss_mb = 0.0;
  for (const auto& [id, v] : per_scenario_rss_mb) rss_mb = std::max(rss_mb, median(v));
  r.set("peak_rss_mb", rss_mb, "MB");
  r.set("setup_s", median(setups), "s");

  // Wall times too: what a user waits for, on this host at this moment.
  const auto table = [](const std::map<std::string, std::vector<double>>& m) {
    std::string out;
    for (const auto& [id, v] : m) {
      out += (out.empty() ? "\"" : ",\"") + id + "\":" + std::to_string(median(v));
    }
    return "{" + out + "}";
  };
  double wall_s = 0.0;
  for (const auto& [id, v] : per_scenario_wall) wall_s += median(v);
  r.detail_json = "{\"passes\":" + std::to_string(passes) +
                  ",\"suite_wall_s\":" + std::to_string(wall_s) +
                  ",\"scenario_s\":" + table(per_scenario_wall) +
                  ",\"scenario_cpu_s\":" + table(per_scenario) + "}";
  return r;
}

}  // namespace perfbench
