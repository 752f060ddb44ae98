// gmw_circuits: rpd::estimate_utility on honest GMW targets through the
// three execution paths — inline OT (OtHub functionality), offline_ideal
// (one dealer batch per target, no functionality) and 64-lane sliced.
#include <map>

#include "bench.h"
#include "crypto/rng.h"
#include "experiments/setups.h"
#include "pins.h"
#include "workloads.h"

namespace perfbench {
namespace fs = fairsfe;

GmwJobResult run_gmw_job(const GmwTarget& t, const GmwPrepared& p, GmwPath path,
                         std::uint64_t seed, std::size_t threads) {
  fs::rpd::EstimatorOptions o;
  o.seed = seed;
  o.threads = threads;
  fs::rpd::EstimationTarget target;
  if (path == GmwPath::kOffline) {
    const auto pair = fs::experiments::gmw_honest_pair(p.offline_cfg);
    target.factory = pair.factory;
    o.runs = t.offline_runs;
    o.preproc = fs::mpc::preproc::PreprocMode::kOfflineIdeal;
  } else {
    const auto pair = fs::experiments::gmw_honest_pair(p.inline_cfg);
    target.factory = pair.factory;
    if (path == GmwPath::kSliced) {
      target.sliced = pair.sliced;
      target.sliced_parties = pair.parties;
      o.lanes = 64;
    }
    o.runs = path == GmwPath::kSliced ? t.sliced_runs : t.inline_runs;
  }
  const auto t0 = Clock::now();
  const double c0 = cpu_seconds();
  GmwJobResult res;
  res.est = fs::rpd::estimate_utility(target, fs::rpd::PayoffVector::standard(), o);
  res.wall_s = seconds_since(t0);
  res.cpu_s = cpu_seconds() - c0;
  const GmwPin pin = gmw_pin(t.name);
  res.pinned = res.est.valid_runs == o.runs && res.est.utility == pin.utility &&
               res.est.event_freq == pin.event_freq;
  return res;
}

Result run_gmw_circuits(const Options& opt) {
  Result r;
  const std::vector<GmwTarget> targets = gmw_targets();
  // Set-up: the CPU time of plan compilation plus the offline dealer batch,
  // per target; once before the passes and again after each, each time on
  // the next core in turn, so that the median is not one vCPU's speed.
  // Every pass runs on the latest batches.
  std::vector<double> setups;
  std::vector<GmwPrepared> prep;
  const auto prepare = [&] {
    run_on_cpu(setups.size(), [&] {
      const double c0 = cpu_seconds();
      prep.clear();
      for (const GmwTarget& t : targets) prep.push_back(prepare_gmw(t, opt.seed + setups.size()));
      setups.push_back(cpu_seconds() - c0);
    });
  };
  prepare();

  struct Job {
    std::size_t target;
    GmwPath path;
  };
  std::vector<Job> jobs;
  for (std::size_t t = 0; t < targets.size(); ++t) {
    for (GmwPath path : {GmwPath::kInline, GmwPath::kOffline, GmwPath::kSliced}) {
      jobs.push_back({t, path});
    }
  }
  // Every job runs on all cores: the host's vCPUs differ in speed from one
  // minute to the next, and a single-threaded job would time whichever one
  // it landed on. Estimates do not depend on the thread count.
  const std::size_t threads = hardware_threads();
  fs::Rng rng(opt.seed);
  std::vector<double> pass_s;
  std::vector<double> pass_rss_mb;
  std::vector<double> job_ms;
  std::map<std::string, std::pair<double, double>> path_runs_wall;
  std::map<std::string, std::vector<double>> kind_ms;  // wall
  const auto start = Clock::now();
  do {
    for (std::size_t i = jobs.size(); i > 1; --i) std::swap(jobs[i - 1], jobs[rng.below(i)]);
    // One estimator seed per target per pass: the three paths must agree
    // run for run on it.
    std::vector<std::uint64_t> seeds;
    for (std::size_t t = 0; t < targets.size(); ++t) seeds.push_back(rng.u64());
    std::vector<std::map<GmwPath, std::vector<fs::rpd::FairnessEvent>>> events(targets.size());
    double sum = 0.0;
    reset_peak_rss();
    for (const Job& j : jobs) {
      const GmwJobResult res =
          run_gmw_job(targets[j.target], prep[j.target], j.path, seeds[j.target], threads);
      sum += res.cpu_s;
      job_ms.push_back(res.cpu_s * 1e3);
      kind_ms[targets[j.target].name + "/" + to_string(j.path)].push_back(res.wall_s * 1e3);
      auto& acc = path_runs_wall[to_string(j.path)];
      acc.first += static_cast<double>(res.est.runs);
      acc.second += res.wall_s;
      r.tally(res.pinned);
      events[j.target][j.path] = res.est.run_events;
    }
    for (const auto& by_path : events) {
      const auto& base = by_path.at(GmwPath::kInline);
      for (const auto& [path, ev] : by_path) {
        if (path == GmwPath::kInline) continue;
        const std::size_t n = std::min(base.size(), ev.size());
        r.tally(std::equal(base.begin(), base.begin() + static_cast<long>(n), ev.begin()));
      }
    }
    pass_s.push_back(sum);
    pass_rss_mb.push_back(peak_rss_mb());
    prepare();
  } while (seconds_since(start) < opt.seconds);

  r.set("cpu_s", median(pass_s), "s");
  r.set("cpu_p50_ms", median(job_ms), "ms");
  r.set("cpu_p90_ms", percentile(job_ms, 90), "ms");
  // The peak of each pass, so that one pass whose threads happened to
  // spread their allocations over more malloc arenas does not set it.
  r.set("peak_rss_mb", median(pass_rss_mb), "MB");
  r.set("setup_s", median(setups), "s");

  std::string detail = "{\"passes\":" + std::to_string(pass_s.size());
  for (const auto& [path, rw] : path_runs_wall) {
    detail += ",\"" + path + "_runs_per_s\":" + std::to_string(rw.first / rw.second);
  }
  detail += ",\"job_wall_ms\":{";
  bool first = true;
  for (const auto& [kind, ms] : kind_ms) {
    detail += (first ? "\"" : ",\"") + kind + "\":" + std::to_string(median(ms));
    first = false;
  }
  r.detail_json = detail + "}}";
  return r;
}

}  // namespace perfbench
