// The scenario registry is the experiment layer's source of truth: these
// tests pin down (a) the registered table itself (22 unique ids, canonical
// attack families, smoke tags), (b) the --filter matching semantics the
// fairbench driver exposes, (c) that every registered scenario estimates
// through the rpd::ScenarioSpec overloads without error and bit-identically
// across thread counts, (d) that the Reporter's JSON rows conform to the
// schema documented in experiments/report.h, and (e) that --quiet silences
// every scenario body (fairbenchd workers share one stdout).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "experiments/registry.h"
#include "experiments/report.h"
#include "service/runner.h"

namespace fairsfe::experiments {
namespace {

rpd::EstimatorOptions smoke_opts(const ScenarioSpec& spec, std::size_t threads) {
  rpd::EstimatorOptions o = spec.default_options();
  o.runs = 8;
  o.threads = threads;
  return o;
}

TEST(Registry, TwentyTwoScenariosWithUniqueIds) {
  const auto specs = Registry::instance().all();
  ASSERT_EQ(specs.size(), 22u);
  std::set<std::string> ids;
  for (const auto* s : specs) ids.insert(s->id);
  EXPECT_EQ(ids.size(), specs.size()) << "duplicate scenario id registered";
  // One registration per experiment chapter: exp01..exp22 each appear once.
  for (int n = 1; n <= 22; ++n) {
    char prefix[8];
    std::snprintf(prefix, sizeof(prefix), "exp%02d_", n);
    int hits = 0;
    for (const auto& id : ids) {
      if (id.rfind(prefix, 0) == 0) ++hits;
    }
    EXPECT_EQ(hits, 1) << "expected exactly one scenario with prefix " << prefix;
  }
}

TEST(Registry, EveryScenarioIsWellFormed) {
  for (const auto* s : Registry::instance().all()) {
    EXPECT_FALSE(s->title.empty()) << s->id;
    EXPECT_FALSE(s->claim.empty()) << s->id;
    EXPECT_FALSE(s->attacks.empty()) << s->id;
    EXPECT_TRUE(static_cast<bool>(s->run)) << s->id;
    EXPECT_GT(s->default_runs, 0u) << s->id;
    for (const auto& a : s->attacks) {
      EXPECT_FALSE(a.name.empty()) << s->id;
      EXPECT_TRUE(static_cast<bool>(a.factory)) << s->id;
    }
  }
}

TEST(Registry, AllIsSortedById) {
  const auto specs = Registry::instance().all();
  for (std::size_t i = 1; i < specs.size(); ++i) {
    EXPECT_LT(specs[i - 1]->id, specs[i]->id);
  }
}

TEST(Registry, GlobMatchSemantics) {
  EXPECT_TRUE(Registry::glob_match("exp05_nparty_bounds", "exp05_nparty_bounds"));
  EXPECT_FALSE(Registry::glob_match("exp05_nparty_bounds", "exp05_nparty"));
  EXPECT_TRUE(Registry::glob_match("exp0?_*", "exp05_nparty_bounds"));
  EXPECT_FALSE(Registry::glob_match("exp0?_*", "exp15_gamma_sensitivity"));
  EXPECT_TRUE(Registry::glob_match("*bounds", "exp05_nparty_bounds"));
  EXPECT_TRUE(Registry::glob_match("*", ""));
  EXPECT_FALSE(Registry::glob_match("?", ""));
  // Star backtracking: the first '*' must be able to re-expand past an
  // early partial match of the trailing literal.
  EXPECT_TRUE(Registry::glob_match("*ab", "aab"));
  EXPECT_TRUE(Registry::glob_match("a*b*c", "a_b_b_c"));
  EXPECT_FALSE(Registry::glob_match("a*b*c", "a_c_b"));
}

TEST(Registry, MatchFiltersByIdGlobSubstringAndTag) {
  Registry& reg = Registry::instance();
  // Empty filter selects the full table.
  EXPECT_EQ(reg.match("").size(), reg.all().size());
  // Exact id.
  const auto exact = reg.match("exp18_fault_tolerance");
  ASSERT_EQ(exact.size(), 1u);
  EXPECT_EQ(exact[0]->id, "exp18_fault_tolerance");
  // Id glob.
  const auto tens = reg.match("exp1?_*");
  EXPECT_EQ(tens.size(), 10u);  // exp10..exp19
  // Bare substring of the id.
  const auto sub = reg.match("fault");
  ASSERT_FALSE(sub.empty());
  bool saw_exp18 = false;
  for (const auto* s : sub) saw_exp18 |= (s->id == "exp18_fault_tolerance");
  EXPECT_TRUE(saw_exp18);
  // Tag: the CI sweep runs --filter smoke, so the tag must select scenarios.
  const auto smoke = reg.match("smoke");
  EXPECT_FALSE(smoke.empty());
  for (const auto* s : smoke) EXPECT_TRUE(s->has_tag("smoke")) << s->id;
  // Nonsense matches nothing.
  EXPECT_TRUE(reg.match("no_such_scenario_xyz").empty());
}

TEST(Registry, EveryScenarioEstimatesWithoutError) {
  // 8 runs through the canonical attack of each registered scenario: the
  // declarative table must be runnable end-to-end, not just printable.
  for (const auto* s : Registry::instance().all()) {
    const auto est = rpd::estimate_utility(*s, smoke_opts(*s, 1));
    EXPECT_EQ(est.runs, 8u) << s->id;
    EXPECT_TRUE(std::isfinite(est.utility)) << s->id;
    EXPECT_TRUE(std::isfinite(est.std_error)) << s->id;
    double freq_sum = 0.0;
    for (const double f : est.event_freq) freq_sum += f;
    EXPECT_NEAR(freq_sum, 1.0, 1e-9) << s->id;
  }
}

TEST(Registry, EstimatesAreBitIdenticalAcrossThreadCounts) {
  for (const auto* s : Registry::instance().all()) {
    const auto one = rpd::estimate_utility(*s, smoke_opts(*s, 1));
    const auto two = rpd::estimate_utility(*s, smoke_opts(*s, 2));
    EXPECT_EQ(one.utility, two.utility) << s->id;
    EXPECT_EQ(one.std_error, two.std_error) << s->id;
    EXPECT_EQ(one.event_freq, two.event_freq) << s->id;
    EXPECT_EQ(one.run_events, two.run_events) << s->id;
  }
}

TEST(Registry, DefaultOptionsCarryTheScenarioFaultPlan) {
  const ScenarioSpec* exp18 = Registry::instance().find("exp18_fault_tolerance");
  ASSERT_NE(exp18, nullptr);
  ASSERT_TRUE(exp18->fault.has_value());
  EXPECT_TRUE(exp18->default_options().fault.has_value());
  // Scenarios without a registered fault plan keep the estimator fault-free.
  const ScenarioSpec* exp01 = Registry::instance().find("exp01_contract_fairness");
  ASSERT_NE(exp01, nullptr);
  EXPECT_FALSE(exp01->default_options().fault.has_value());
}

TEST(Registry, Exp18BoundIsTheDropRateCurve) {
  // Satellite check: u(p) = (g10+g11)/2 + p (g00-g11)/2 lives in the spec's
  // bound callback, shared by the bench table and this test.
  const ScenarioSpec* s = Registry::instance().find("exp18_fault_tolerance");
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(static_cast<bool>(s->bound));
  const rpd::PayoffVector standard = rpd::PayoffVector::standard();
  EXPECT_DOUBLE_EQ(s->bound(standard, 0.0), standard.two_party_opt_bound());
  const rpd::PayoffVector spite{0.6, 0.0, 1.0, 0.5};
  for (const double p : {0.0, 0.1, 0.3}) {
    EXPECT_DOUBLE_EQ(s->bound(spite, p),
                     (spite.g10 + spite.g11) / 2.0 + p * (spite.g00 - spite.g11) / 2.0);
    EXPECT_DOUBLE_EQ(s->bound(standard, p),
                     standard.two_party_opt_bound() + p * (standard.g00 - standard.g11) / 2.0);
  }
  // Gamma+fair (g00 <= g11): drops never push past the reliable bound.
  EXPECT_LE(s->bound(standard, 0.3), standard.two_party_opt_bound());
  // Spiteful gamma: drops donate utility.
  EXPECT_GT(s->bound(spite, 0.3), spite.two_party_opt_bound());
}

// --- JSON schema ------------------------------------------------------------

bool balanced(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') --depth;
    if (depth < 0) return false;
  }
  return depth == 0 && !in_string;
}

TEST(Registry, ReporterJsonObjectMatchesTheDocumentedSchema) {
  // One 8-run row per scenario, rendered through the Reporter fairbench
  // uses; each object must carry every schema key from report.h and be
  // structurally balanced.
  for (const auto* s : Registry::instance().all()) {
    bench::Args args;
    args.runs = 8;
    args.runs_set = true;
    bench::Reporter rep(args, s->default_runs);
    rep.begin(*s);
    rep.gamma(s->gamma);
    const auto est = rpd::estimate_utility(*s, smoke_opts(*s, 1));
    rep.row(s->attacks.front().name, est, "schema probe");
    rep.check(true, "schema probe");
    const std::string json = rep.json_object();
    EXPECT_TRUE(balanced(json)) << s->id << ": " << json;
    for (const char* key :
         {"\"experiment\":", "\"claim\":", "\"gamma\":", "\"runs_per_point\":",
          "\"threads\":", "\"rows\":", "\"name\":", "\"utility\":",
          "\"std_error\":", "\"margin\":", "\"event_freq\":", "\"runs\":",
          "\"wall_seconds\":", "\"runs_per_sec\":", "\"paper\":", "\"checks\":",
          "\"ok\":", "\"what\":", "\"deviations\":"}) {
      EXPECT_NE(json.find(key), std::string::npos) << s->id << " missing " << key;
    }
    // The experiment field carries the spec title (what the old binaries
    // recorded), so committed reports such as BENCH_fault.json keep matching.
    EXPECT_EQ(json.find("\"experiment\": \"" + s->title.substr(0, 10)), 4u)
        << s->id << ": experiment field must carry the scenario title";
  }
}

TEST(Registry, QuietScenariosPrintNothing) {
  // Scenario bodies print their free text through Reporter::note, so a
  // quiet run of every registered scenario leaves stdout empty.
  bench::Args args;
  args.quiet = true;
  args.runs = 16;
  args.runs_set = true;
  for (const auto* s : Registry::instance().all()) {
    testing::internal::CaptureStdout();
    (void)service::run_scenario(*s, args);
    std::fflush(stdout);
    EXPECT_EQ(testing::internal::GetCapturedStdout(), "") << s->id;
  }
}

}  // namespace
}  // namespace fairsfe::experiments
