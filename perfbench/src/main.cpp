// perfbench: the fairsfe benchmark driver.
//
//   perfbench --workload <paper_suite|gmw_circuits|daemon_mix> --seed N
//             --seconds S --trace <0|1> --daemon <fairbenchd>
//             --fairbench <fairbench> [--source-id ID]
//   perfbench --print-pins
//
// Prints an env line, a detail line and, last, the result object
// {"correct", "attempted", "failed", "metrics"}. perfbench/run.py builds the
// binaries and passes the paths; see perfbench/README.md for the metrics.
#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

std::string cpu_field(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? "" : line.substr(colon + 2);
    }
  }
  return "";
}

std::string env_json(const std::string& source_id) {
  const std::string flags = " " + cpu_field("flags") + " ";
  return "{\"env\":{\"cpu_model\":\"" + json_escape(cpu_field("model name")) +
         "\",\"nproc\":" + std::to_string(hardware_threads()) +
         ",\"compiler\":\"" + json_escape(std::string("gcc ") + __VERSION__) +
         "\",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\",\"sha_ni\":" +
         (flags.find(" sha_ni ") != std::string::npos ? "true" : "false") +
         ",\"source\":\"" + json_escape(source_id) + "\"}}";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <paper_suite|gmw_circuits|daemon_mix> "
               "--seed N --seconds S --trace <0|1> --daemon PATH --fairbench PATH "
               "[--source-id ID]\n"
               "       perfbench --print-pins\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string source_id = "unknown";
  bool pins = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has = i + 1 < argc;
    if (a == "--print-pins") {
      pins = true;
    } else if (a == "--workload" && has) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has) {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (a == "--daemon" && has) {
      opt.daemon_path = argv[++i];
    } else if (a == "--fairbench" && has) {
      opt.fairbench_path = argv[++i];
    } else if (a == "--source-id" && has) {
      source_id = argv[++i];
    } else {
      return usage();
    }
  }
  using RunFn = Result (*)(const Options&);
  RunFn run = nullptr;
  if (opt.workload == "paper_suite") run = run_paper_suite;
  if (opt.workload == "gmw_circuits") run = run_gmw_circuits;
  if (opt.workload == "daemon_mix") run = run_daemon_mix;
  if (!pins && (run == nullptr || opt.daemon_path.empty() || opt.fairbench_path.empty())) {
    return usage();
  }

  // Scenario bodies print their tables to stdout; keep the real stdout for
  // the result lines only.
  std::fflush(stdout);
  const int out_fd = dup(1);
  const int devnull = open("/dev/null", O_WRONLY);
  dup2(devnull, 1);
  close(devnull);
  std::FILE* out = fdopen(out_fd, "w");

  try {
    if (pins) {
      print_pins(out);
      std::fclose(out);
      return 0;
    }
    const Result res = opt.trace ? run_traced(opt) : run(opt);
    std::fprintf(out, "%s\n", env_json(source_id).c_str());
    if (!res.detail_json.empty()) std::fprintf(out, "{\"detail\":%s}\n", res.detail_json.c_str());
    std::string metrics;
    for (const auto& [name, m] : res.metrics) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", m.value);
      metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + name + "\": {\"value\": " +
                 buf + ", \"unit\": \"" + m.unit + "\"}";
    }
    std::fprintf(out,
                 "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
                 res.failed == 0 ? "true" : "false", res.attempted, res.failed,
                 metrics.c_str());
    std::fclose(out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
