// Shared declarations of the fairsfe benchmark driver.
//
// The driver links the fairsfe library and calls only its public entry
// points (service::run_scenario, rpd::estimate_utility, rpd::execute,
// mpc::preproc::generate_batch, the crypto primitives); fairbenchd is driven
// as a separate process over its NDJSON socket. Every layer is timed from
// outside, at the calls into it (trace.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One emitted metric: value plus unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports: the correctness tally plus its metrics.
struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Informational detail printed on its own line before the result
  /// (per-scenario times, ladder rows); never part of the metric set.
  std::string detail_json;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void tally(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void merge(const Result& o);
};

/// Where the benchmark keeps its build, sockets and scratch files, relative
/// to the checkout root it runs from.
inline constexpr const char* kWorkDir = ".bench_build";

/// Command line of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string daemon_path;     ///< fairbenchd binary
  std::string fairbench_path;  ///< fairbench binary (paper_suite set-up)
};

// ------------------------------------------------------------ statistics

double median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 100].
double percentile(std::vector<double> v, double q);

// --------------------------------------------------------------- helpers

/// CPU seconds a process has used so far, all its threads together; pid 0 =
/// this process, otherwise a live process. Throws if the clock cannot be
/// read.
/// The end-to-end times are CPU times: on a VM with paravirtual steal-time
/// accounting the kernel leaves out the time the host ran other guests,
/// which a wall clock on a shared host counts (README.md).
double cpu_seconds(int pid = 0);
/// Peak resident set (VmHWM) of a process in MiB; pid 0 = this process.
double peak_rss_mb(int pid = 0);
/// Resets this process's VmHWM to its current resident set, so that the
/// next peak_rss_mb() reads the peak of what ran in between.
void reset_peak_rss();
/// Hex SHA-256 of a string.
std::string sha256_hex(const std::string& s);
/// A report JSON with whitespace outside strings removed and every timing
/// field ("wall_seconds", "runs_per_sec", "seconds") and the thread count
/// zeroed, so that the same estimate always has the same digest.
std::string canonical_report(const std::string& json);
/// sha256_hex(canonical_report(json)).
std::string report_digest(const std::string& json);
std::string json_escape(const std::string& s);
/// Hardware threads available to this process.
std::size_t hardware_threads();
/// The CPUs the calling thread may run on.
std::vector<int> allowed_cpus();
/// Runs `fn` on the calling thread pinned to the k-th CPU (modulo their
/// number) of allowed_cpus(), then restores the thread's affinity.
void run_on_cpu(std::size_t k, const std::function<void()>& fn);
/// Runs a program with stdout/stderr discarded and waits for it; returns
/// its exit code (-1 if it could not be started or was killed). `cpu_s`, if
/// given, receives the CPU seconds (user + system) the program used.
int run_process(const std::vector<std::string>& argv, double* cpu_s = nullptr);

// ------------------------------------------------------------- workloads

Result run_paper_suite(const Options& opt);
Result run_gmw_circuits(const Options& opt);
Result run_daemon_mix(const Options& opt);

/// The traced run shared by every workload: replays the workload's own
/// estimates with layer proxies (trace.cpp) and adds the layer probes
/// (probes.cpp, service.cpp).
Result run_traced(const Options& opt);

/// Layer probes of the traced run (probes.cpp, service.cpp).
Result run_crypto_probe();
Result run_mpc_probe(const Options& opt);
/// fairbenchd under closed-loop passes and a short open-loop ladder of
/// `ladder_seconds`, against the same requests served in-process.
Result run_service_probe(const Options& opt, double ladder_seconds);

/// Prints the pin tables (scenario digests, GMW estimates, daemon classes)
/// as the C++ initializers of pins.cpp.
void print_pins(std::FILE* out);

}  // namespace perfbench
