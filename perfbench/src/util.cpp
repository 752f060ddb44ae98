#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.h"
#include "crypto/sha256.h"

extern char** environ;

namespace perfbench {

void Result::merge(const Result& o) {
  attempted += o.attempted;
  failed += o.failed;
  for (const auto& [k, m] : o.metrics) metrics[k] = m;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double cpu_seconds(int pid) {
  clockid_t clk = CLOCK_PROCESS_CPUTIME_ID;
  timespec ts{};
  if ((pid != 0 && clock_getcpuclockid(pid, &clk) != 0) || clock_gettime(clk, &ts) != 0) {
    throw std::runtime_error("cannot read the CPU clock of process " + std::to_string(pid));
  }
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::string sha256_hex(const std::string& s) {
  const fairsfe::Bytes d = fairsfe::sha256(fairsfe::ByteView(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  static const char* hex = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : d) {
    out += hex[b >> 4];
    out += hex[b & 15];
  }
  return out;
}

std::string canonical_report(const std::string& json) {
  // Timing fields, plus the thread count (estimates are thread-invariant,
  // so a pin must not depend on the host's core count).
  static const std::string kTiming[] = {"\"wall_seconds\":", "\"runs_per_sec\":",
                                        "\"seconds\":", "\"threads\":"};
  std::string compact;
  compact.reserve(json.size());
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      compact += c;
      if (c == '\\' && i + 1 < json.size()) {
        compact += json[++i];
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
      compact += c;
    } else if (c != ' ' && c != '\n' && c != '\t' && c != '\r') {
      compact += c;
    }
  }
  std::string out;
  out.reserve(compact.size());
  for (std::size_t i = 0; i < compact.size();) {
    bool replaced = false;
    for (const std::string& key : kTiming) {
      if (compact.compare(i, key.size(), key) == 0) {
        out += key;
        out += '0';
        i += key.size();
        while (i < compact.size() && compact[i] != ',' && compact[i] != '}') ++i;
        replaced = true;
        break;
      }
    }
    if (!replaced) out += compact[i++];
  }
  return out;
}

std::string report_digest(const std::string& json) {
  return sha256_hex(canonical_report(json));
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::size_t hardware_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (pthread_getaffinity_np(pthread_self(), sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

void run_on_cpu(std::size_t k, const std::function<void()>& fn) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  const std::vector<int> cpus = allowed_cpus();
  if (cpus.empty() || pthread_getaffinity_np(pthread_self(), sizeof(saved), &saved) != 0) {
    fn();
    return;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[k % cpus.size()], &one);
  pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
  fn();
  pthread_setaffinity_np(pthread_self(), sizeof(saved), &saved);
}

int run_process(const std::vector<std::string>& argv, double* cpu_s) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&fa, 2, "/dev/null", O_WRONLY, 0);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, args[0], &fa, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) return -1;
  int status = 0;
  rusage ru{};
  if (wait4(pid, &status, 0, &ru) != pid) return -1;
  if (cpu_s) {
    *cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
             1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

}  // namespace perfbench
