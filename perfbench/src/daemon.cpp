#include "daemon.h"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <system_error>

extern char** environ;

namespace perfbench {
namespace {

std::string field_after(const std::string& line, const std::string& key) {
  const std::size_t p = line.find(key);
  if (p == std::string::npos) return "";
  const std::size_t b = p + key.size();
  const std::size_t e = line.find('"', b);
  return e == std::string::npos ? "" : line.substr(b, e - b);
}

long number_after(const std::string& line, const std::string& key) {
  const std::size_t p = line.find(key);
  if (p == std::string::npos) return -1;
  return std::strtol(line.c_str() + p + key.size(), nullptr, 10);
}

// fairbenchd's event lines have a fixed shape (src/service/daemon.h); the
// report object of a result event is always the last member.
Event parse_event(const std::string& line) {
  Event ev;
  ev.at = Clock::now();
  ev.kind = field_after(line, "\"event\":\"");
  ev.id = field_after(line, "\"id\":\"");
  if (ev.kind == "result") {
    ev.deviations = static_cast<int>(number_after(line, "\"deviations\":"));
    const std::string key = ",\"report\":";
    const std::size_t p = line.find(key);
    if (p != std::string::npos && line.size() >= p + key.size() + 1) {
      ev.report = line.substr(p + key.size(), line.size() - (p + key.size()) - 1);
    }
  } else if (ev.kind == "status") {
    ev.active = number_after(line, "\"active\":");
  }
  return ev;
}

bool read_line(fairsfe::net::Stream& s, std::string& buf, std::string& line,
               Clock::time_point deadline) {
  while (true) {
    const std::size_t nl = buf.find('\n');
    if (nl != std::string::npos) {
      line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      return true;
    }
    if (Clock::now() > deadline) return false;
    if (!s.readable_for(std::chrono::milliseconds(50))) continue;
    std::uint8_t tmp[4096];
    const std::size_t got = s.read_some(std::span<std::uint8_t>(tmp, sizeof(tmp)));
    if (got == 0) return false;
    buf.append(reinterpret_cast<const char*>(tmp), got);
  }
}

void write_line(fairsfe::net::Stream& s, const std::string& line) {
  const std::string framed = line + "\n";
  s.write_all(fairsfe::ByteView(reinterpret_cast<const std::uint8_t*>(framed.data()),
                                framed.size()));
}

}  // namespace

// ------------------------------------------------------------ Connection

Connection::Connection(const std::string& socket_path, std::function<void(Event&&)> on_event)
    : stream_(fairsfe::net::unix_connect(socket_path)), on_event_(std::move(on_event)) {
  reader_ = std::thread([this] { read_loop(); });
}

Connection::~Connection() { close(); }

void Connection::send(const std::string& line) {
  std::lock_guard<std::mutex> lock(write_mu_);
  write_line(stream_, line);
}

void Connection::close() {
  if (!reader_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    try {
      stream_.shutdown_write();
    } catch (const std::exception&) {
    }
  }
  // The daemon answers every pending request before it closes its side; a
  // reader that sees no EOF within the grace period is stopped.
  const auto grace = Clock::now() + std::chrono::seconds(60);
  while (!stop_.load() && Clock::now() < grace) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop_.store(true);
  reader_.join();
}

void Connection::read_loop() {
  std::string buf;
  std::string line;
  // A read error or a throwing callback ends the connection; requests left
  // unanswered then count as failed.
  try {
    while (!stop_.load()) {
      if (!stream_.readable_for(std::chrono::milliseconds(20))) continue;
      std::uint8_t tmp[65536];
      const std::size_t got = stream_.read_some(std::span<std::uint8_t>(tmp, sizeof(tmp)));
      if (got == 0) break;
      buf.append(reinterpret_cast<const char*>(tmp), got);
      std::size_t nl;
      while ((nl = buf.find('\n')) != std::string::npos) {
        line.assign(buf, 0, nl);
        buf.erase(0, nl + 1);
        Event ev = parse_event(line);
        if (ev.kind != "progress") on_event_(std::move(ev));
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: connection closed: %s\n", e.what());
  }
  stop_.store(true);
}

// ---------------------------------------------------------------- Daemon

Daemon::Daemon(const std::string& binary, const std::string& socket_path, int workers)
    : socket_(socket_path) {
  const auto t0 = Clock::now();
  const std::string workers_s = std::to_string(workers);
  const char* argv[] = {binary.c_str(), "--unix", socket_path.c_str(), "--workers",
                        workers_s.c_str(), "--quiet", nullptr};
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&fa, 2, "/dev/null", O_WRONLY, 0);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, binary.c_str(), &fa, nullptr,
                             const_cast<char* const*>(argv), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) throw std::runtime_error("cannot spawn " + binary);
  pid_ = pid;

  const auto deadline = t0 + std::chrono::seconds(60);
  fairsfe::net::Stream s;
  while (true) {
    try {
      s = fairsfe::net::unix_connect(socket_path);
      break;
    } catch (const std::exception&) {
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("fairbenchd exited during start-up");
      }
      if (Clock::now() > deadline) {
        stop();
        throw std::runtime_error("fairbenchd did not open its socket");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }
  write_line(s, "{\"verb\":\"list\"}");
  std::string buf;
  std::string line;
  if (!read_line(s, buf, line, deadline) ||
      line.find("\"event\":\"scenarios\"") == std::string::npos) {
    stop();
    throw std::runtime_error("fairbenchd did not answer list");
  }
  ready_cpu_s_ = cpu_s();
}

Daemon::~Daemon() { stop(); }

double Daemon::cpu_s() const {
  if (pid_ <= 0) throw std::runtime_error("fairbenchd is not running");
  return cpu_seconds(pid_);
}

void Daemon::pin(long k) const {
  const std::vector<int> cpus = allowed_cpus();
  if (pid_ <= 0 || cpus.empty()) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (k < 0) {
    for (int c : cpus) CPU_SET(c, &mask);
  } else {
    CPU_SET(cpus[static_cast<std::size_t>(k) % cpus.size()], &mask);
  }
  // A thread that exits meanwhile is skipped (ESRCH); new threads inherit
  // the mask of the thread that starts them.
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/" + std::to_string(pid_) + "/task", ec)) {
    sched_setaffinity(std::stoi(task.path().filename().string()), sizeof(mask), &mask);
  }
}

double Daemon::peak_rss_mb() const { return pid_ > 0 ? perfbench::peak_rss_mb(pid_) : 0.0; }

bool Daemon::stop() {
  if (pid_ <= 0) return true;
  try {
    fairsfe::net::Stream s = fairsfe::net::unix_connect(socket_);
    write_line(s, "{\"verb\":\"shutdown\"}");
  } catch (const std::exception&) {
    kill(pid_, SIGTERM);
  }
  int status = 0;
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (waitpid(pid_, &status, WNOHANG) == 0) {
    if (Clock::now() > deadline) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      pid_ = -1;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// ------------------------------------------------------------ SyncClient

SyncClient::SyncClient(const std::string& socket_path) {
  conn_ = std::make_unique<Connection>(socket_path, [this](Event&& ev) {
    std::lock_guard<std::mutex> lock(mu_);
    inbox_.push_back(std::move(ev));
    cv_.notify_all();
  });
}

Event SyncClient::call(const std::string& line, const std::string& id, double* latency_ms) {
  const auto t0 = Clock::now();
  conn_->send(line);
  std::unique_lock<std::mutex> lock(mu_);
  const auto mine = [&] {
    return std::find_if(inbox_.begin(), inbox_.end(), [&](const Event& e) { return e.id == id; });
  };
  Event ev;
  if (cv_.wait_for(lock, std::chrono::seconds(60), [&] { return mine() != inbox_.end(); })) {
    const auto it = mine();
    ev = std::move(*it);
    inbox_.erase(it);
  } else {
    ev.kind = "timeout";
    ev.at = Clock::now();
  }
  if (latency_ms) *latency_ms = std::chrono::duration<double, std::milli>(ev.at - t0).count();
  return ev;
}

}  // namespace perfbench
