// fairbenchd driven as a separate process over its NDJSON unix socket.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "net/socket.h"

namespace perfbench {

/// One response event, as far as the benchmark reads it.
struct Event {
  std::string kind;  ///< "result", "error", "scenarios", "status", ...
  std::string id;
  int deviations = -1;
  long active = -1;        ///< status events
  std::string report;      ///< result events: the report object, raw
  Clock::time_point at;    ///< when the reader thread saw the line
};

/// A client connection with its own reader thread. Requests may be
/// pipelined; on_event runs on the reader thread for every non-progress
/// event.
class Connection {
 public:
  Connection(const std::string& socket_path, std::function<void(Event&&)> on_event);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void send(const std::string& line);
  /// Closes the write side and joins the reader.
  void close();

 private:
  void read_loop();
  fairsfe::net::Stream stream_;
  std::function<void(Event&&)> on_event_;
  std::mutex write_mu_;  ///< guards writes to stream_
  std::atomic<bool> stop_{false};
  std::thread reader_;
};

/// A spawned fairbenchd.
class Daemon {
 public:
  /// Spawns `binary --unix <socket> --workers <workers> --quiet` with stdout
  /// and stderr discarded, and waits until it answers `list`.
  Daemon(const std::string& binary, const std::string& socket_path, int workers);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// CPU seconds the daemon had used when its `list` answer arrived.
  [[nodiscard]] double ready_cpu_s() const { return ready_cpu_s_; }
  /// CPU seconds the daemon has used so far, all threads together.
  [[nodiscard]] double cpu_s() const;
  [[nodiscard]] const std::string& socket_path() const { return socket_; }
  /// Pins every thread of the daemon to the k-th CPU (modulo their number)
  /// of allowed_cpus(); with k < 0 they may use all of those CPUs again.
  void pin(long k) const;
  /// VmHWM of the daemon process in MiB.
  [[nodiscard]] double peak_rss_mb() const;
  /// Sends `shutdown` and waits for the process; SIGKILL after a timeout.
  /// Returns true on a clean exit 0.
  bool stop();

 private:
  std::string socket_;
  int pid_ = -1;
  double ready_cpu_s_ = 0.0;
};

/// One request at a time on one connection, for closed-loop measurements.
class SyncClient {
 public:
  explicit SyncClient(const std::string& socket_path);
  /// Sends `line` and waits for the result or error event carrying `id`
  /// (kind "timeout" after 60 s); `latency_ms` is measured from the write.
  Event call(const std::string& line, const std::string& id, double* latency_ms);

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Event> inbox_;
  std::unique_ptr<Connection> conn_;
};

}  // namespace perfbench
