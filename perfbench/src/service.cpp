// daemon_mix: fairbenchd under a seeded open-loop request mix, plus the
// service probe that the traced run of every workload reports.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <mutex>
#include <thread>

#include "bench.h"
#include "crypto/rng.h"
#include "daemon.h"
#include "pins.h"
#include "service/runner.h"
#include "workloads.h"

namespace perfbench {
namespace fs = fairsfe;

namespace {

/// fairbenchd worker threads; every request asks for threads: 1.
constexpr int kDaemonWorkers = 2;
/// Client connections the open-loop generator spreads requests over.
constexpr std::size_t kConnections = 4;
/// Offered rates of the open-loop ladder, requests per second. The mix's
/// nominal capacity is the two workers over the mean closed-loop latency of
/// the cycle's requests: about 31 ms on a 4-core 2020s x86 host, so about 60
/// requests per second, the top rate; the middle rate is a third of it and
/// the bottom rate half the middle one. The ladder's wall-clock latencies go
/// to the detail line and sustained_rps, not to the bounded metrics.
constexpr std::array<double, 3> kLadderRates = {10.0, 20.0, 60.0};
/// Length of each ladder step in the timed run, after the closed loop.
constexpr double kStepSeconds = 2.0;
/// p99 latency limit a ladder rate must meet to count as sustained.
constexpr double kLatencyLimitMs = 250.0;
/// Closed-loop cycles of the service probe (traced run).
constexpr int kProbeCycles = 25;

struct Sample {
  std::size_t cls = 0;
  std::uint64_t seed = 0;
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point done;
  bool answered = false;
  std::string kind;
  int deviations = -1;
  std::string report;

  [[nodiscard]] bool ok_shape() const { return answered && kind == "result"; }
  /// A failed request misses every latency limit. It reads as the largest
  /// double rather than infinity, so the result stays valid JSON.
  [[nodiscard]] double latency_ms() const {
    return ok_shape() ? std::chrono::duration<double, std::milli>(done - due).count()
                      : std::numeric_limits<double>::max();
  }
};

// The open-loop class cycle: every class once and `contract` twice, spread
// so heavy requests never bunch by chance. With six equal shares the
// median falls exactly between the third and fourth class, in the gap
// between their latencies, where it jumped by a third between runs on a
// shared host; the second exp01 slot (the request scripts/loadtest.py
// sends) moves it inside the gmw class. The seed picks where in the cycle
// the sequence starts. Queueing in the tail then comes from the daemon's
// service times, not from the luck of the draw.
constexpr std::array<std::size_t, 7> kCycle = {0, 1, 2, 0, 3, 4, 5};

std::vector<std::size_t> class_sequence(std::size_t n, fs::Rng& rng) {
  const std::size_t start = rng.below(kCycle.size());
  std::vector<std::size_t> seq;
  for (std::size_t k = 0; k < n; ++k) seq.push_back(kCycle[(start + k) % kCycle.size()]);
  return seq;
}

// Fresh seeds stay small and distinct from the fixed request seed.
std::uint64_t fresh_seed(fs::Rng& rng) { return 1000 + rng.below(1u << 30); }

struct ClosedLoop {
  std::vector<std::vector<double>> class_ms;      ///< wall latency per class
  std::vector<std::vector<double>> class_cpu_ms;  ///< daemon CPU time per class
  std::vector<double> cpu_ms;                     ///< daemon CPU time per request
  std::vector<Sample> samples;
};

// One request at a time on one connection, through the class cycle from a
// seeded start, until `min_cycles` cycles are done and `seconds` have
// passed. Each request is charged the daemon's CPU time from its send to
// its answer: nothing else runs in the daemon meanwhile. The daemon is
// pinned to the next core for each request: every request runs on one
// thread, and the host's vCPUs differ in speed from one minute to the next,
// so unpinned, a run would time whichever vCPU the worker stayed on.
ClosedLoop closed_loop(const Daemon& daemon, int min_cycles, double seconds, fs::Rng& rng) {
  const auto& classes = request_classes();
  ClosedLoop out;
  out.class_ms.resize(classes.size());
  out.class_cpu_ms.resize(classes.size());
  SyncClient client(daemon.socket_path());
  const std::size_t first = rng.below(kCycle.size());
  const std::size_t min_requests = static_cast<std::size_t>(min_cycles) * kCycle.size();
  const auto start = Clock::now();
  for (std::size_t k = 0; k < min_requests || seconds_since(start) < seconds; ++k) {
    Sample s;
    s.cls = kCycle[(first + k) % kCycle.size()];
    s.seed = fresh_seed(rng);
    const std::string id = std::string("c").append(std::to_string(k));
    double ms = 0.0;
    daemon.pin(static_cast<long>(k));
    const double c0 = daemon.cpu_s();
    s.due = Clock::now();
    Event ev = client.call(request_line(classes[s.cls], s.seed, id), id, &ms);
    const double cpu_ms = (daemon.cpu_s() - c0) * 1e3;
    s.answered = ev.kind != "timeout";
    s.kind = ev.kind;
    s.deviations = ev.deviations;
    s.report = std::move(ev.report);
    s.done = ev.at;
    out.class_ms[s.cls].push_back(ms);
    out.class_cpu_ms[s.cls].push_back(cpu_ms);
    out.cpu_ms.push_back(cpu_ms);
    out.samples.push_back(std::move(s));
  }
  daemon.pin(-1);
  return out;
}

struct Step {
  double rate = 0.0;
  std::vector<Sample> samples;
  long active_max = 0;
  bool drained = false;  ///< every answer arrived within the latency limit of the last send

  [[nodiscard]] std::vector<double> latencies() const {
    std::vector<double> v;
    for (const Sample& s : samples) v.push_back(s.latency_ms());
    return v;
  }
  [[nodiscard]] std::vector<double> lateness() const {
    std::vector<double> v;
    for (const Sample& s : samples) {
      v.push_back(std::chrono::duration<double, std::milli>(s.sent - s.due).count());
    }
    return v;
  }
  [[nodiscard]] bool sustained() const {
    return drained && !samples.empty() && percentile(latencies(), 99) <= kLatencyLimitMs;
  }
};

// One open-loop step: `rate` requests per second for `seconds`, pipelined
// over kConnections connections; latency runs from each request's due time.
Step open_loop_step(const std::string& socket, std::size_t step_index, double rate,
                    double seconds, fs::Rng& rng) {
  Step step;
  step.rate = rate;
  // Requests are due at a fixed interval; the seed orders the classes.
  const auto n = static_cast<std::size_t>(rate * seconds);
  const std::vector<std::size_t> seq = class_sequence(n, rng);
  std::vector<double> offsets;
  for (std::size_t k = 0; k < n; ++k) {
    offsets.push_back(static_cast<double>(k) / rate);
    Sample s;
    s.cls = seq[k];
    s.seed = fresh_seed(rng);
    step.samples.push_back(std::move(s));
  }
  const std::string prefix = std::string("s").append(std::to_string(step_index)).append("r");
  std::mutex mu;
  std::size_t answered = 0;
  long active_max = 0;
  std::vector<std::unique_ptr<Connection>> conns;
  for (std::size_t c = 0; c < kConnections; ++c) {
    conns.push_back(std::make_unique<Connection>(socket, [&](Event&& ev) {
      std::lock_guard<std::mutex> lock(mu);
      if (ev.kind == "status") {
        active_max = std::max(active_max, ev.active);
        return;
      }
      if (ev.id.rfind(prefix, 0) != 0) return;
      const std::size_t k = std::stoul(ev.id.substr(prefix.size()));
      if (k >= step.samples.size() || step.samples[k].answered) return;
      Sample& s = step.samples[k];
      s.answered = true;
      s.kind = ev.kind;
      s.deviations = ev.deviations;
      s.report = std::move(ev.report);
      s.done = ev.at;
      ++answered;
    }));
  }
  // Polls `status` for the daemon's active-request count; joined on every
  // exit path.
  std::jthread poller([&](std::stop_token stop) {
    try {
      while (!stop.stop_requested()) {
        conns[0]->send("{\"verb\":\"status\"}");
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: status poll stopped: %s\n", e.what());
    }
  });

  const auto start = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t k = 0; k < step.samples.size(); ++k) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(offsets[k]));
    std::this_thread::sleep_until(due);
    const RequestClass& c = request_classes()[step.samples[k].cls];
    const std::string line = request_line(c, step.samples[k].seed, prefix + std::to_string(k));
    {
      std::lock_guard<std::mutex> lock(mu);
      step.samples[k].due = due;
      step.samples[k].sent = Clock::now();
    }
    conns[k % kConnections]->send(line);
  }
  const auto last_due = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  const auto drain_deadline = last_due + std::chrono::seconds(30);
  while (Clock::now() < drain_deadline) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (answered == step.samples.size()) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  poller.request_stop();
  poller.join();
  for (auto& c : conns) c->close();
  std::lock_guard<std::mutex> lock(mu);
  step.active_max = active_max;
  Clock::time_point last_done = start;
  for (const Sample& s : step.samples) {
    if (s.answered) last_done = std::max(last_done, s.done);
  }
  step.drained = answered == step.samples.size() &&
                 last_done <= last_due + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double, std::milli>(
                                                 kLatencyLimitMs));
  return step;
}

// Every answer must be a result with no failed paper check whose report
// equals the one-shot report of the same request: the pin for fixed
// requests, an in-process service::run_scenario for fresh seeds.
void verify(const std::vector<const Sample*>& samples, Result& r) {
  const auto& classes = request_classes();
  std::map<std::pair<std::size_t, std::uint64_t>, std::string> expected;
  for (const Sample* s : samples) {
    if (classes[s->cls].fresh_seed) expected[{s->cls, s->seed}];
  }
  std::vector<std::map<std::pair<std::size_t, std::uint64_t>, std::string>::iterator> todo;
  for (auto it = expected.begin(); it != expected.end(); ++it) todo.push_back(it);
  std::atomic<std::size_t> next{0};
  {
    std::vector<std::jthread> workers;
    for (std::size_t w = 0; w < std::min<std::size_t>(hardware_threads(), 4); ++w) {
      workers.emplace_back([&] {
        for (std::size_t i; (i = next.fetch_add(1)) < todo.size();) {
          const auto& [cls, seed] = todo[i]->first;
          const auto* spec = fs::experiments::Registry::instance().find(classes[cls].scenario);
          try {
            todo[i]->second = report_digest(
                fs::service::run_scenario(*spec, request_args(classes[cls], seed)).json);
          } catch (const std::exception& e) {
            // Left empty: every request expecting this digest counts as failed.
            std::fprintf(stderr, "perfbench: one-shot %s failed: %s\n",
                         classes[cls].scenario.c_str(), e.what());
          }
        }
      });
    }
  }  // joins the workers
  for (const Sample* s : samples) {
    const RequestClass& c = classes[s->cls];
    const std::string want = c.fresh_seed ? expected[{s->cls, s->seed}] : class_pin(c.name);
    r.tally(s->ok_shape() && s->deviations == 0 && !want.empty() &&
            report_digest(s->report) == want);
  }
}

std::string socket_path() {
  return std::string(kWorkDir) + "/fairbenchd-" + std::to_string(getpid()) + ".sock";
}

// What one daemon serves: the closed loop (at least `min_cycles` cycles and
// `closed_seconds`), then the open-loop ladder, `step_seconds` at each of
// kLadderRates; every answer is verified.
struct Session {
  ClosedLoop closed;
  std::vector<Step> ladder;
  double rss_mb = 0.0;

  [[nodiscard]] double sustained_rps() const {
    double rate = 0.0;
    for (const Step& st : ladder) {
      if (st.sustained()) rate = st.rate;
    }
    return rate;
  }
};

Session serve(Daemon& daemon, int min_cycles, double closed_seconds,
              double step_seconds, fs::Rng& rng, Result& r) {
  Session out;
  out.closed = closed_loop(daemon, min_cycles, closed_seconds, rng);
  for (std::size_t i = 0; i < kLadderRates.size(); ++i) {
    out.ladder.push_back(
        open_loop_step(daemon.socket_path(), i, kLadderRates[i], step_seconds, rng));
  }
  out.rss_mb = daemon.peak_rss_mb();
  r.tally(daemon.stop());
  std::vector<const Sample*> all;
  for (const Sample& s : out.closed.samples) all.push_back(&s);
  for (const Step& st : out.ladder) {
    for (const Sample& s : st.samples) all.push_back(&s);
  }
  verify(all, r);
  return out;
}

}  // namespace

Result run_daemon_mix(const Options& opt) {
  Result r;
  const std::string sock = socket_path();
  // Set-up: the daemon's CPU time from spawn until it answers `list`; ten
  // spawns before the daemon that serves (the last of them) and ten after.
  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  const auto spawn = [&](int times) {
    for (int k = 0; k < times; ++k) {
      if (daemon) r.tally(daemon->stop());
      daemon = std::make_unique<Daemon>(opt.daemon_path, sock, kDaemonWorkers);
      setups.push_back(daemon->ready_cpu_s());
    }
  };
  spawn(10);
  fs::Rng rng(opt.seed);
  const Session session =
      serve(*daemon, 1, opt.seconds, kStepSeconds, rng, r);
  daemon.reset();  // serve() stopped it
  spawn(10);
  r.tally(daemon->stop());
  const ClosedLoop& closed = session.closed;
  const std::vector<Step>& ladder = session.ladder;

  // The daemon's CPU time per closed-loop request: the medians of the
  // classes sum to what one request of each class costs it.
  double work_ms = 0.0;
  for (const auto& v : closed.class_cpu_ms) work_ms += median(v);
  r.set("cpu_s", work_ms / 1e3, "s");
  r.set("cpu_p50_ms", median(closed.cpu_ms), "ms");
  r.set("cpu_p90_ms", percentile(closed.cpu_ms, 90), "ms");
  r.set("peak_rss_mb", session.rss_mb, "MB");
  r.set("setup_s", median(setups), "s");

  const auto class_medians = [](const std::vector<std::vector<double>>& per_class) {
    std::string out;
    for (std::size_t c = 0; c < per_class.size(); ++c) {
      out += std::string(out.empty() ? "\"" : ",\"") + request_classes()[c].name +
             "\":" + std::to_string(median(per_class[c]));
    }
    return "{" + out + "}";
  };

  std::string rows;
  for (const Step& st : ladder) {
    rows += std::string(rows.empty() ? "" : ",") + "{\"rate\":" + std::to_string(st.rate) +
            ",\"requests\":" + std::to_string(st.samples.size()) +
            ",\"p50_ms\":" + std::to_string(median(st.latencies())) +
            ",\"p90_ms\":" + std::to_string(percentile(st.latencies(), 90)) +
            ",\"p99_ms\":" + std::to_string(percentile(st.latencies(), 99)) +
            ",\"late_p99_ms\":" + std::to_string(percentile(st.lateness(), 99)) +
            ",\"active_max\":" + std::to_string(st.active_max) +
            ",\"sustained\":" + (st.sustained() ? "true" : "false") + "}";
  }
  r.detail_json = "{\"sustained_rps\":" + std::to_string(session.sustained_rps()) +
                  ",\"closed_requests\":" + std::to_string(closed.samples.size()) +
                  ",\"class_ms\":" + class_medians(closed.class_ms) +
                  ",\"class_cpu_ms\":" + class_medians(closed.class_cpu_ms) +
                  ",\"ladder\":[" + rows + "]}";
  return r;
}

Result run_service_probe(const Options& opt, double ladder_seconds) {
  Result r;
  const auto& classes = request_classes();
  Daemon daemon(opt.daemon_path, socket_path(), kDaemonWorkers);
  fs::Rng rng(opt.seed ^ 0x5e41ceULL);
  const double step = ladder_seconds / static_cast<double>(kLadderRates.size());
  const Session session = serve(daemon, kProbeCycles, 0.0, step, rng, r);
  const ClosedLoop& closed = session.closed;

  // The daemon's own overhead: each class's request through a fresh daemon
  // and then in-process, pass after pass, so that the host's drift cancels
  // in each pair. The overhead is the mean over classes of the median
  // paired difference.
  double overhead = 0.0;
  std::map<std::string, double> p50;
  {
    Daemon paired(opt.daemon_path, socket_path(), kDaemonWorkers);
    SyncClient client(paired.socket_path());
    for (std::size_t c = 0; c < classes.size(); ++c) {
      const auto* spec = fs::experiments::Registry::instance().find(classes[c].scenario);
      std::vector<double> diff_ms;
      for (int k = 0; k < kProbeCycles; ++k) {
        const std::uint64_t seed = fresh_seed(rng);
        const std::string id =
            std::string("p").append(std::to_string(c)).append(".").append(std::to_string(k));
        double daemon_ms = 0.0;
        const Event ev = client.call(request_line(classes[c], seed, id), id, &daemon_ms);
        r.tally(ev.kind == "result" && ev.deviations == 0);
        const auto t0 = Clock::now();
        (void)fs::service::run_scenario(*spec, request_args(classes[c], seed), {},
                                        /*cache_batches=*/true);
        diff_ms.push_back(daemon_ms - seconds_since(t0) * 1e3);
      }
      p50[classes[c].name] = median(closed.class_ms[c]);
      overhead += median(diff_ms) / static_cast<double>(classes.size());
    }
    r.tally(paired.stop());
  }
  r.set("service.contract_p50_ms", p50["contract"], "ms");
  r.set("service.zoo_p50_ms", p50["zoo"], "ms");
  r.set("service.gmw_p50_ms", p50["gmw"], "ms");
  r.set("service.preproc_hit_ms", p50["preproc_hit"], "ms");
  r.set("service.preproc_miss_ms", p50["preproc_miss"], "ms");
  r.set("service.tcp_p50_ms", p50["tcp"], "ms");
  r.set("service.overhead_ms", overhead, "ms");
  r.set("net.tcp_extra_ms", p50["tcp"] - p50["contract"], "ms");

  long active_max = 0;
  std::vector<double> late;
  for (const Step& st : session.ladder) {
    active_max = std::max(active_max, st.active_max);
    const auto l = st.lateness();
    late.insert(late.end(), l.begin(), l.end());
  }
  r.set("service.sustained_rps", session.sustained_rps(), "1/s");
  r.set("service.active_max", static_cast<double>(active_max), "count");
  r.set("loadgen.late_p99_ms", percentile(late, 99), "ms");
  return r;
}

}  // namespace perfbench
