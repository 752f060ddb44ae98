#include "trace.h"

#include <memory>
#include <utility>

#include "bench.h"
#include "sim/adversary.h"
#include "sim/functionality.h"
#include "sim/party.h"

namespace perfbench {
namespace fs = fairsfe;

void LayerTotals::add(const LayerTotals& o) {
  for (std::size_t l = 0; l < kNumLayers; ++l) self_s[l] += o.self_s[l];
  probe_calls += o.probe_calls;
  honest_steps += o.honest_steps;
  messages += o.messages;
  payload_bytes += o.payload_bytes;
  rounds += o.rounds;
  runs += o.runs;
  wall_s += o.wall_s;
}

namespace {

// Self-time clock: entering a layer charges the elapsed interval to the
// layer below it, leaving charges it to the layer itself. Single-threaded by
// construction (replay runs on the caller's thread).
class LayerClock {
 public:
  void reset(LayerTotals* sink) {
    sink_ = sink;
    depth_ = 0;
  }
  void enter(Layer l) {
    const auto now = Clock::now();
    if (depth_ > 0) charge(stack_[depth_ - 1], now);
    stack_[depth_++] = l;
    last_ = now;
  }
  void leave() {
    const auto now = Clock::now();
    charge(stack_[--depth_], now);
    last_ = now;
  }

 private:
  void charge(Layer l, Clock::time_point now) {
    sink_->self_s[l] += std::chrono::duration<double>(now - last_).count();
  }
  LayerTotals* sink_ = nullptr;
  std::array<Layer, 64> stack_{};
  std::size_t depth_ = 0;
  Clock::time_point last_;
};

LayerClock g_clock;
bool g_tracing = false;

struct Span {
  explicit Span(Layer l) {
    if (g_tracing) g_clock.enter(l);
  }
  ~Span() {
    if (g_tracing) g_clock.leave();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

class PartyProxy final : public fs::sim::IParty {
 public:
  explicit PartyProxy(std::unique_ptr<fs::sim::IParty> inner) : inner_(std::move(inner)) {}
  std::vector<fs::sim::Message> on_round(int round, fs::sim::MsgView in) override {
    Span s(kParty);
    return inner_->on_round(round, in);
  }
  void on_abort() override {
    Span s(kParty);
    inner_->on_abort();
  }
  [[nodiscard]] bool done() const override { return inner_->done(); }
  [[nodiscard]] std::optional<fs::Bytes> output() const override { return inner_->output(); }
  // Clones are the adversary's probes: they run unwrapped, inside the probe
  // span that covers the whole hypothetical continuation.
  [[nodiscard]] std::unique_ptr<fs::sim::IParty> clone() const override {
    return inner_->clone();
  }
  [[nodiscard]] fs::sim::PartyId id() const override { return inner_->id(); }
  fs::sim::IParty& inner() { return *inner_; }

 private:
  std::unique_ptr<fs::sim::IParty> inner_;
};

class FuncProxy final : public fs::sim::IFunctionality {
 public:
  explicit FuncProxy(std::unique_ptr<fs::sim::IFunctionality> inner)
      : inner_(std::move(inner)) {}
  std::vector<fs::sim::Message> on_round(fs::sim::FuncContext& ctx, int round,
                                         fs::sim::MsgView in) override {
    Span s(kFunc);
    return inner_->on_round(ctx, round, in);
  }

 private:
  std::unique_ptr<fs::sim::IFunctionality> inner_;
};

// Counts and times the engine capabilities the adversary uses. party() hands
// back the unwrapped party, so strategies that dynamic_cast their corrupted
// party's state (coin-flip) see the concrete type.
class CtxProxy final : public fs::sim::AdvContext {
 public:
  explicit CtxProxy(LayerTotals& totals) : totals_(totals) {}
  void bind(fs::sim::AdvContext& inner) { inner_ = &inner; }

  [[nodiscard]] int n() const override { return inner_->n(); }
  [[nodiscard]] int round() const override { return inner_->round(); }
  fs::Rng& rng() override { return inner_->rng(); }
  [[nodiscard]] const std::set<fs::sim::PartyId>& corrupted() const override {
    return inner_->corrupted();
  }
  [[nodiscard]] bool is_corrupted(fs::sim::PartyId pid) const override {
    return inner_->is_corrupted(pid);
  }
  void corrupt(fs::sim::PartyId pid) override { inner_->corrupt(pid); }
  std::vector<fs::sim::Message> honest_step(fs::sim::PartyId pid,
                                            fs::sim::MsgView in) override {
    ++totals_.honest_steps;
    return inner_->honest_step(pid, in);
  }
  [[nodiscard]] std::optional<fs::Bytes> probe_output(
      fs::sim::PartyId pid, const std::vector<fs::sim::MsgView>& batches) const override {
    Span s(kProbe);
    ++totals_.probe_calls;
    return inner_->probe_output(pid, batches);
  }
  fs::sim::IParty& party(fs::sim::PartyId pid) override {
    fs::sim::IParty& p = inner_->party(pid);
    if (auto* proxy = dynamic_cast<PartyProxy*>(&p)) return proxy->inner();
    return p;
  }

 private:
  fs::sim::AdvContext* inner_ = nullptr;
  LayerTotals& totals_;
};

class AdvProxy final : public fs::sim::IAdversary {
 public:
  AdvProxy(std::unique_ptr<fs::sim::IAdversary> inner, LayerTotals& totals)
      : inner_(std::move(inner)), ctx_(totals) {}
  void setup(fs::sim::AdvContext& ctx) override {
    Span s(kAdv);
    ctx_.bind(ctx);
    inner_->setup(ctx_);
  }
  std::vector<fs::sim::Message> on_round(fs::sim::AdvContext& ctx,
                                         const fs::sim::AdvView& view) override {
    Span s(kAdv);
    ctx_.bind(ctx);
    return inner_->on_round(ctx_, view);
  }
  bool abort_functionality(fs::sim::AdvContext& ctx,
                           const std::vector<fs::sim::Message>& outs) override {
    Span s(kAdv);
    ctx_.bind(ctx);
    return inner_->abort_functionality(ctx_, outs);
  }
  [[nodiscard]] bool learned_output() const override { return inner_->learned_output(); }
  [[nodiscard]] std::optional<fs::Bytes> extracted_output() const override {
    return inner_->extracted_output();
  }
  [[nodiscard]] bool finished() const override { return inner_->finished(); }

 private:
  std::unique_ptr<fs::sim::IAdversary> inner_;
  CtxProxy ctx_;
};

}  // namespace

ReplayResult replay(const fs::rpd::SetupFactory& factory, const fs::rpd::PayoffModel& model,
                    const fs::rpd::EstimatorOptions& opts, bool traced) {
  ReplayResult out;
  LayerTotals& t = out.totals;
  out.events.resize(opts.runs);
  g_tracing = traced;
  g_clock.reset(&t);
  const auto t0 = Clock::now();
  const fs::Rng master(opts.seed);
  for (std::size_t i = 0; i < opts.runs; ++i) {
    fs::Rng run_rng = master.fork_at("run", i);
    fs::rpd::RunSetup setup;
    {
      Span s(kFactory);
      fs::Rng setup_rng = run_rng.fork("setup");
      setup = factory(setup_rng);
      if (setup.bind_run) setup.bind_run(i);
    }
    if (opts.fault) setup.engine.fault = *opts.fault;
    if (opts.round_timeout >= 0) setup.engine.round_timeout = opts.round_timeout;
    const std::size_t n = setup.parties.size();
    auto j_predicate = setup.honest_got_output;
    auto i_predicate = setup.adversary_learned;
    auto annotate = setup.annotate;
    if (traced) {
      for (auto& p : setup.parties) p = std::make_unique<PartyProxy>(std::move(p));
      if (setup.functionality) {
        setup.functionality = std::make_unique<FuncProxy>(std::move(setup.functionality));
      }
      if (setup.adversary) {
        setup.adversary = std::make_unique<AdvProxy>(std::move(setup.adversary), t);
      }
    }
    fs::sim::ExecutionResult result;
    {
      Span s(kEngine);
      result = fs::rpd::execute(std::move(setup), run_rng.fork("engine"));
    }
    {
      Span s(kScore);
      const bool j_bit = j_predicate ? j_predicate(result) : fs::rpd::all_honest_nonbot(result, n);
      fs::rpd::Outcome o = fs::rpd::outcome_of(result, n, j_bit);
      if (i_predicate) o.adversary_learned = i_predicate(result);
      fs::rpd::RunOutcome ro;
      ro.event = fs::rpd::classify(o);
      ro.outcome = o;
      out.events[i] = ro.event;
      if (!result.hit_round_cap) {
        if (annotate) annotate(result, ro);
        (void)model.score(ro);
      }
    }
    t.messages += result.stats.messages;
    t.payload_bytes += result.stats.payload_bytes;
    t.rounds += static_cast<std::uint64_t>(result.rounds);
  }
  t.runs = opts.runs;
  t.wall_s = seconds_since(t0);
  g_tracing = false;
  return out;
}

}  // namespace perfbench
