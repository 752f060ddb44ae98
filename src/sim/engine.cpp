#include "sim/engine.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "sim/fault/injector.h"
#include "sim/transport.h"
#include "util/check.h"

namespace fairsfe::sim {

bool ExecutionResult::honest_output_present(PartyId pid) const {
  if (corrupted.count(pid)) return false;
  const auto idx = static_cast<std::size_t>(pid);
  return idx < outputs.size() && outputs[idx].has_value();
}

std::vector<std::vector<std::string>> ExecutionResult::transcript_lines() const {
  std::vector<std::vector<std::string>> lines;
  lines.reserve(transcript.size());
  for (const auto& round : transcript) {
    std::vector<std::string> round_lines;
    round_lines.reserve(round.size());
    for (const Message& m : round) round_lines.push_back(describe(m));
    lines.push_back(std::move(round_lines));
  }
  return lines;
}

namespace {

// One round's messages plus the per-party mailboxes: index lists into `msgs`,
// so a broadcast body is stored once and shared by every recipient.
struct RoundBuf {
  std::vector<Message> msgs;
  std::vector<std::vector<std::uint32_t>> mail;  // index = PartyId
  std::vector<std::uint32_t> func_mail;          // kFunc-addressed traffic
  /// Count of locally-sent messages in `msgs`. Under a remote transport the
  /// buffer additionally holds wire copies appended when the next round
  /// collects its deliveries; all() (the adversary's tap) spans only the
  /// originals, so the adversary's view is identical to the in-process run.
  /// Sentinel "everything" while the round is still routing.
  std::size_t originals = std::numeric_limits<std::size_t>::max();

  explicit RoundBuf(std::size_t n) : mail(n) {}

  void clear() {
    msgs.clear();
    for (auto& box : mail) box.clear();
    func_mail.clear();
    originals = std::numeric_limits<std::size_t>::max();
  }

  [[nodiscard]] MsgView mailbox(PartyId pid) const {
    const auto& box = mail[static_cast<std::size_t>(pid)];
#if FAIRSFE_DCHECKS_ENABLED
    // Mailbox delivery contract: every index list entry points into this
    // round's buffer, and entries are consumed in append (= delivery) order.
    for (const std::uint32_t idx : box) {
      FAIRSFE_CHECK(idx < msgs.size(), "mailbox index outside the round buffer");
    }
#endif
    return MsgView(msgs.data(), box.data(), box.size());
  }
  [[nodiscard]] MsgView func_mailbox() const {
    return MsgView(msgs.data(), func_mail.data(), func_mail.size());
  }
  [[nodiscard]] MsgView all() const {
    return MsgView(msgs.data(), std::min(originals, msgs.size()));
  }
};

}  // namespace

// Shared context implementing both the adversary- and functionality-facing
// capability interfaces against the engine state.
class Engine::Ctx final : public AdvContext, public FuncContext {
 public:
  Ctx(Engine& e, Rng adv_rng, Rng func_rng)
      : engine_(e), adv_rng_(std::move(adv_rng)), func_rng_(std::move(func_rng)) {}

  // ---- common ----
  [[nodiscard]] int n() const override {
    return static_cast<int>(engine_.parties_.size());
  }
  [[nodiscard]] int round() const override { return round_; }

  // ---- AdvContext ----
  Rng& rng() override { return adv_rng_; }

  [[nodiscard]] const std::set<PartyId>& corrupted() const override { return corrupted_; }
  [[nodiscard]] bool is_corrupted(PartyId pid) const override {
    return corrupted_.count(pid) > 0;
  }

  void corrupt(PartyId pid) override {
    if (pid < 0 || pid >= n()) throw std::invalid_argument("corrupt: bad pid");
    corrupted_.insert(pid);
  }

  std::vector<Message> honest_step(PartyId pid, MsgView in) override {
    require_corrupted(pid);
    IParty& p = *engine_.parties_[static_cast<std::size_t>(pid)];
    if (p.done()) return {};
    return p.on_round(round_, in);
  }

  [[nodiscard]] std::optional<Bytes> probe_output(
      PartyId pid, const std::vector<MsgView>& batches) const override {
    require_corrupted(pid);
    const IParty& p = *engine_.parties_[static_cast<std::size_t>(pid)];
    std::unique_ptr<IParty> ghost = p.clone();
    int r = round_;
    for (const MsgView& batch : batches) {
      if (ghost->done()) break;
      ghost->on_round(r++, batch);
    }
    if (!ghost->done()) ghost->on_abort();
    return ghost->output();
  }

  IParty& party(PartyId pid) override {
    require_corrupted(pid);
    return *engine_.parties_[static_cast<std::size_t>(pid)];
  }

  // ---- FuncContext ----
  bool adversary_abort_gate(const std::vector<Message>& outputs_to_corrupted) override {
    if (!engine_.adversary_) return false;
    return engine_.adversary_->abort_functionality(*this, outputs_to_corrupted);
  }

  Rng& func_rng() { return func_rng_; }
  void set_round(int r) {
    FAIRSFE_DCHECK(r >= round_, "rounds must advance monotonically");
    round_ = r;
  }

 private:
  void require_corrupted(PartyId pid) const {
    if (!is_corrupted(pid)) {
      throw std::logic_error("adversary touched an uncorrupted party");
    }
  }

  Engine& engine_;
  Rng adv_rng_;
  Rng func_rng_;
  std::set<PartyId> corrupted_;
  int round_ = 0;
};

namespace {

// FuncContext wrapper that swaps in the functionality's rng.
class FuncCtxView final : public FuncContext {
 public:
  explicit FuncCtxView(Engine::Ctx& inner) : inner_(inner) {}
  [[nodiscard]] int n() const override { return inner_.n(); }
  Rng& rng() override { return inner_.func_rng(); }
  [[nodiscard]] const std::set<PartyId>& corrupted() const override {
    return inner_.corrupted();
  }
  bool adversary_abort_gate(const std::vector<Message>& outs) override {
    return inner_.adversary_abort_gate(outs);
  }

 private:
  Engine::Ctx& inner_;
};

}  // namespace

Engine::Engine(std::vector<std::unique_ptr<IParty>> parties,
               std::unique_ptr<IFunctionality> functionality,
               std::unique_ptr<IAdversary> adversary, Rng rng, ExecutionOptions cfg)
    : parties_(std::move(parties)),
      functionality_(std::move(functionality)),
      adversary_(std::move(adversary)),
      rng_(std::move(rng)),
      cfg_(cfg) {
  for (std::size_t i = 0; i < parties_.size(); ++i) {
    FAIRSFE_CHECK(parties_[i] != nullptr, "engine constructed with a null party");
    FAIRSFE_CHECK(parties_[i]->id() == static_cast<PartyId>(i),
                  "party ids must equal their position (mailbox routing is indexed)");
  }
  ctx_ = std::make_unique<Ctx>(*this, rng_.fork("adversary"), rng_.fork("functionality"));
}

Engine::~Engine() = default;

ExecutionResult Engine::run() {
  ExecutionResult result;
  const int n = static_cast<int>(parties_.size());

  if (adversary_) adversary_->setup(*ctx_);

  FuncCtxView func_ctx(*ctx_);

  // Fault injection: compiled only for an enabled plan, so the disabled
  // default neither forks fault randomness nor perturbs a single byte of the
  // reliable execution (pinned by tests/test_fault.cpp).
  std::unique_ptr<fault::FaultInjector> injector;
  if (cfg_.fault.enabled()) {
    injector = std::make_unique<fault::FaultInjector>(cfg_.fault, n, rng_.fork("fault"));
  }
  fault::FaultStats& fstats = result.fault_stats;
  // Consecutive rounds each honest party has spent with an empty mailbox
  // (timeout accounting; only maintained when the injector is active).
  std::vector<int> stalled(static_cast<std::size_t>(n), 0);
  // Reordered deliveries of the current round: flushed to the back of their
  // recipient's mailbox after all other routing, so they are consumed last.
  std::vector<std::pair<PartyId, std::uint32_t>> reorder_tail;

  // Double-buffered rounds: `prev` holds round r-1's routed messages (what
  // parties consume now), `cur` collects round r's sends.
  RoundBuf buf_a(static_cast<std::size_t>(n));
  RoundBuf buf_b(static_cast<std::size_t>(n));
  RoundBuf* prev = &buf_a;
  RoundBuf* cur = &buf_b;

  RoutingStats& stats = result.stats;

  // The delivery-leg transport seam. nullptr (the default, and any kInProc
  // transport) keeps the native direct-mailbox path; a remote transport has
  // every leg shipped during round r and read back at round r+1.
  Transport* const remote =
      (cfg_.transport != nullptr &&
       cfg_.transport->kind() != TransportKind::kInProc)
          ? cfg_.transport
          : nullptr;

  // Commit one delivery leg: the terminal act of routing, appending the
  // message index to the recipient's mailbox (rcpt == kFunc selects the
  // hybrid slot). Under a remote transport the leg is shipped instead and
  // the mailbox filled when the next round collects — in ship order, so
  // mailbox contents are bit-identical either way.
  const auto commit = [&](RoundBuf& buf, PartyId rcpt, std::uint32_t idx) {
    if (remote != nullptr) {
      remote->ship(rcpt, buf.msgs[idx], ctx_->round());
    } else if (rcpt == kFunc) {
      buf.func_mail.push_back(idx);
    } else {
      buf.mail[static_cast<std::size_t>(rcpt)].push_back(idx);
    }
  };

  // Room for a whole batch of sends, growing geometrically. A party that
  // emits thousands of messages in one round (the OT-driven offline phase)
  // would otherwise pass through several doublings of the round buffer,
  // each of which holds the old and the new block at once.
  const auto reserve_for = [](RoundBuf& buf, std::size_t count) {
    const std::size_t need = buf.msgs.size() + count;
    if (need > buf.msgs.capacity()) {
      buf.msgs.reserve(std::max(need, 2 * buf.msgs.capacity()));
    }
  };

  // Route one message: move it into the round buffer exactly once, then fan
  // out by index. Broadcast bodies are shared, never duplicated.
  //
  // RoutingStats always count the canonical pre-fault routing (what was
  // sent); the injector then decides what each honest mailbox actually sees.
  // The message body always enters the round buffer: the adversary is the
  // network scheduler and taps the wire upstream of the faults, so its
  // AdvView stays pre-fault. Self-deliveries (own broadcast loopback),
  // deliveries to currently-corrupted parties, and — unless the plan says
  // otherwise — the hybrid functionality channel are reliable.
  const auto deliver = [&](RoundBuf& buf, Message&& m) {
    const auto idx = static_cast<std::uint32_t>(buf.msgs.size());
    const std::uint64_t sz = m.payload.size();
    const int r = ctx_->round();
    stats.messages += 1;
    stats.payload_bytes += sz;
    if (m.to == kBroadcast) {
      stats.broadcast_messages += 1;
      stats.bytes_copy_avoided += sz * static_cast<std::uint64_t>(n);
    } else if (m.to == kFunc || (m.to >= 0 && m.to < n)) {
      stats.bytes_copy_avoided += sz;
    }
    const PartyId from = m.from;
    const PartyId to = m.to;
    buf.msgs.push_back(std::move(m));

    if (!injector) {
      if (to == kBroadcast) {
        for (PartyId rcpt = 0; rcpt < n; ++rcpt) commit(buf, rcpt, idx);
      } else if (to == kFunc) {
        commit(buf, kFunc, idx);
      } else if (to >= 0 && to < n) {
        commit(buf, to, idx);
      }
      return;
    }

    // Per-recipient fate of one delivery leg (messages collected at round r
    // are consumed at round r+1, hence the crash check against r+1). Fates
    // are drawn *before* the surviving leg is committed/shipped: faults are
    // the modeled network, the transport underneath is reliable.
    const auto route_leg = [&](PartyId rcpt) {
      if (rcpt == from || ctx_->is_corrupted(rcpt)) {
        commit(buf, rcpt, idx);
        return;
      }
      if (injector->is_crashed(rcpt, r + 1)) {
        fstats.lost_in_crash += 1;
        return;
      }
      using Fate = fault::FaultInjector::Fate;
      const Fate f = injector->fate(from, rcpt, r, fstats);
      switch (f.kind) {
        case Fate::kDeliver:
          commit(buf, rcpt, idx);
          break;
        case Fate::kDrop:
          break;
        case Fate::kDelay:
          // Re-addressed to the recipient directly: a delayed broadcast leg
          // becomes an ordinary point-to-point redelivery.
          injector->schedule(Message{from, rcpt, buf.msgs[idx].payload},
                             r + f.delay_rounds);
          break;
        case Fate::kDuplicate:
          commit(buf, rcpt, idx);
          injector->schedule(Message{from, rcpt, buf.msgs[idx].payload}, r + 1);
          break;
        case Fate::kCorrupt: {
          Message garbled{from, rcpt, buf.msgs[idx].payload};
          fault::corrupt_in_flight(garbled.payload, injector->rng());
          const auto gidx = static_cast<std::uint32_t>(buf.msgs.size());
          buf.msgs.push_back(std::move(garbled));
          commit(buf, rcpt, gidx);
          break;
        }
        case Fate::kReorder:
          reorder_tail.emplace_back(rcpt, idx);
          break;
      }
    };

    if (to == kBroadcast) {
      for (PartyId rcpt = 0; rcpt < n; ++rcpt) route_leg(rcpt);
    } else if (to == kFunc) {
      if (!cfg_.fault.affect_func_channel) {
        commit(buf, kFunc, idx);
      } else {
        using Fate = fault::FaultInjector::Fate;
        const Fate f = injector->fate(from, kFunc, r, fstats);
        // The hybrid slot has no mailbox history: only drop applies; every
        // other fate degrades to plain delivery.
        if (f.kind != Fate::kDrop) commit(buf, kFunc, idx);
      }
    } else if (to >= 0 && to < n) {
      if (from == kFunc && !cfg_.fault.affect_func_channel) {
        commit(buf, to, idx);
      } else {
        route_leg(to);
      }
    }
  };

  int r = 0;
  for (; r < cfg_.max_rounds; ++r) {
    ctx_->set_round(r);
    cur->clear();

    // Remote transport: round r-1's shipped legs come off the wire now,
    // filling the mailboxes the parties are about to consume. Wire copies
    // land beyond `originals`, so prev->all() (the adversary's tap) still
    // spans exactly the locally-sent messages. Must run before anything
    // ships round-r legs (take_due below does).
    if (remote != nullptr && r > 0) {
      prev->originals = prev->msgs.size();
      for (Delivery& leg : remote->collect(r - 1)) {
        const auto idx = static_cast<std::uint32_t>(prev->msgs.size());
        if (leg.rcpt == kFunc) {
          prev->func_mail.push_back(idx);
        } else {
          prev->mail[static_cast<std::size_t>(leg.rcpt)].push_back(idx);
        }
        prev->msgs.push_back(std::move(leg.msg));
      }
    }

    if (injector) {
      injector->tick(r, fstats);
      // Redeliver delayed/duplicated copies due this round. They were
      // re-addressed point-to-point at fate time; no fate is re-drawn (a
      // copy already in the injector's hands is not re-faulted).
      for (Message& m : injector->take_due(r)) {
        if (injector->is_crashed(m.to, r + 1)) {
          fstats.lost_in_crash += 1;
          continue;
        }
        const auto idx = static_cast<std::uint32_t>(cur->msgs.size());
        const PartyId rcpt = m.to;
        cur->msgs.push_back(std::move(m));
        commit(*cur, rcpt, idx);
        fstats.injected += 1;
      }
    }

    // 1. Honest parties move, consuming their round-(r-1) mailboxes.
    for (PartyId pid = 0; pid < n; ++pid) {
      if (ctx_->is_corrupted(pid)) continue;
      IParty& p = *parties_[static_cast<std::size_t>(pid)];
      if (p.done()) continue;
      if (injector) {
        if (injector->is_crashed(pid, r)) continue;  // down: no step, no timeout
        if (r > 0 && prev->mail[static_cast<std::size_t>(pid)].empty()) {
          // The expected message did not arrive: stall instead of stepping
          // (parties are activation-driven state machines), and after
          // round_timeout consecutive empty rounds observe the abort event.
          stalled[static_cast<std::size_t>(pid)] += 1;
          if (cfg_.round_timeout > 0 &&
              stalled[static_cast<std::size_t>(pid)] >= cfg_.round_timeout) {
            p.on_abort();
            fstats.timeouts_fired += 1;
          }
          continue;
        }
        stalled[static_cast<std::size_t>(pid)] = 0;
      }
      std::vector<Message> out = p.on_round(r, prev->mailbox(pid));
      reserve_for(*cur, out.size());
      for (Message& m : out) {
        m.from = pid;  // authenticated channels: sender identity is bound
        deliver(*cur, std::move(m));
      }
    }

    // 2. Hybrid functionality moves (sees last round's kFunc traffic).
    if (functionality_) {
      std::vector<Message> out = functionality_->on_round(func_ctx, r, prev->func_mailbox());
      reserve_for(*cur, out.size());
      for (Message& m : out) {
        m.from = kFunc;
        deliver(*cur, std::move(m));
      }
    }

    // 3. Adversary moves last (rushing).
    if (adversary_) {
      AdvView view;
      view.round = r;
      view.delivered = prev->all().visible_to(ctx_->corrupted());
      view.rushed = cur->all().visible_to(ctx_->corrupted());
      std::vector<Message> out = adversary_->on_round(*ctx_, view);
      for (Message& m : out) {
        // Channel authenticity: adversary may only speak for corrupted parties.
        if (!ctx_->is_corrupted(m.from)) continue;
        deliver(*cur, std::move(m));
      }
    }

    // Reordered deliveries land at the back of their round's mailbox, after
    // honest, functionality, and adversary traffic alike.
    if (injector && !reorder_tail.empty()) {
      for (const auto& [rcpt, idx] : reorder_tail) {
        FAIRSFE_DCHECK(idx < cur->msgs.size(),
                       "reordered delivery must reference this round's buffer");
        commit(*cur, rcpt, idx);
      }
      reorder_tail.clear();
    }

    if (cfg_.record_transcript) {
      for (const Message& m : cur->msgs) stats.bytes_copied += m.payload.size();
      result.transcript.push_back(cur->msgs);
    }

    std::swap(prev, cur);

    // Termination: all honest parties done, or (if none) adversary finished.
    // A party crashed with no scheduled restart is never stepped again, so it
    // counts as done here and is finalized through on_abort() below.
    bool honest_exists = false;
    bool all_honest_done = true;
    for (PartyId pid = 0; pid < n; ++pid) {
      if (ctx_->is_corrupted(pid)) continue;
      honest_exists = true;
      if (parties_[static_cast<std::size_t>(pid)]->done()) continue;
      if (injector && injector->crashed_forever(pid, r)) continue;
      all_honest_done = false;
    }
    if (honest_exists ? all_honest_done : (!adversary_ || adversary_->finished())) {
      ++r;
      break;
    }
  }

  result.rounds = r;
  result.hit_round_cap = (r >= cfg_.max_rounds);

  // Finalize any party still running (round cap / corrupted leftovers).
  result.outputs.resize(static_cast<std::size_t>(n));
  for (PartyId pid = 0; pid < n; ++pid) {
    IParty& p = *parties_[static_cast<std::size_t>(pid)];
    if (!ctx_->is_corrupted(pid) && !p.done()) p.on_abort();
    result.outputs[static_cast<std::size_t>(pid)] = p.done() ? p.output() : std::nullopt;
  }
  result.corrupted = ctx_->corrupted();
  if (adversary_) {
    result.adversary_learned = adversary_->learned_output();
    result.adversary_output = adversary_->extracted_output();
  }
  return result;
}

ExecutionResult run_honest(std::vector<std::unique_ptr<IParty>> parties, Rng rng,
                           ExecutionOptions cfg) {
  Engine engine(std::move(parties), nullptr, nullptr, std::move(rng), cfg);
  return engine.run();
}

}  // namespace fairsfe::sim
