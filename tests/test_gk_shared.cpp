// The GK family's dealt share streams are parsed once and shared between a
// party and its clones (sim/party.h's clone contract). These tests pin what
// that sharing must not change: a clone outlives its original and keeps
// stepping exactly as the original did, probing a clone leaves the original
// untouched, a malformed delivery still ends the party at once with the
// default, and the estimates of exp10/exp11/exp16/exp21 attacks stay put at
// 1 and 4 threads. They run in tier1, so the tsan gate covers the shared
// state, and the asan-ubsan preset catches a view outliving its buffer.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "experiments/registry.h"
#include "fair/gk.h"
#include "fair/gk_multi.h"
#include "fair/leaky_and.h"
#include "fair/partial_1p.h"
#include "rpd/estimator.h"

namespace fairsfe::fair {
namespace {

using sim::Message;

class NullCtx final : public sim::FuncContext {
 public:
  NullCtx(int n, std::uint64_t seed) : n_(n), rng_(seed) {}
  [[nodiscard]] int n() const override { return n_; }
  Rng& rng() override { return rng_; }
  [[nodiscard]] const std::set<sim::PartyId>& corrupted() const override { return none_; }
  bool adversary_abort_gate(const std::vector<Message>& /*outputs*/) override { return false; }

 private:
  int n_;
  Rng rng_;
  std::set<sim::PartyId> none_;
};

/// A minimal synchronous router with no adversary: each round every live
/// party consumes last round's messages addressed to it (broadcasts loop
/// back to the sender), then the functionality consumes its own. Party 0's
/// inbox and emissions are recorded per round.
struct Lockstep {
  Lockstep(std::vector<std::unique_ptr<sim::IParty>> ps,
           std::unique_ptr<sim::IFunctionality> f, std::uint64_t seed)
      : parties(std::move(ps)), func(std::move(f)),
        ctx(static_cast<int>(parties.size()), seed) {}

  std::vector<std::unique_ptr<sim::IParty>> parties;
  std::unique_ptr<sim::IFunctionality> func;
  NullCtx ctx;
  std::vector<Message> pending;  // last round's traffic
  int round = 0;
  std::vector<std::vector<Message>> inbox0, sent0;

  [[nodiscard]] std::vector<Message> inbox(sim::PartyId pid) const {
    std::vector<Message> in;
    for (const Message& m : sim::MsgView(pending).addressed_to(pid)) in.push_back(m);
    return in;
  }

  [[nodiscard]] bool all_done() const {
    for (const auto& p : parties) {
      if (!p->done()) return false;
    }
    return true;
  }

  void step() {
    std::vector<Message> next;
    for (const auto& p : parties) {
      if (p->done()) continue;
      const std::vector<Message> in = inbox(p->id());
      std::vector<Message> out = p->on_round(round, in);
      if (p->id() == 0) {
        inbox0.push_back(in);
        sent0.push_back(out);
      }
      next.insert(next.end(), out.begin(), out.end());
    }
    const std::vector<Message> fin = inbox(sim::kFunc);
    std::vector<Message> fout = func->on_round(ctx, round, fin);
    next.insert(next.end(), fout.begin(), fout.end());
    pending = std::move(next);
    ++round;
  }

  void run_to_end() {
    while (!all_done()) {
      ASSERT_LT(round, 2000) << "protocol did not terminate";
      step();
    }
  }
};

// The test parameter holds no pointers: gtest prints a parameter that has no
// operator<< as a dump of its bytes, and that dump is part of each case's
// listed name, so a heap or code address in it would give the cases a new
// name on every build.
enum class Kind : std::uint64_t { kGk, kPartial1p, kLeakyAnd, kGkMulti };

struct Protocol {
  char name[56];
  Kind kind;
};
// The dump's size is part of the listed names too; keep it as it was.
static_assert(sizeof(Protocol) == 64);

std::vector<Protocol> protocols() {
  return {{"GkParty", Kind::kGk},
          {"Partial1pParty", Kind::kPartial1p},
          {"LeakyAnd", Kind::kLeakyAnd},
          {"GkMultiParty", Kind::kGkMulti}};
}

std::unique_ptr<Lockstep> make_lockstep(const Protocol& protocol, std::uint64_t seed) {
  const Bytes one{1};
  Rng rng(seed);
  switch (protocol.kind) {
    case Kind::kGk: {
      const GkParams params = make_gk_and_params(3);
      return std::make_unique<Lockstep>(make_gk_parties(params, one, one, rng),
                                        std::make_unique<ShareGenFunc>(params), seed + 1);
    }
    case Kind::kPartial1p: {
      const Partial1pParams params = make_partial_1p_and_params(8);
      return std::make_unique<Lockstep>(make_partial_1p_parties(params, one, one, rng),
                                        std::make_unique<Partial1pShareGenFunc>(params),
                                        seed + 1);
    }
    case Kind::kLeakyAnd:
      return std::make_unique<Lockstep>(make_leaky_and_parties(one, one, rng),
                                        make_leaky_and_functionality(nullptr), seed + 1);
    case Kind::kGkMulti: {
      const GkMultiParams params = make_gk_multi_and_params(3, 2);
      return std::make_unique<Lockstep>(make_gk_multi_parties(params, {one, one, one}, rng),
                                        std::make_unique<MultiShareGenFunc>(params), seed + 1);
    }
  }
  return nullptr;
}

/// The adversary-visible (iteration, last value) of the two-party parties;
/// std::nullopt for the parties that expose neither.
std::optional<std::pair<std::size_t, Bytes>> observable(const sim::IParty& p) {
  if (const auto* gk = dynamic_cast<const GkParty*>(&p)) {
    return std::make_pair(gk->iteration(), gk->last_value());
  }
  if (const auto* p1p = dynamic_cast<const Partial1pParty*>(&p)) {
    return std::make_pair(p1p->iteration(), p1p->last_value());
  }
  return std::nullopt;
}

std::vector<std::string> describe_all(const std::vector<Message>& msgs) {
  std::vector<std::string> out;
  for (const Message& m : msgs) out.push_back(sim::describe(m) + ":" + to_hex(m.payload));
  return out;
}

class GkSharedClone : public ::testing::TestWithParam<Protocol> {};

TEST_P(GkSharedClone, CloneOutlivesOriginalAndStepsIdentically) {
  constexpr int kCloneRound = 5;  // mid-stream for every protocol above
  auto ls = make_lockstep(GetParam(), 7);
  for (int r = 0; r < kCloneRound; ++r) ls->step();
  const sim::IParty& original = *ls->parties[0];
  ASSERT_FALSE(original.done()) << "clone point is past the end of the stream";

  std::unique_ptr<sim::IParty> probe = original.clone();
  std::unique_ptr<sim::IParty> follower = original.clone();
  // The output a probe of the original would report right now.
  std::optional<Bytes> abort_output;
  {
    std::unique_ptr<sim::IParty> ghost = original.clone();
    ghost->on_abort();
    ASSERT_TRUE(ghost->done());
    abort_output = ghost->output();
  }
  ASSERT_TRUE(abort_output.has_value());

  const std::size_t resume = ls->sent0.size();
  ls->run_to_end();
  const std::optional<Bytes> original_output = ls->parties[0]->output();
  const std::vector<std::vector<Message>> inbox(ls->inbox0.begin() + static_cast<std::ptrdiff_t>(resume),
                                               ls->inbox0.end());
  const std::vector<std::vector<Message>> sent(ls->sent0.begin() + static_cast<std::ptrdiff_t>(resume),
                                              ls->sent0.end());
  ls.reset();  // every original — and the functionality — is gone now

  probe->on_abort();
  ASSERT_TRUE(probe->done());
  EXPECT_EQ(probe->output(), abort_output);

  ASSERT_FALSE(inbox.empty());
  int r = kCloneRound;
  for (std::size_t k = 0; k < inbox.size(); ++k) {
    ASSERT_FALSE(follower->done()) << "clone finished early at step " << k;
    EXPECT_EQ(describe_all(follower->on_round(r++, inbox[k])), describe_all(sent[k]))
        << "step " << k;
  }
  ASSERT_TRUE(follower->done());
  EXPECT_EQ(follower->output(), original_output);
  ASSERT_TRUE(original_output.has_value());
  EXPECT_EQ(*original_output, Bytes{1});
}

TEST_P(GkSharedClone, ProbingLeavesTheOriginalUnchanged) {
  auto plain = make_lockstep(GetParam(), 11);
  plain->run_to_end();

  auto probed = make_lockstep(GetParam(), 11);
  int probes = 0;
  while (!probed->all_done()) {
    ASSERT_LT(probed->round, 2000);
    const sim::IParty& p0 = *probed->parties[0];
    if (!p0.done()) {
      // What probe_output does: clone, feed one more round, abort.
      const auto before = observable(p0);
      std::unique_ptr<sim::IParty> ghost = p0.clone();
      ghost->on_round(probed->round, probed->inbox(0));
      if (!ghost->done()) ghost->on_abort();
      ++probes;
      EXPECT_EQ(observable(p0), before) << "round " << probed->round;
      EXPECT_FALSE(p0.done());
    }
    probed->step();
  }
  EXPECT_GT(probes, 4);
  ASSERT_EQ(probed->sent0.size(), plain->sent0.size());
  for (std::size_t k = 0; k < plain->sent0.size(); ++k) {
    EXPECT_EQ(describe_all(probed->sent0[k]), describe_all(plain->sent0[k])) << "round " << k;
  }
  for (std::size_t i = 0; i < plain->parties.size(); ++i) {
    EXPECT_EQ(probed->parties[i]->output(), plain->parties[i]->output()) << "party " << i;
  }
}

TEST_P(GkSharedClone, MalformedDeliveryFinishesWithDefaultAtOnce) {
  auto ls = make_lockstep(GetParam(), 13);
  bool dealt = false;
  while (!dealt) {
    ASSERT_LT(ls->round, 10) << "no dealer output";
    ls->step();
    for (Message& m : ls->pending) {
      if (m.from != sim::kFunc || m.to != 0) continue;
      auto body = sim::decode_func_output(m.payload);
      ASSERT_TRUE(body.has_value());
      body->pop_back();  // truncate the last share
      m.payload = sim::encode_func_output(*body);
      dealt = true;
    }
  }
  ls->step();
  ASSERT_TRUE(ls->parties[0]->done());
  EXPECT_EQ(ls->parties[0]->output(), std::optional<Bytes>(Bytes{0}));  // f(x1, default) = 1 ∧ 0
}

INSTANTIATE_TEST_SUITE_P(GkShared, GkSharedClone, ::testing::ValuesIn(protocols()),
                         [](const ::testing::TestParamInfo<Protocol>& p) { return std::string(p.param.name); });

// One probing attack per GK-family scenario, at the scenario's γ and base
// seed. Pinned on the code that copied the dealt streams per clone, and
// bit-identical across thread counts.
TEST(GkSharedPins, EstimatesUnchangedAtOneAndFourThreads) {
  struct Pin {
    const char* scenario;
    std::size_t attack;
    const char* name;
    double utility;
  };
  const Pin pins[] = {
      {"exp10_gk_partial_fairness", 3, "match-target", 0.10000000000000001},
      {"exp11_leaky_and_separation", 4, "repeat-detector", 0.115},
      {"exp16_multiparty_partial_fairness", 2, "match-target", 0.19},
      {"exp21_partial_1p", 2, "abort@p", 0.27500000000000002},
  };
  for (const Pin& pin : pins) {
    const auto* spec = experiments::Registry::instance().find(pin.scenario);
    ASSERT_NE(spec, nullptr) << pin.scenario;
    ASSERT_GT(spec->attacks.size(), pin.attack);
    const auto& attack = spec->attacks[pin.attack];
    EXPECT_EQ(attack.name, pin.name);
    for (const std::size_t threads : {1u, 4u}) {
      rpd::EstimatorOptions opts;
      opts.runs = 200;
      opts.seed = spec->base_seed;
      opts.threads = threads;
      const auto est = rpd::estimate_utility(attack.factory, spec->gamma, opts);
      EXPECT_EQ(est.utility, pin.utility) << pin.scenario << " threads=" << threads;
      EXPECT_EQ(est.valid_runs, 200u) << pin.scenario << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace fairsfe::fair
