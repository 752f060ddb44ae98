#include "fair/partial_1p.h"

#include "util/check.h"

namespace fairsfe::fair {

using sim::Message;
using sim::MsgView;

Partial1pParams make_partial_1p_and_params(std::size_t p) {
  Partial1pParams params;
  params.spec = mpc::make_and_spec();
  params.p = p;
  params.sample_x1 = [](Rng& rng) { return Bytes{static_cast<std::uint8_t>(rng.bit())}; };
  params.sample_x2 = [](Rng& rng) { return Bytes{static_cast<std::uint8_t>(rng.bit())}; };
  return params;
}

Partial1pShareGenFunc::Partial1pShareGenFunc(Partial1pParams params, mpc::NotesPtr notes)
    : params_(std::move(params)), notes_(std::move(notes)) {
  FAIRSFE_CHECK(params_.p >= 1, "Partial1pShareGenFunc: p must be >= 1");
}

std::vector<Message> Partial1pShareGenFunc::on_round(sim::FuncContext& ctx, int /*round*/,
                                                     MsgView in) {
  if (fired_ || in.empty()) return {};
  fired_ = true;

  std::array<std::optional<Bytes>, 2> inputs;
  for (const Message& m : in) {
    if (m.from != 0 && m.from != 1) continue;
    const auto x = sim::decode_func_input(m.payload);
    if (x && !inputs[static_cast<std::size_t>(m.from)]) {
      inputs[static_cast<std::size_t>(m.from)] = *x;
    }
  }

  std::vector<Message> out;
  if (!inputs[0] || !inputs[1]) {
    if (notes_) notes_->vals["phase1_aborted"] = 1;
    out.push_back(Message{sim::kFunc, 0, sim::encode_func_abort()});
    out.push_back(Message{sim::kFunc, 1, sim::encode_func_abort()});
    return out;
  }

  Rng& rng = ctx.rng();
  const Bytes y = params_.spec.eval({*inputs[0], *inputs[1]});

  // The round-sampling trick: i* uniform over [1, p] — no geometric tail,
  // exactly p iterations, unfair-window probability exactly 1/p.
  const std::size_t p = params_.p;
  const std::size_t i_star = 1 + static_cast<std::size_t>(rng.below(p));
  if (notes_) {
    notes_->blobs["y"] = y;
    notes_->vals["i_star"] = i_star;
  }

  // Both fakes resampled from the function's output distribution on a fresh
  // peer input (the kPolyDomain shape, on both sides).
  auto fake_a = [&]() { return params_.spec.eval({*inputs[0], params_.sample_x2(rng)}); };
  auto fake_b = [&]() { return params_.spec.eval({params_.sample_x1(rng), *inputs[1]}); };
  return deal_gk_streams(ctx, notes_, p, i_star, y, fake_a, fake_b);
}

Partial1pParty::Partial1pParty(sim::PartyId id, Partial1pParams params, Bytes input,
                               Rng rng)
    : PartyBase(id), params_(std::move(params)), input_(std::move(input)),
      rng_(std::move(rng)) {
  FAIRSFE_CHECK(id == 0 || id == 1, "Partial1pParty: protocol is 2-party");
}

void Partial1pParty::finish_with_default() {
  std::vector<Bytes> xs = params_.spec.default_inputs;
  xs[static_cast<std::size_t>(id_)] = input_;
  finish(params_.spec.eval(xs));
}

std::vector<Message> Partial1pParty::on_round(int /*round*/, MsgView in) {
  switch (step_) {
    case Step::kSendInput: {
      step_ = Step::kAwaitShares;
      return {Message{id_, sim::kFunc, sim::encode_func_input(input_)}};
    }
    case Step::kAwaitShares: {
      const Message* fm = first_from(in, sim::kFunc);
      if (fm == nullptr) return {};
      const auto body = sim::decode_func_output(fm->payload);
      streams_ = body ? GkStreams::parse(id_, *body) : nullptr;
      if (!streams_) {
        finish_with_default();
        return {};
      }
      last_value_ = streams_->fallback;
      // Simultaneous schedule: BOTH parties open iteration 1 in the same
      // round (they received the dealer output in the same round).
      step_ = Step::kIterate;
      j_ = 1;
      return streams_->opening(id_, 1);
    }
    case Step::kIterate: {
      // My opening of iteration j_ went out last round; the peer's opening
      // of the same iteration must be in this round's input.
      auto value = streams_->reconstruct(id_, j_, in);
      if (!value) {
        // Peer withheld its opening (or cheated): output the last
        // reconstructed value — the randomized-abort guarantee.
        finish(last_value_);
        return {};
      }
      last_value_ = std::move(*value);
      if (j_ == streams_->rounds()) {
        // v_p = y by construction (i* ≤ p always).
        finish(last_value_);
        return {};
      }
      ++j_;
      return streams_->opening(id_, j_);
    }
  }
  return {};
}

void Partial1pParty::on_abort() {
  if (done()) return;
  if (step_ == Step::kIterate) {
    finish(last_value_);
  } else {
    finish_with_default();
  }
}

std::vector<std::unique_ptr<sim::IParty>> make_partial_1p_parties(
    const Partial1pParams& params, const Bytes& x0, const Bytes& x1, Rng& rng) {
  std::vector<std::unique_ptr<sim::IParty>> parties;
  parties.push_back(std::make_unique<Partial1pParty>(0, params, x0, rng.fork("p1p-p0")));
  parties.push_back(std::make_unique<Partial1pParty>(1, params, x1, rng.fork("p1p-p1")));
  return parties;
}

}  // namespace fairsfe::fair
