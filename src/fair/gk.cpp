#include "fair/gk.h"

#include <algorithm>

#include "util/check.h"

namespace fairsfe::fair {

using sim::Message;
using sim::MsgView;

namespace {
constexpr std::uint8_t kTagGkOpening = 60;
}  // namespace

double GkParams::alpha() const {
  const double base = static_cast<double>(p) * static_cast<double>(domain_size);
  if (variant == Variant::kPolyRange) {
    return 1.0 / (static_cast<double>(p) * base);
  }
  return 1.0 / base;
}

std::size_t GkParams::cap() const {
  if (rounds != 0) return rounds;
  // Pr[i* > cap] = (1-α)^cap ≈ e^{-8}: negligible against 1/p for our sweeps.
  return static_cast<std::size_t>(8.0 / alpha()) + 1;
}

GkParams make_gk_and_params(std::size_t p) {
  GkParams params;
  params.spec = mpc::make_and_spec();
  params.p = p;
  params.variant = GkParams::Variant::kPolyDomain;
  params.sample_x1 = [](Rng& rng) { return Bytes{static_cast<std::uint8_t>(rng.bit())}; };
  params.sample_x2 = [](Rng& rng) { return Bytes{static_cast<std::uint8_t>(rng.bit())}; };
  params.domain_size = 2;
  return params;
}

Bytes encode_gk_opening(std::size_t j, ByteView opening) {
  Writer w;
  w.u8(kTagGkOpening).u32(static_cast<std::uint32_t>(j)).blob(opening);
  return w.take();
}

std::optional<std::pair<std::size_t, ByteView>> decode_gk_opening(ByteView payload) {
  Reader r(payload);
  const auto tag = r.u8();
  if (!tag || *tag != kTagGkOpening) return std::nullopt;
  const auto j = r.u32();
  const auto body = r.blob_view();
  if (!j || !body || !r.at_end()) return std::nullopt;
  return std::make_pair(static_cast<std::size_t>(*j), *body);
}

std::shared_ptr<const GkStreams> GkStreams::parse(sim::PartyId id, Bytes body) {
  auto streams = std::make_shared<GkStreams>();
  streams->body = std::move(body);
  Reader r(streams->body);
  const auto cap = r.u32();
  const auto fallback = r.blob_view();
  if (!cap || !fallback) return nullptr;
  streams->fallback = *fallback;
  // Each iteration takes at least two length prefixes: a hostile cap cannot
  // reserve more than the body could hold.
  const std::size_t n = std::min<std::size_t>(*cap, r.remaining() / 8);
  streams->incoming.reserve(n);
  streams->outgoing.reserve(n);
  for (std::size_t j = 1; j <= *cap; ++j) {
    const auto sa = r.blob_view();
    const auto sb = r.blob_view();
    const auto share_a = sa ? AuthShare2View::parse(*sa) : std::nullopt;
    const auto share_b = sb ? AuthShare2View::parse(*sb) : std::nullopt;
    if (!share_a || !share_b) return nullptr;
    // p1 reads the a-stream and opens the b-stream; p2 vice versa.
    streams->incoming.push_back(id == 0 ? *share_a : *share_b);
    streams->outgoing.push_back(id == 0 ? *share_b : *share_a);
  }
  return streams;
}

std::vector<Message> GkStreams::opening(sim::PartyId from, std::size_t j) const {
  if (j == 0 || j > outgoing.size()) return {};
  return {Message{from, static_cast<sim::PartyId>(1 - from),
                  encode_gk_opening(j, outgoing[j - 1].opening)}};
}

std::optional<Bytes> GkStreams::reconstruct(sim::PartyId me, std::size_t j,
                                            MsgView in) const {
  if (j == 0 || j > incoming.size()) return std::nullopt;
  for (const Message& m : in) {
    if (m.from != 1 - me) continue;
    const auto dec = decode_gk_opening(m.payload);
    if (dec && dec->first == j) return auth_reconstruct2(incoming[j - 1], dec->second);
  }
  return std::nullopt;
}

std::vector<Message> deal_gk_streams(sim::FuncContext& ctx, const mpc::NotesPtr& notes,
                                     std::size_t rounds, std::size_t i_star, const Bytes& y,
                                     const std::function<Bytes()>& fake_a,
                                     const std::function<Bytes()>& fake_b) {
  Rng& rng = ctx.rng();
  // Fakes are outputs of f like y, so one reservation usually holds the
  // whole stream: per iteration a framed record of a_j's and of b_j's half.
  const std::size_t capacity = 8 + y.size() + rounds * 2 * (4 + auth_share2_record_size(y.size()));
  Writer w1 = sim::func_output_writer(capacity), w2 = sim::func_output_writer(capacity);
  w1.u32(static_cast<std::uint32_t>(rounds)).blob(fake_a());  // a_0 fallback for p1
  w2.u32(static_cast<std::uint32_t>(rounds)).blob(fake_b());  // b_0 fallback for p2
  for (std::size_t j = 1; j <= rounds; ++j) {
    const Bytes fa = j < i_star ? fake_a() : Bytes{};
    const Bytes fb = j < i_star ? fake_b() : Bytes{};
    for (const ByteView v : {ByteView(j < i_star ? fa : y), ByteView(j < i_star ? fb : y)}) {
      // blob(record): its length, then the record appended in place.
      const auto size = static_cast<std::uint32_t>(auth_share2_record_size(v.size()));
      w1.u32(size);
      w2.u32(size);
      auth_share2_records(v, rng, w1, w2);
    }
  }

  std::vector<Message> deliveries = {
      Message{sim::kFunc, 0, sim::seal_func_output(w1.take())},
      Message{sim::kFunc, 1, sim::seal_func_output(w2.take())},
  };
  const bool abort = sim::gate_deliveries(ctx, deliveries);
  if (notes) notes->vals["phase1_aborted"] = abort ? 1 : 0;
  return deliveries;
}

ShareGenFunc::ShareGenFunc(GkParams params, mpc::NotesPtr notes)
    : params_(std::move(params)), notes_(std::move(notes)) {}

std::vector<Message> ShareGenFunc::on_round(sim::FuncContext& ctx, int /*round*/,
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

  // i* ~ Geometric(alpha), truncated at the cap.
  const std::size_t cap = params_.cap();
  const double alpha = params_.alpha();
  std::size_t i_star = 1;
  while (i_star < cap && rng.uniform() >= alpha) ++i_star;
  if (notes_) {
    notes_->blobs["y"] = y;
    notes_->vals["i_star"] = i_star;
  }

  auto fake_a = [&]() {
    if (params_.variant == GkParams::Variant::kPolyRange) return params_.sample_range(rng);
    return params_.spec.eval({*inputs[0], params_.sample_x2(rng)});
  };
  auto fake_b = [&]() {
    if (params_.variant == GkParams::Variant::kPolyRange) return params_.sample_range(rng);
    return params_.spec.eval({params_.sample_x1(rng), *inputs[1]});
  };
  return deal_gk_streams(ctx, notes_, cap, i_star, y, fake_a, fake_b);
}

GkParty::GkParty(sim::PartyId id, GkParams params, Bytes input, Rng rng)
    : PartyBase(id), params_(std::move(params)), input_(std::move(input)),
      rng_(std::move(rng)) {
  FAIRSFE_CHECK(id == 0 || id == 1, "GkParty: protocol is 2-party");
}

void GkParty::finish_with_default() {
  std::vector<Bytes> xs = params_.spec.default_inputs;
  xs[static_cast<std::size_t>(id_)] = input_;
  finish(params_.spec.eval(xs));
}

std::vector<Message> GkParty::on_round(int /*round*/, MsgView in) {
  switch (step_) {
    case Step::kSendInput: {
      step_ = Step::kAwaitShares;
      return {Message{id_, sim::kFunc, sim::encode_func_input(input_)}};
    }
    case Step::kAwaitShares: {
      const Message* fm = first_from(in, sim::kFunc);
      if (fm == nullptr) return {};
      auto body = sim::decode_func_output(fm->payload);
      streams_ = body ? GkStreams::parse(id_, std::move(*body)) : nullptr;
      if (!streams_) {
        finish_with_default();
        return {};
      }
      last_value_.assign(streams_->fallback.begin(), streams_->fallback.end());
      step_ = Step::kIterate;
      j_ = 1;
      if (id_ == 1) {
        // p2 opens a_1 immediately; p1 waits for it.
        expecting_ = false;
        return streams_->opening(id_, 1);
      }
      expecting_ = true;
      return {};
    }
    case Step::kIterate: {
      if (!expecting_) {
        // My own opening went out last round; now it is my turn to receive
        // (p2 after opening a_j waits a round for b_j).
        expecting_ = true;
        return {};
      }
      auto value = streams_->reconstruct(id_, j_, in);
      if (!value) {
        // Peer aborted (or cheated): output the last reconstructed value —
        // the randomized-abort guarantee.
        finish(last_value_);
        return {};
      }
      last_value_ = std::move(*value);
      const std::size_t rounds = streams_->rounds();
      if (id_ == 0) {
        // p1 reconstructs a_j, then opens b_j. After the final iteration its
        // value is a_r = y. The round after sending is a gap round (the peer
        // is processing), so expecting_ flips off.
        std::vector<Message> out = streams_->opening(id_, j_);
        if (j_ == rounds) {
          finish(last_value_);
        } else {
          ++j_;
          expecting_ = false;
        }
        return out;
      }
      // p2 reconstructed b_j; move to iteration j+1 and open a_{j+1}.
      if (j_ == rounds) {
        finish(last_value_);
        return {};
      }
      ++j_;
      expecting_ = false;
      return streams_->opening(id_, j_);
    }
  }
  return {};
}

void GkParty::on_abort() {
  if (done()) return;
  if (step_ == Step::kIterate) {
    finish(last_value_);
  } else {
    finish_with_default();
  }
}

std::vector<std::unique_ptr<sim::IParty>> make_gk_parties(const GkParams& params,
                                                          const Bytes& x0, const Bytes& x1,
                                                          Rng& rng) {
  std::vector<std::unique_ptr<sim::IParty>> parties;
  parties.push_back(std::make_unique<GkParty>(0, params, x0, rng.fork("gk-p0")));
  parties.push_back(std::make_unique<GkParty>(1, params, x1, rng.fork("gk-p1")));
  return parties;
}

}  // namespace fairsfe::fair
