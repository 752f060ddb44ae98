#include "fair/gk_multi.h"

#include <algorithm>

#include "crypto/secret_sharing.h"
#include "crypto/sha256.h"

namespace fairsfe::fair {

using sim::Message;
using sim::MsgView;

namespace {
constexpr std::uint8_t kTagMultiShare = 65;
}  // namespace

GkMultiParams make_gk_multi_and_params(std::size_t n, std::size_t p) {
  GkMultiParams params;
  params.spec.n = n;
  params.spec.eval = [](const std::vector<Bytes>& xs) {
    std::uint8_t acc = 1;
    for (const Bytes& x : xs) {
      acc = static_cast<std::uint8_t>(acc & (x.empty() ? 0 : (x[0] & 1)));
    }
    return Bytes{acc};
  };
  params.spec.default_inputs.assign(n, Bytes{0});
  params.p = p;
  params.sample_inputs = [n](Rng& rng) {
    std::vector<Bytes> xs;
    xs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) xs.push_back(Bytes{static_cast<std::uint8_t>(rng.bit())});
    return xs;
  };
  params.domain_size = 2;
  return params;
}

Bytes encode_gk_multi_share(std::size_t j, ByteView summand, ByteView nonce) {
  Writer w;
  w.u8(kTagMultiShare).u32(static_cast<std::uint32_t>(j)).blob(summand).blob(nonce);
  return w.take();
}

std::optional<GkMultiShare> decode_gk_multi_share(ByteView payload) {
  Reader r(payload);
  const auto tag = r.u8();
  if (!tag || *tag != kTagMultiShare) return std::nullopt;
  const auto j = r.u32();
  const auto summand = r.blob_view();
  const auto nonce = r.blob_view();
  if (!j || !summand || !nonce || !r.at_end()) return std::nullopt;
  return GkMultiShare{static_cast<std::size_t>(*j), *summand, *nonce};
}

Bytes gk_multi_share_hash(std::size_t j, ByteView nonce, ByteView summand) {
  Writer w;
  w.u64(j).blob(nonce).blob(summand);
  return sha256_labeled("gk-multi", w.bytes());
}

MultiShareGenFunc::MultiShareGenFunc(GkMultiParams params, mpc::NotesPtr notes)
    : params_(std::move(params)), notes_(std::move(notes)) {}

std::vector<Message> MultiShareGenFunc::on_round(sim::FuncContext& ctx, int /*round*/,
                                                 MsgView in) {
  if (fired_ || in.empty()) return {};
  fired_ = true;

  const std::size_t n = params_.spec.n;
  std::vector<std::optional<Bytes>> inputs(n);
  for (const Message& m : in) {
    if (m.from < 0 || m.from >= static_cast<sim::PartyId>(n)) continue;
    const auto x = sim::decode_func_input(m.payload);
    if (x && !inputs[static_cast<std::size_t>(m.from)]) {
      inputs[static_cast<std::size_t>(m.from)] = *x;
    }
  }

  std::vector<Message> out;
  bool complete = true;
  for (const auto& x : inputs) {
    if (!x) complete = false;
  }
  if (!complete) {
    if (notes_) notes_->vals["phase1_aborted"] = 1;
    for (std::size_t p = 0; p < n; ++p) {
      out.push_back(Message{sim::kFunc, static_cast<sim::PartyId>(p),
                            sim::encode_func_abort()});
    }
    return out;
  }

  Rng& rng = ctx.rng();
  std::vector<Bytes> xs(n);
  for (std::size_t i = 0; i < n; ++i) xs[i] = *inputs[i];
  const Bytes y = params_.spec.eval(xs);

  const std::size_t cap = params_.cap();
  const double alpha = params_.alpha();
  std::size_t i_star = 1;
  while (i_star < cap && rng.uniform() >= alpha) ++i_star;
  if (notes_) {
    notes_->blobs["y"] = y;
    notes_->vals["i_star"] = i_star;
  }

  auto fake = [&]() { return params_.spec.eval(params_.sample_inputs(rng)); };

  // Per-party output blobs.
  std::vector<Writer> blobs(n);
  for (std::size_t p = 0; p < n; ++p) {
    blobs[p].u32(static_cast<std::uint32_t>(cap));
    blobs[p].blob(fake());  // independent v_0 fallback per party
  }
  for (std::size_t j = 1; j <= cap; ++j) {
    const Bytes v = (j < i_star) ? fake() : y;
    const auto summands = xor_share(v, n, rng);
    std::vector<Bytes> nonces(n);
    std::vector<Bytes> hashes(n);
    for (std::size_t p = 0; p < n; ++p) {
      nonces[p] = rng.bytes(16);
      hashes[p] = gk_multi_share_hash(j, nonces[p], summands[p]);
    }
    for (std::size_t p = 0; p < n; ++p) {
      blobs[p].blob(summands[p]).blob(nonces[p]);
      for (const Bytes& h : hashes) blobs[p].blob(h);
    }
  }

  std::vector<Message> deliveries;
  for (std::size_t p = 0; p < n; ++p) {
    deliveries.push_back(Message{sim::kFunc, static_cast<sim::PartyId>(p),
                                 sim::encode_func_output(blobs[p].bytes())});
  }
  std::vector<Message> corrupted_outputs;
  for (const Message& m : deliveries) {
    if (ctx.corrupted().count(m.to)) corrupted_outputs.push_back(m);
  }
  const bool abort = ctx.adversary_abort_gate(corrupted_outputs);
  if (notes_) notes_->vals["phase1_aborted"] = abort ? 1 : 0;
  for (Message& m : deliveries) {
    if (abort && !ctx.corrupted().count(m.to)) m.payload = sim::encode_func_abort();
    out.push_back(std::move(m));
  }
  return out;
}

GkMultiParty::GkMultiParty(sim::PartyId id, GkMultiParams params, Bytes input, Rng rng)
    : PartyBase(id), params_(std::move(params)), input_(std::move(input)),
      rng_(std::move(rng)) {}

void GkMultiParty::finish_with_default() {
  std::vector<Bytes> xs = params_.spec.default_inputs;
  xs[static_cast<std::size_t>(id_)] = input_;
  finish(params_.spec.eval(xs));
}

std::shared_ptr<const GkMultiParty::Dealt> GkMultiParty::Dealt::parse(std::size_t n,
                                                                      Bytes body) {
  auto dealt = std::make_shared<Dealt>();
  dealt->body = std::move(body);
  dealt->n = n;
  Reader r(dealt->body);
  const auto cap = r.u32();
  const auto fallback = r.blob_view();
  if (!cap || !fallback) return nullptr;
  dealt->fallback = *fallback;
  // Each view takes at least a length prefix: a hostile cap cannot reserve
  // more than the body could hold.
  dealt->views.reserve(std::min<std::size_t>(*cap * (n + 2), r.remaining() / 4));
  for (std::size_t k = 0; k < *cap * (n + 2); ++k) {
    const auto v = r.blob_view();
    if (!v) return nullptr;
    dealt->views.push_back(*v);
  }
  return dealt;
}

std::vector<Message> GkMultiParty::broadcast_share(std::size_t j) const {
  return {Message{id_, sim::kBroadcast,
                  encode_gk_multi_share(j, dealt_->summand(j), dealt_->nonce(j))}};
}

std::vector<Message> GkMultiParty::on_round(int /*round*/, MsgView in) {
  const std::size_t n = params_.spec.n;
  switch (step_) {
    case Step::kSendInput: {
      step_ = Step::kAwaitShares;
      return {Message{id_, sim::kFunc, sim::encode_func_input(input_)}};
    }
    case Step::kAwaitShares: {
      const Message* fm = first_from(in, sim::kFunc);
      if (fm == nullptr) return {};
      auto body = sim::decode_func_output(fm->payload);
      dealt_ = body ? Dealt::parse(n, std::move(*body)) : nullptr;
      if (!dealt_ || dealt_->rounds() == 0) {
        finish_with_default();
        return {};
      }
      last_value_.assign(dealt_->fallback.begin(), dealt_->fallback.end());
      step_ = Step::kIterate;
      j_ = 1;
      return broadcast_share(1);
    }
    case Step::kIterate: {
      // Collect everyone's round-j_ summands (my own broadcast loops back).
      std::vector<ByteView> summands(n);
      std::vector<bool> seen(n, false);
      for (const Message& m : in) {
        if (m.from < 0 || m.from >= static_cast<sim::PartyId>(n)) continue;
        const auto sh = decode_gk_multi_share(m.payload);
        if (!sh || sh->j != j_) continue;
        const std::size_t p = static_cast<std::size_t>(m.from);
        if (!ct_equal(gk_multi_share_hash(j_, sh->nonce, sh->summand), dealt_->hash(j_, p))) {
          continue;
        }
        if (!seen[p]) summands[p] = sh->summand;
        seen[p] = true;
      }
      if (std::find(seen.begin(), seen.end(), false) != seen.end()) {
        // Someone withheld or forged: end with the last reconstructed value.
        finish(last_value_);
        return {};
      }
      last_value_ = xor_reconstruct(summands);
      if (j_ == dealt_->rounds()) {
        finish(last_value_);
        return {};
      }
      ++j_;
      return broadcast_share(j_);
    }
  }
  return {};
}

void GkMultiParty::on_abort() {
  if (done()) return;
  if (step_ == Step::kIterate) {
    finish(last_value_);
  } else {
    finish_with_default();
  }
}

std::vector<std::unique_ptr<sim::IParty>> make_gk_multi_parties(
    const GkMultiParams& params, const std::vector<Bytes>& inputs, Rng& rng) {
  std::vector<std::unique_ptr<sim::IParty>> parties;
  parties.reserve(inputs.size());
  for (std::size_t p = 0; p < inputs.size(); ++p) {
    parties.push_back(std::make_unique<GkMultiParty>(static_cast<sim::PartyId>(p), params,
                                                     inputs[p], rng.fork("gk-multi")));  // LINT-ALLOW(rng-fork-in-loop): fork counter is the party index (parent enters at 0); callers fork this parent afterwards, so re-indexing would re-seed pinned goldens
  }
  return parties;
}

}  // namespace fairsfe::fair
