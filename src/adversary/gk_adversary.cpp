#include "adversary/gk_adversary.h"

#include "fair/gk.h"
#include "fair/gk_multi.h"
#include "crypto/secret_sharing.h"

namespace fairsfe::adversary {

using sim::Message;

GkAborter::GkAborter(GkAbortRule rule, mpc::NotesPtr notes)
    : AdversaryBase({0}), rule_(std::move(rule)), notes_(std::move(notes)) {}

std::vector<Message> GkAborter::on_round(sim::AdvContext& ctx, const sim::AdvView& view) {
  if (aborted_) return {};

  // An incoming stream opening marks a reconstruction opportunity for p1.
  bool has_opening = false;
  for (const Message& m : view.delivered) {
    if (m.to == 0 && fair::decode_gk_opening(m.payload)) has_opening = true;
  }

  if (has_opening) {
    // What would p1 output if it consumed this opening and the peer then
    // aborted? That is exactly a_j.
    const auto value = ctx.probe_output(0, {addressed_to(view.delivered, 0)});
    if (value) {
      ++last_iteration_;
      history_.push_back(*value);
      if (rule_(last_iteration_, history_, ctx.rng())) {
        // Take a_j and abort before opening b_j.
        honest_step_all(ctx, view.delivered);
        mark_learned(*value);
        if (notes_) notes_->vals["abort_iteration"] = last_iteration_;
        aborted_ = true;
        return {};
      }
    }
  }

  std::vector<Message> out = honest_step_all(ctx, view.delivered);
  if (!learned_) {
    const sim::IParty& p1 = ctx.party(0);
    if (p1.done() && p1.output()) mark_learned(*p1.output());
  }
  return out;
}

GkMultiAborter::GkMultiAborter(std::set<sim::PartyId> corrupt, std::size_t n,
                               GkAbortRule rule, mpc::NotesPtr notes)
    : AdversaryBase(std::move(corrupt)), n_(n), rule_(std::move(rule)),
      notes_(std::move(notes)) {}

std::vector<Message> GkMultiAborter::on_round(sim::AdvContext& ctx,
                                              const sim::AdvView& view) {
  if (aborted_) return {};
  std::vector<Message> out = honest_step_all(ctx, view.delivered);

  // Pool this round's summands: the coalition's own (about to go out) plus
  // the honest ones seen early thanks to rushing.
  std::map<std::size_t, std::map<sim::PartyId, ByteView>> by_round;
  auto absorb = [&](sim::MsgView msgs) {
    for (const Message& m : msgs) {
      const auto sh = fair::decode_gk_multi_share(m.payload);
      if (sh) by_round[sh->j][m.from] = sh->summand;
    }
  };
  absorb(out);
  absorb(view.rushed);

  for (const auto& [j, shares] : by_round) {
    if (shares.size() != n_) continue;
    std::vector<ByteView> pool;
    pool.reserve(n_);
    for (const auto& [pid, s] : shares) pool.push_back(s);
    const Bytes v = xor_reconstruct(pool);
    history_.push_back(v);
    if (rule_(j, history_, ctx.rng())) {
      mark_learned(v);
      if (notes_) notes_->vals["abort_iteration"] = j;
      aborted_ = true;
      return {};  // withhold the coalition's round-j summands
    }
  }
  if (!learned_) {
    for (const sim::PartyId pid : ctx.corrupted()) {
      const sim::IParty& p = ctx.party(pid);
      if (p.done() && p.output()) mark_learned(*p.output());
    }
  }
  return out;
}

GkAbortRule gk_rule_abort_at(std::size_t k) {
  return [k](std::size_t j, const std::vector<Bytes>&, Rng&) { return j == k; };
}

GkAbortRule gk_rule_geometric(double beta) {
  return [beta](std::size_t, const std::vector<Bytes>&, Rng& rng) {
    return rng.uniform() < beta;
  };
}

GkAbortRule gk_rule_match_target(Bytes target) {
  return [target = std::move(target)](std::size_t, const std::vector<Bytes>& history, Rng&) {
    return history.back() == target;
  };
}

GkAbortRule gk_rule_repeat_detector() {
  return [](std::size_t j, const std::vector<Bytes>& history, Rng&) {
    return j >= 2 && history[j - 1] == history[j - 2];
  };
}

}  // namespace fairsfe::adversary
