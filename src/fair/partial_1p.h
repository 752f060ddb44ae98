// Beimel–Omri–Orlov style 1/p-secure partial fairness with the
// round-sampling trick (PAPERS.md; compared against the paper's 1/p section
// in experiment E21).
//
// Where Gordon–Katz draw the switch round i* ~ Geometric(1/(p·|Y|)) over a
// long stream (~8·p·|Y| iterations for a negligible truncation tail), the
// round-sampling construction fixes the iteration count to EXACTLY p and
// draws i* uniform over [1, p]: the dealer prepares value streams
//     a_j = fake for j < i*, a_j = y for j ≥ i*   (reconstructed by p1),
//     b_j = fake for j < i*, b_j = y for j ≥ i*   (reconstructed by p2),
// both fakes resampled from the function's output distribution, and the
// parties open one iteration per round SIMULTANEOUSLY (both send their
// opening of iteration j in the same round). A rushing adversary still gets
// a one-iteration head start — it sees the peer's opening j before deciding
// whether to release its own — but any abort strategy hits j = i* with
// probability exactly 1/p, so under ~γ = (0, 0, 1, 0) every attack earns
// ≤ γ10/p. The price of the short schedule is the coarser guarantee: GK's
// geometric draw gives 1/p against a *noticeability* threshold, while
// round-sampling gives plain 1/p — the measured crossover E21 plots.
//
// Reuses the GK wire pieces: AuthShare2 authenticated sharings, the
// encode_gk_opening / decode_gk_opening framing and the GkStreams parser
// (fair/gk.h).
#pragma once

#include <memory>
#include <vector>

#include "fair/gk.h"

namespace fairsfe::fair {

struct Partial1pParams {
  mpc::SfeSpec spec;  ///< must be two-party
  std::size_t p = 2;  ///< the 1/p-security target == the exact iteration count
  std::function<Bytes(Rng&)> sample_x1;  ///< uniform element of p1's domain
  std::function<Bytes(Rng&)> sample_x2;  ///< uniform element of p2's domain

  /// Exchange iterations — exactly p (the round-sampling trick), against
  /// GK's ~8·p·|Y| geometric cap.
  [[nodiscard]] std::size_t rounds() const { return p; }
};

/// Ready-made parameters for the single-bit AND function (the same example
/// function as make_gk_and_params, so E21's crossover compares like with
/// like).
Partial1pParams make_partial_1p_and_params(std::size_t p);

/// The round-sampling dealer. One-shot on first input round: draws i*
/// uniform over [1, p], prepares both authenticated streams, and delivers
/// each party its halves. Unfair abort gate. Records "y" (blob), "i_star",
/// "phase1_aborted" in `notes` — consumed by rpd::notes_switch_round_mapping
/// for the F^{f,$} accounting.
class Partial1pShareGenFunc final : public sim::IFunctionality {
 public:
  explicit Partial1pShareGenFunc(Partial1pParams params, mpc::NotesPtr notes = nullptr);

  std::vector<sim::Message> on_round(sim::FuncContext& ctx, int round,
                                     sim::MsgView in) override;

 private:
  Partial1pParams params_;
  mpc::NotesPtr notes_;
  bool fired_ = false;
};

/// One of the two exchange parties. Simultaneous schedule: after parsing its
/// streams the party sends its opening of iteration 1; each later round it
/// reconstructs the peer's opening j and (if j < p) sends its own opening
/// j+1 — a missing expected opening means the peer aborted, and the party
/// outputs the last value it reconstructed (the randomized-abort guarantee).
class Partial1pParty final : public sim::PartyBase<Partial1pParty> {
 public:
  Partial1pParty(sim::PartyId id, Partial1pParams params, Bytes input, Rng rng);

  std::vector<sim::Message> on_round(int round, sim::MsgView in) override;
  void on_abort() override;

  /// Adversary-visible state (the adversary owns corrupted parties), mirrors
  /// GkParty: used by adversary/partial_1p_attack.h.
  [[nodiscard]] const Bytes& last_value() const { return last_value_; }
  [[nodiscard]] std::size_t iteration() const { return j_; }
  [[nodiscard]] bool stream_started() const { return step_ == Step::kIterate; }

 private:
  enum class Step { kSendInput, kAwaitShares, kIterate };

  void finish_with_default();

  Partial1pParams params_;
  Bytes input_;
  Rng rng_;

  Step step_ = Step::kSendInput;
  std::size_t j_ = 1;  // iteration whose peer opening is awaited
  Bytes last_value_;   // fallback: the last reconstructed value
  std::shared_ptr<const GkStreams> streams_;  // set at kAwaitShares; shared by clones
};

/// Build the two exchange parties for inputs (x1, x2); pair with
/// Partial1pShareGenFunc.
std::vector<std::unique_ptr<sim::IParty>> make_partial_1p_parties(
    const Partial1pParams& params, const Bytes& x0, const Bytes& x1, Rng& rng);

}  // namespace fairsfe::fair
