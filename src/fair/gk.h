// The Gordon–Katz partially fair ("1/p-secure") two-party protocols
// [GK, Eurocrypt'10], analysed by the paper in Section 5 / Appendix C.
//
// Structure (ShareGen-hybrid): the functionality picks a switch round
// i* ~ Geometric(α) (truncated at the round cap) and prepares two value
// streams of authenticated sharings,
//     a_j = fake for j < i*, a_j = y for j ≥ i*   (delivered to p1),
//     b_j = fake for j < i*, b_j = y for j ≥ i*   (delivered to p2),
// plus unshared fallback values a_0 / b_0. Reconstruction alternates: in
// iteration j, p2 first opens a_j towards p1, then p1 opens b_j towards p2.
// On abort, a party outputs the last value it reconstructed — which is the
// randomized-abort guarantee F^{f,$}_sfe (Appendix C.2): an early abort
// replaces the honest output by a fresh fake draw.
//
// Variants: kPolyDomain fakes a_j = f(x1, ŷ) with ŷ uniform over p2's
// (polynomial-size) input domain, α = 1/(p·|Y|) (Theorem 23, O(p·|Y|)
// rounds); kPolyRange fakes uniform range elements, α = 1/(p²·|Z|)
// (Theorem 24, O(p²·|Z|) rounds).
//
// Utility shape (experiment E10): under ~γ = (0, 0, 1, 0) the best attacker
// aborts exactly at i* and earns ≤ 1/p.
#pragma once

#include <memory>
#include <vector>

#include "crypto/auth_share.h"
#include "crypto/rng.h"
#include "mpc/sfe_functionalities.h"
#include "sim/party.h"

namespace fairsfe::fair {

struct GkParams {
  enum class Variant { kPolyDomain, kPolyRange };

  mpc::SfeSpec spec;  ///< must be two-party
  std::size_t p = 2;  ///< the 1/p-security target
  Variant variant = Variant::kPolyDomain;
  std::function<Bytes(Rng&)> sample_x1;     ///< uniform element of p1's domain
  std::function<Bytes(Rng&)> sample_x2;     ///< uniform element of p2's domain
  std::function<Bytes(Rng&)> sample_range;  ///< uniform range element (kPolyRange)
  std::size_t domain_size = 2;  ///< |Y| (kPolyDomain) or |Z| (kPolyRange)
  std::size_t rounds = 0;       ///< explicit round cap; 0 = auto

  [[nodiscard]] double alpha() const;
  [[nodiscard]] std::size_t cap() const;
};

/// Ready-made parameters for the single-bit AND function (Section 5's
/// example; with p = 4 this is the "standard 1/4-secure protocol").
GkParams make_gk_and_params(std::size_t p);

/// One party's ShareGen delivery for the two-party 1/p protocols (GK here,
/// round sampling in fair/partial_1p.h), parsed once at kAwaitShares. The
/// wire format is u32 cap ‖ blob(fallback) ‖ cap × (blob(a_j half) ‖
/// blob(b_j half)), each half an AuthShare2::to_bytes. The body plus views
/// into it; immutable after parsing, so party clones share it.
struct GkStreams {
  Bytes body;
  ByteView fallback;                     ///< a_0 (p1) / b_0 (p2)
  std::vector<AuthShare2View> incoming;  ///< [j-1]: my half of the value I reconstruct
  std::vector<AuthShare2View> outgoing;  ///< [j-1]: my half of the value I open

  GkStreams() = default;
  GkStreams(const GkStreams&) = delete;  // the views point into this body
  GkStreams& operator=(const GkStreams&) = delete;

  [[nodiscard]] std::size_t rounds() const { return incoming.size(); }

  /// Parse the delivery body for party `id`: p1 (id 0) reads the a-stream
  /// and opens the b-stream, p2 vice versa. nullptr if any piece is
  /// malformed.
  static std::shared_ptr<const GkStreams> parse(sim::PartyId id, Bytes body);

  /// `from`'s opening of iteration j of its outgoing stream, addressed to the
  /// peer; empty when j is out of range.
  [[nodiscard]] std::vector<sim::Message> opening(sim::PartyId from, std::size_t j) const;

  /// The iteration-j value `me` reconstructs from the peer's opening in `in`;
  /// std::nullopt if the opening is missing or fails its MACs.
  [[nodiscard]] std::optional<Bytes> reconstruct(sim::PartyId me, std::size_t j,
                                                 sim::MsgView in) const;
};

/// The dealer step both two-party 1/p functionalities share: writes the
/// GkStreams deliveries for `rounds` iterations (fakes before i*, y from i*
/// on), runs the unfair abort gate (recording "phase1_aborted") and returns
/// the two deliveries. Draw order: a_0, b_0, then per iteration the fake a_j
/// and b_j (before i*) and the sharings of a_j and b_j.
std::vector<sim::Message> deal_gk_streams(sim::FuncContext& ctx, const mpc::NotesPtr& notes,
                                          std::size_t rounds, std::size_t i_star,
                                          const Bytes& y,
                                          const std::function<Bytes()>& fake_a,
                                          const std::function<Bytes()>& fake_b);

/// ShareGen functionality. Unfair abort gate. Records "y" (blob), "i_star".
class ShareGenFunc final : public sim::IFunctionality {
 public:
  explicit ShareGenFunc(GkParams params, mpc::NotesPtr notes = nullptr);

  std::vector<sim::Message> on_round(sim::FuncContext& ctx, int round,
                                     sim::MsgView in) override;

 private:
  GkParams params_;
  mpc::NotesPtr notes_;
  bool fired_ = false;
};

class GkParty final : public sim::PartyBase<GkParty> {
 public:
  GkParty(sim::PartyId id, GkParams params, Bytes input, Rng rng);

  std::vector<sim::Message> on_round(int round, sim::MsgView in) override;
  void on_abort() override;

  /// Adversary-visible state (the adversary owns corrupted parties): the last
  /// reconstructed value and the current iteration. Used by the GK attack
  /// strategies in src/adversary/gk_adversary.h.
  [[nodiscard]] const Bytes& last_value() const { return last_value_; }
  [[nodiscard]] std::size_t iteration() const { return j_; }
  [[nodiscard]] bool stream_started() const { return step_ == Step::kIterate; }

 private:
  enum class Step { kSendInput, kAwaitShares, kIterate };

  void finish_with_default();

  GkParams params_;
  Bytes input_;
  Rng rng_;

  Step step_ = Step::kSendInput;
  std::size_t j_ = 1;           // current iteration
  bool expecting_ = false;       // p1: waiting for a_j; p2: waiting for b_j
  Bytes last_value_;             // a_{j-1} / b_{j-1} fallback
  std::shared_ptr<const GkStreams> streams_;  // set at kAwaitShares; shared by clones
};

/// Build the two GK parties for inputs (x1, x2); pair with ShareGenFunc.
std::vector<std::unique_ptr<sim::IParty>> make_gk_parties(const GkParams& params,
                                                          const Bytes& x0, const Bytes& x1,
                                                          Rng& rng);

/// Wire helpers (shared with the Π̃ wrapper in fair/leaky_and.h). The
/// decoded opening is a view into `payload`.
Bytes encode_gk_opening(std::size_t j, ByteView opening);
std::optional<std::pair<std::size_t, ByteView>> decode_gk_opening(ByteView payload);

}  // namespace fairsfe::fair
