// Multi-party partial fairness — the Beimel–Lindell–Omri–Orlov extension of
// 1/p-security to n parties ([3] in the paper, CRYPTO'11), in the simplified
// one-stream form that preserves the headline shape.
//
// ShareGen picks i* ~ Geometric(α) and prepares values v_0, v_1, ..., v_r
// (fake draws before i*, the true y from i* on). Each v_j (j ≥ 1) is dealt
// as an n-of-n XOR sharing with hash commitments binding every summand.
// Reconstruction runs one broadcast round per j: all parties announce their
// round-j summands; if any share is missing or fails its commitment the
// protocol ends and everyone outputs the *last reconstructed* value — the
// randomized-abort guarantee of F^{f,$}, now multi-party.
//
// A rushing coalition reads the honest round-j summands before deciding
// whether to withhold its own, so it always holds v_j while honest parties
// hold v_{j-1}: the abort is unfair exactly when j = i*, and the truncated
// geometric keeps that probability at most ≈ 1/p for *any* coalition size
// 1 ≤ t ≤ n-1 (the full [3] construction additionally improves parameters
// below the 2n/3 corruption threshold — see DESIGN.md §6).
#pragma once

#include <memory>

#include "fair/gk.h"

namespace fairsfe::fair {

struct GkMultiParams {
  mpc::SfeSpec spec;  ///< n-party, global output
  std::size_t p = 2;
  /// Fresh uniform inputs for the fake draws v_j = f(sample()).
  std::function<std::vector<Bytes>(Rng&)> sample_inputs;
  std::size_t domain_size = 2;  ///< effective output-guessing domain
  std::size_t rounds = 0;       ///< 0 = auto cap

  [[nodiscard]] double alpha() const {
    return 1.0 / (static_cast<double>(p) * static_cast<double>(domain_size));
  }
  [[nodiscard]] std::size_t cap() const {
    return rounds != 0 ? rounds : static_cast<std::size_t>(8.0 / alpha()) + 1;
  }
};

/// n-party AND of single-bit inputs, the small-domain workload of E16.
GkMultiParams make_gk_multi_and_params(std::size_t n, std::size_t p);

/// The multi-party ShareGen functionality. Records "y", "i_star" into notes.
class MultiShareGenFunc final : public sim::IFunctionality {
 public:
  explicit MultiShareGenFunc(GkMultiParams params, mpc::NotesPtr notes = nullptr);

  std::vector<sim::Message> on_round(sim::FuncContext& ctx, int round,
                                     sim::MsgView in) override;

 private:
  GkMultiParams params_;
  mpc::NotesPtr notes_;
  bool fired_ = false;
};

class GkMultiParty final : public sim::PartyBase<GkMultiParty> {
 public:
  GkMultiParty(sim::PartyId id, GkMultiParams params, Bytes input, Rng rng);

  std::vector<sim::Message> on_round(int round, sim::MsgView in) override;
  void on_abort() override;

 private:
  enum class Step { kSendInput, kAwaitShares, kIterate };

  /// This party's ShareGen delivery, parsed once at kAwaitShares: the
  /// buffer plus views into it. Immutable, so clones share it.
  struct Dealt {
    Bytes body;
    std::size_t n = 0;
    ByteView fallback;  ///< v_0
    /// Per iteration j, n + 2 views: my XOR summand of v_j, its nonce, then
    /// the commitment of each party's round-j summand.
    std::vector<ByteView> views;

    Dealt() = default;
    Dealt(const Dealt&) = delete;  // the views point into this body
    Dealt& operator=(const Dealt&) = delete;

    [[nodiscard]] std::size_t rounds() const { return views.size() / (n + 2); }
    [[nodiscard]] ByteView summand(std::size_t j) const { return views[(j - 1) * (n + 2)]; }
    [[nodiscard]] ByteView nonce(std::size_t j) const { return views[(j - 1) * (n + 2) + 1]; }
    [[nodiscard]] ByteView hash(std::size_t j, std::size_t p) const {
      return views[(j - 1) * (n + 2) + 2 + p];
    }
    /// nullptr if any piece is malformed.
    static std::shared_ptr<const Dealt> parse(std::size_t n, Bytes body);
  };

  void finish_with_default();
  [[nodiscard]] std::vector<sim::Message> broadcast_share(std::size_t j) const;

  GkMultiParams params_;
  Bytes input_;
  Rng rng_;

  Step step_ = Step::kSendInput;
  std::size_t j_ = 1;
  Bytes last_value_;
  std::shared_ptr<const Dealt> dealt_;  // set at kAwaitShares; shared by clones
};

std::vector<std::unique_ptr<sim::IParty>> make_gk_multi_parties(
    const GkMultiParams& params, const std::vector<Bytes>& inputs, Rng& rng);

/// Round-j summand broadcast wire format. A decoded share views the payload.
Bytes encode_gk_multi_share(std::size_t j, ByteView summand, ByteView nonce);
struct GkMultiShare {
  std::size_t j = 0;
  ByteView summand;
  ByteView nonce;
};
std::optional<GkMultiShare> decode_gk_multi_share(ByteView payload);
/// The commitment binding a summand: H("gk-multi" ‖ j ‖ nonce ‖ summand).
Bytes gk_multi_share_hash(std::size_t j, ByteView nonce, ByteView summand);

}  // namespace fairsfe::fair
