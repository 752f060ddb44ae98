// Authenticated two-out-of-two additive secret sharing — the scheme of the
// paper's Appendix A, instantiated with XOR-additive summands and the
// information-theoretic one-time MAC of `crypto/mac.h`.
//
// A sharing of secret s is a pair of summands (s₁, s₂) with
//     s₁ ⊕ s₂ = payload(s) := s ‖ tag(s, k₁) ‖ tag(s, k₂),
// where k₁, k₂ are MAC keys associated with p₁ and p₂. Party pᵢ holds
//     ⟨s⟩ᵢ = (sᵢ, tag(sᵢ, k₋ᵢ))  together with its own key kᵢ.
//
// Reconstruction towards pᵢ: p₋ᵢ sends its (summand, tag); pᵢ verifies the
// summand tag under kᵢ, recombines, and verifies the inner tag(s, kᵢ). Any
// tampering by the other party is detected except with probability ≤ ℓ/p.
#pragma once

#include <optional>

#include "crypto/bytes.h"
#include "crypto/mac.h"

namespace fairsfe {

class Rng;

/// One party's share of an authenticated 2-of-2 sharing.
// TAINT-SOURCE(share): a party's authenticated summand+tag; leaking it collapses the 2-party hiding property
struct AuthShare2 {
  Bytes summand;      ///< sᵢ
  Bytes summand_tag;  ///< tag(sᵢ, k₋ᵢ) — verifiable by the *other* party
  MacKey key;         ///< kᵢ — this party's verification key

  /// Wire format of the (summand, tag) pair sent during reconstruction.
  [[nodiscard]] Bytes opening_to_bytes() const;

  [[nodiscard]] Bytes to_bytes() const;
  static std::optional<AuthShare2> from_bytes(ByteView data);
};

/// An AuthShare2::to_bytes() record read in place: views into the record's
/// buffer, valid as long as that buffer is.
// TAINT-SOURCE(share): a view of a party's authenticated summand+tag
struct AuthShare2View {
  ByteView summand;
  ByteView summand_tag;
  /// The record's prefix blob(summand) ‖ blob(summand_tag), which is exactly
  /// AuthShare2::opening_to_bytes().
  ByteView opening;
  MacKey key;

  /// std::nullopt if the record is malformed.
  static std::optional<AuthShare2View> parse(ByteView record);
};

// TAINT-SOURCE(share): both halves of an authenticated sharing — strictly more secret than either share
struct AuthSharing2 {
  AuthShare2 share1;  ///< held by p₁
  AuthShare2 share2;  ///< held by p₂
};

/// Create an authenticated sharing of `secret`.
// TAINT-SOURCE(share): produces the full sharing of `secret`
AuthSharing2 auth_share2(ByteView secret, Rng& rng);

/// Size of a summand sᵢ for a `secret_size`-byte secret: that of the payload
/// blob(s) ‖ blob(tag) ‖ blob(tag).
constexpr std::size_t auth_share2_summand_size(std::size_t secret_size) {
  return kBlobPrefixSize + secret_size + 2 * (kBlobPrefixSize + kMacTagSize);
}

/// Size of one AuthShare2::to_bytes() record, blob(summand) ‖
/// blob(summand_tag) ‖ blob(key), for a `secret_size`-byte secret.
constexpr std::size_t auth_share2_record_size(std::size_t secret_size) {
  return 3 * kBlobPrefixSize + auth_share2_summand_size(secret_size) + kMacTagSize + kMacKeySize;
}

/// auth_share2() written in place: appends share1's to_bytes() record to `w1`
/// and share2's to `w2` (auth_share2_record_size(secret.size()) bytes each).
/// Same draws: k₁, k₂, then the summand keystream.
// TAINT-SOURCE(share): produces the full sharing of `secret`
void auth_share2_records(ByteView secret, Rng& rng, Writer& w1, Writer& w2);

/// Reconstruct towards the holder of `mine`, given the other party's opening
/// message (wire format of AuthShare2::opening_to_bytes). Returns the secret,
/// or std::nullopt if either MAC check fails (⇒ the receiver aborts).
std::optional<Bytes> auth_reconstruct2(const AuthShare2& mine, ByteView other_opening);
std::optional<Bytes> auth_reconstruct2(const AuthShare2View& mine, ByteView other_opening);

}  // namespace fairsfe
