// Additive (n-out-of-n) secret sharing over bytes (XOR) and over F_p.
//
// XOR sharing is the substrate of the GMW protocol (bit-level shares) and of
// the authenticated sharing in `auth_share.h`. Any n-1 shares are uniformly
// random and independent of the secret; all n XOR back to it.
#pragma once

#include <vector>

#include "crypto/bytes.h"
#include "crypto/field.h"

namespace fairsfe {

class Rng;

/// Split `secret` into `n` XOR-additive shares. Precondition: n >= 1.
std::vector<Bytes> xor_share(ByteView secret, std::size_t n, Rng& rng);
/// xor_share() written in place: `out` (n · |secret| bytes) receives the n
/// shares end to end. Same draws: shares 1..n-1 are the next keystream
/// bytes, share n closes the XOR.
void xor_share_into(ByteView secret, std::size_t n, Rng& rng, std::span<std::uint8_t> out);

/// Recombine XOR-additive shares. Precondition: all same length, non-empty.
Bytes xor_reconstruct(std::span<const ByteView> shares);

/// Split a field element into `n` additive shares over F_p.
std::vector<Fp> additive_share(Fp secret, std::size_t n, Rng& rng);

/// Recombine additive field shares.
Fp additive_reconstruct(const std::vector<Fp>& shares);

}  // namespace fairsfe
