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

/// Recombine XOR-additive shares. Precondition: all same length, non-empty.
Bytes xor_reconstruct(std::span<const ByteView> shares);

/// Split a field element into `n` additive shares over F_p.
std::vector<Fp> additive_share(Fp secret, std::size_t n, Rng& rng);

/// Recombine additive field shares.
Fp additive_reconstruct(const std::vector<Fp>& shares);

}  // namespace fairsfe
