#include "crypto/secret_sharing.h"

#include "crypto/rng.h"
#include "util/check.h"

namespace fairsfe {

std::vector<Bytes> xor_share(ByteView secret, std::size_t n, Rng& rng) {
  FAIRSFE_CHECK(n >= 1, "xor_share needs at least one share");
  std::vector<Bytes> shares;
  shares.reserve(n);
  Bytes acc(secret.begin(), secret.end());
  for (std::size_t i = 0; i + 1 < n; ++i) {
    Bytes r = rng.bytes(secret.size());
    acc = xor_bytes(acc, r);
    shares.push_back(std::move(r));
  }
  shares.push_back(std::move(acc));
  return shares;
}

Bytes xor_reconstruct(std::span<const ByteView> shares) {
  FAIRSFE_CHECK(!shares.empty(), "xor_reconstruct over zero shares");
  Bytes acc(shares.front().begin(), shares.front().end());
  for (std::size_t i = 1; i < shares.size(); ++i) {
    FAIRSFE_CHECK(shares[i].size() == acc.size(),
                  "xor_reconstruct: share length mismatch");
    for (std::size_t k = 0; k < acc.size(); ++k) acc[k] ^= shares[i][k];
  }
  return acc;
}

std::vector<Fp> additive_share(Fp secret, std::size_t n, Rng& rng) {
  FAIRSFE_CHECK(n >= 1, "additive_share needs at least one share");
  std::vector<Fp> shares;
  shares.reserve(n);
  Fp acc = secret;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const Fp r = Fp::random(rng);
    acc -= r;
    shares.push_back(r);
  }
  shares.push_back(acc);
  return shares;
}

Fp additive_reconstruct(const std::vector<Fp>& shares) {
  Fp acc;
  for (const Fp s : shares) acc += s;
  return acc;
}

}  // namespace fairsfe
