#include "crypto/secret_sharing.h"

#include "crypto/rng.h"
#include "util/check.h"

namespace fairsfe {

std::vector<Bytes> xor_share(ByteView secret, std::size_t n, Rng& rng) {
  const std::size_t len = secret.size();
  Bytes flat(n * len);
  xor_share_into(secret, n, rng, flat);
  std::vector<Bytes> shares;
  shares.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto at = flat.begin() + static_cast<std::ptrdiff_t>(i * len);
    shares.emplace_back(at, at + static_cast<std::ptrdiff_t>(len));
  }
  return shares;
}

void xor_share_into(ByteView secret, std::size_t n, Rng& rng, std::span<std::uint8_t> out) {
  FAIRSFE_CHECK(n >= 1, "xor_share needs at least one share");
  const std::size_t len = secret.size();
  FAIRSFE_CHECK(out.size() == n * len, "xor_share_into: out must hold n shares");
  rng.fill(out.first((n - 1) * len));
  std::uint8_t* last = out.data() + (n - 1) * len;
  for (std::size_t k = 0; k < len; ++k) {
    std::uint8_t acc = secret[k];
    for (std::size_t i = 0; i + 1 < n; ++i) acc ^= out[i * len + k];
    last[k] = acc;
  }
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
