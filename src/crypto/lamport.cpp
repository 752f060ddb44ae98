#include "crypto/lamport.h"

#include <algorithm>

#include "crypto/rng.h"
#include "crypto/sha256.h"

namespace fairsfe {

namespace {
constexpr std::size_t kBits = 256;
constexpr std::size_t kChunk = 32;
constexpr std::size_t kKeyBytes = 2 * kBits * kChunk;

inline ByteView slice(ByteView data, std::size_t index) {
  return data.subspan(index * kChunk, kChunk);
}

using Digest = std::array<std::uint8_t, Sha256::kDigestSize>;

inline Digest hash(ByteView data) {
  Digest d{};
  Sha256().update(data).finish(d);
  return d;
}

inline int msg_bit(const Digest& digest, std::size_t i) {
  return (digest[i / 8] >> (i % 8)) & 1;
}
}  // namespace

LamportKeyPair lamport_gen(Rng& rng) {
  static_assert(kChunk == Sha256::kDigestSize, "vk chunks are digests");
  LamportKeyPair kp;
  kp.signing_key = rng.bytes(kKeyBytes);
  kp.verification_key.resize(kKeyBytes);
  for (std::size_t i = 0; i < 2 * kBits; ++i) {
    const std::span<std::uint8_t, kChunk> vk(kp.verification_key.data() + i * kChunk, kChunk);
    Sha256::digest32(kp.signing_key.data() + i * kChunk, vk);
  }
  return kp;
}

Bytes lamport_sign(const Bytes& signing_key, ByteView msg) {
  const Digest digest = hash(msg);
  Bytes sig;
  sig.reserve(kBits * kChunk);
  for (std::size_t i = 0; i < kBits; ++i) {
    const std::size_t idx = 2 * i + static_cast<std::size_t>(msg_bit(digest, i));
    const ByteView pre = slice(signing_key, idx);
    sig.insert(sig.end(), pre.begin(), pre.end());
  }
  return sig;
}

bool lamport_verify(ByteView verification_key, ByteView msg, ByteView sig) {
  if (verification_key.size() != kKeyBytes || sig.size() != kBits * kChunk) return false;
  const Digest digest = hash(msg);
  for (std::size_t i = 0; i < kBits; ++i) {
    const std::size_t idx = 2 * i + static_cast<std::size_t>(msg_bit(digest, i));
    Digest h{};
    Sha256::digest32(sig.data() + i * kChunk, h);
    if (!ct_equal(h, slice(verification_key, idx))) return false;
  }
  return true;
}

bool LamportVerifier::verify(ByteView verification_key, ByteView msg, ByteView sig) {
  // A plain compare, not ct_equal: a verifier holds nothing secret.
  if (cached_ && std::ranges::equal(sig, sig_) && std::ranges::equal(msg, msg_) &&
      std::ranges::equal(verification_key, vk_)) {
    return true;
  }
  if (!lamport_verify(verification_key, msg, sig)) return false;
  vk_.assign(verification_key.begin(), verification_key.end());
  msg_.assign(msg.begin(), msg.end());
  sig_.assign(sig.begin(), sig.end());
  cached_ = true;
  return true;
}

}  // namespace fairsfe
