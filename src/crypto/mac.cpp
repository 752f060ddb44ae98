#include "crypto/mac.h"

#include <algorithm>

#include "crypto/rng.h"

namespace fairsfe {

MacKey MacKey::random(Rng& rng) {
  return MacKey{Fp::random(rng), Fp::random(rng)};
}

Bytes MacKey::to_bytes() const {
  Writer w;
  w.u64(a.value()).u64(b.value());
  return w.take();
}

std::optional<MacKey> MacKey::from_bytes(ByteView data) {
  Reader r(data);
  const auto av = r.u64();
  const auto bv = r.u64();
  if (!av || !bv || *av >= Fp::kP || *bv >= Fp::kP) return std::nullopt;
  return MacKey{Fp(*av), Fp(*bv)};
}

namespace {

// tag(m, k) folded over m's 7-byte limbs in place: the element sequence is
// exactly bytes_to_field(m) (length limb first), without materializing it.
Fp mac_fold(const MacKey& key, ByteView msg) {
  Fp apow = key.a;
  Fp acc = key.b + apow * Fp(static_cast<std::uint64_t>(msg.size()));
  for (std::size_t off = 0; off < msg.size(); off += 7) {
    const std::size_t end = std::min(off + 7, msg.size());
    std::uint64_t v = 0;
    for (std::size_t i = off; i < end; ++i) {
      v |= static_cast<std::uint64_t>(msg[i]) << (8 * (i - off));
    }
    apow *= key.a;
    acc += apow * Fp(v);
  }
  return acc;
}

}  // namespace

Bytes mac_tag(const MacKey& key, ByteView msg) {
  return fp_to_bytes(mac_fold(key, msg));
}

bool mac_verify(const MacKey& key, ByteView msg, ByteView tag) {
  const std::uint64_t v = mac_fold(key, msg).value();
  std::uint8_t expect[8];
  for (int i = 0; i < 8; ++i) expect[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return ct_equal(expect, tag);
}

}  // namespace fairsfe
