#include "crypto/mac.h"

#include <algorithm>
#include <array>

#include "crypto/rng.h"

namespace fairsfe {

MacKey MacKey::random(Rng& rng) {
  return MacKey{Fp::random(rng), Fp::random(rng)};
}

Bytes MacKey::to_bytes() const {
  Writer w(kMacKeySize);
  write(w);
  return w.take();
}

void MacKey::write(Writer& w) const { w.u64(a.value()).u64(b.value()); }

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
  Bytes tag(kMacTagSize);
  mac_tag_into(key, msg, std::span<std::uint8_t, kMacTagSize>(tag.data(), kMacTagSize));
  return tag;
}

void mac_tag_into(const MacKey& key, ByteView msg, std::span<std::uint8_t, kMacTagSize> out) {
  store_le(out.data(), mac_fold(key, msg).value(), kMacTagSize);  // fp_to_bytes: u64 LE
}

bool mac_verify(const MacKey& key, ByteView msg, ByteView tag) {
  std::array<std::uint8_t, kMacTagSize> expect{};
  mac_tag_into(key, msg, expect);
  return ct_equal(expect, tag);
}

}  // namespace fairsfe
