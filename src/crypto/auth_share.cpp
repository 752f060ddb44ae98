#include "crypto/auth_share.h"

#include <array>

#include "crypto/rng.h"
#include "util/check.h"

namespace fairsfe {

Bytes AuthShare2::opening_to_bytes() const {
  Writer w;
  w.blob(summand).blob(summand_tag);
  return w.take();
}

Bytes AuthShare2::to_bytes() const {
  Writer w;
  w.blob(summand).blob(summand_tag).blob(key.to_bytes());
  return w.take();
}

std::optional<AuthShare2View> AuthShare2View::parse(ByteView record) {
  Reader r(record);
  const auto summand = r.blob_view();
  const auto tag = r.blob_view();
  const std::size_t opening_size = record.size() - r.remaining();
  const auto key_bytes = r.blob_view();
  if (!summand || !tag || !key_bytes || !r.at_end()) return std::nullopt;
  const auto key = MacKey::from_bytes(*key_bytes);
  if (!key) return std::nullopt;
  return AuthShare2View{*summand, *tag, record.first(opening_size), *key};
}

std::optional<AuthShare2> AuthShare2::from_bytes(ByteView data) {
  const auto v = AuthShare2View::parse(data);
  if (!v) return std::nullopt;
  return AuthShare2{Bytes(v->summand.begin(), v->summand.end()),
                    Bytes(v->summand_tag.begin(), v->summand_tag.end()), v->key};
}

void auth_share2_records(ByteView secret, Rng& rng, Writer& w1, Writer& w2) {
  const std::size_t start1 = w1.bytes().size();
  const std::size_t start2 = w2.bytes().size();
  const MacKey k1 = MacKey::random(rng);
  const MacKey k2 = MacKey::random(rng);
  std::array<std::uint8_t, kMacTagSize> tag{};

  // s₂'s blob first holds payload(s) = blob(s) ‖ blob(tag(s, k₁)) ‖
  // blob(tag(s, k₂)), then payload ⊕ s₁ (xor_share with two shares: s₁ is the
  // one draw).
  const std::size_t m = auth_share2_summand_size(secret.size());
  w2.u32(static_cast<std::uint32_t>(m)).blob(secret);
  for (const MacKey* k : {&k1, &k2}) {
    mac_tag_into(*k, secret, tag);
    w2.blob(tag);
  }
  const std::span<std::uint8_t> s2 = w2.tail(m);
  const std::span<std::uint8_t> s1 = w1.blob_slot(m);
  rng.fill(s1);
  for (std::size_t i = 0; i < m; ++i) s2[i] ^= s1[i];

  // Each summand is authenticated under the *other* party's key so the
  // receiver of an opening can verify it.
  mac_tag_into(k2, s1, tag);
  w1.blob(tag).u32(kMacKeySize);
  k1.write(w1);
  mac_tag_into(k1, s2, tag);
  w2.blob(tag).u32(kMacKeySize);
  k2.write(w2);
  FAIRSFE_CHECK(w1.bytes().size() - start1 == auth_share2_record_size(secret.size()) &&
                    w2.bytes().size() - start2 == auth_share2_record_size(secret.size()),
                "auth_share2_records: record size drifted from auth_share2_record_size");
}

AuthSharing2 auth_share2(ByteView secret, Rng& rng) {
  const std::size_t size = auth_share2_record_size(secret.size());
  Writer w1(size), w2(size);
  auth_share2_records(secret, rng, w1, w2);
  auto share1 = AuthShare2::from_bytes(w1.bytes());
  auto share2 = AuthShare2::from_bytes(w2.bytes());
  FAIRSFE_CHECK(share1 && share2, "auth_share2: dealt records must parse");
  return AuthSharing2{std::move(*share1), std::move(*share2)};
}

std::optional<Bytes> auth_reconstruct2(const AuthShare2& mine, ByteView other_opening) {
  return auth_reconstruct2(AuthShare2View{mine.summand, mine.summand_tag, {}, mine.key},
                           other_opening);
}

std::optional<Bytes> auth_reconstruct2(const AuthShare2View& mine, ByteView other_opening) {
  Reader r(other_opening);
  const auto other_summand = r.blob_view();
  const auto other_tag = r.blob_view();
  if (!other_summand || !other_tag || !r.at_end()) return std::nullopt;
  if (!mac_verify(mine.key, *other_summand, *other_tag)) return std::nullopt;
  if (other_summand->size() != mine.summand.size()) return std::nullopt;

  const Bytes payload = xor_bytes(mine.summand, *other_summand);
  Reader pr(payload);
  const auto secret = pr.blob_view();
  const auto tag1 = pr.blob_view();
  const auto tag2 = pr.blob_view();
  if (!secret || !tag1 || !tag2 || !pr.at_end()) return std::nullopt;
  // Verify the inner tag under our own key. We do not know whether we are p₁
  // or p₂ in the sharing, so accept if our key verifies either inner tag;
  // under an honest dealer exactly one of them is ours.
  if (!mac_verify(mine.key, *secret, *tag1) && !mac_verify(mine.key, *secret, *tag2)) {
    return std::nullopt;
  }
  return Bytes(secret->begin(), secret->end());
}

}  // namespace fairsfe
