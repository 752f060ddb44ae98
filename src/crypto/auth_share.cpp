#include "crypto/auth_share.h"

#include "crypto/rng.h"
#include "crypto/secret_sharing.h"
#include "util/check.h"

namespace fairsfe {

namespace {
Bytes make_payload(ByteView secret, const MacKey& k1, const MacKey& k2) {
  Writer w;
  w.blob(secret).blob(mac_tag(k1, secret)).blob(mac_tag(k2, secret));
  return w.take();
}
}  // namespace

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

std::optional<AuthShare2> AuthShare2::from_bytes(ByteView data) {
  Reader r(data);
  const auto summand = r.blob_view();
  const auto tag = r.blob_view();
  const auto key_bytes = r.blob_view();
  if (!summand || !tag || !key_bytes || !r.at_end()) return std::nullopt;
  const auto key = MacKey::from_bytes(*key_bytes);
  if (!key) return std::nullopt;
  return AuthShare2{Bytes(summand->begin(), summand->end()), Bytes(tag->begin(), tag->end()),
                    *key};
}

AuthSharing2 auth_share2(ByteView secret, Rng& rng) {
  AuthSharing2 out;
  out.share1.key = MacKey::random(rng);
  out.share2.key = MacKey::random(rng);
  const Bytes payload = make_payload(secret, out.share1.key, out.share2.key);
  const std::vector<Bytes> summands = xor_share(payload, 2, rng);
  FAIRSFE_CHECK(summands.size() == 2, "auth_share2: sharing must yield 2 summands");
  out.share1.summand = summands[0];
  out.share2.summand = summands[1];
  // Each summand is authenticated under the *other* party's key so the
  // receiver of an opening can verify it.
  out.share1.summand_tag = mac_tag(out.share2.key, out.share1.summand);
  out.share2.summand_tag = mac_tag(out.share1.key, out.share2.summand);
  return out;
}

std::optional<Bytes> auth_reconstruct2(const AuthShare2& mine, ByteView other_opening) {
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
