// Byte pins for the dealers of the GK family and of ΠOptnSFE. Each test runs
// one ideal functionality (ShareGen, which leaky-AND also deals through, the
// round-sampling ShareGen, MultiShareGen, PrivOutput) on fixed inputs and a
// fixed seed and pins the SHA-256 of every delivery it emits, so a dealer that writes its
// share records in place must reproduce the old Writer-built payloads byte
// for byte, with the same Rng draw order. The expected digests were taken
// from the Writer-based dealers. AuthShareRecords.* checks the in-place
// record writer against auth_share2's owned shares directly.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "crypto/auth_share.h"
#include "crypto/lamport.h"
#include "crypto/mac.h"
#include "crypto/rng.h"
#include "crypto/sha256.h"
#include "fair/gk.h"
#include "fair/gk_multi.h"
#include "fair/optnsfe.h"
#include "fair/partial_1p.h"

namespace fairsfe::fair {
namespace {

using sim::Message;

class PinCtx final : public sim::FuncContext {
 public:
  PinCtx(int n, std::uint64_t seed) : n_(n), rng_(seed) {}
  [[nodiscard]] int n() const override { return n_; }
  Rng& rng() override { return rng_; }
  [[nodiscard]] const std::set<sim::PartyId>& corrupted() const override { return none_; }
  bool adversary_abort_gate(const std::vector<Message>& /*outputs*/) override { return false; }

 private:
  int n_;
  Rng rng_;
  std::set<sim::PartyId> none_;
};

/// SHA-256 over (recipient, payload) of every delivery, in emission order.
std::string delivery_digest(sim::IFunctionality& f, const std::vector<Bytes>& inputs,
                            std::uint64_t seed) {
  std::vector<Message> in;
  for (std::size_t p = 0; p < inputs.size(); ++p) {
    in.push_back(Message{static_cast<sim::PartyId>(p), sim::kFunc,
                         sim::encode_func_input(inputs[p])});
  }
  PinCtx ctx(static_cast<int>(inputs.size()), seed);
  Writer w;
  for (const Message& m : f.on_round(ctx, 1, in)) {
    w.u32(static_cast<std::uint32_t>(m.to)).blob(m.payload);
  }
  return to_hex(sha256(w.bytes()));
}

/// A two-party GK on 3-byte inputs (concatenation), so every dealt secret is
/// 6 bytes and the fakes draw three random bytes each.
GkParams concat_gk_params(GkParams::Variant variant) {
  GkParams params;
  params.spec = mpc::make_concat_spec(2, 3);
  params.p = 2;
  params.variant = variant;
  params.sample_x1 = [](Rng& rng) { return rng.bytes(3); };
  params.sample_x2 = [](Rng& rng) { return rng.bytes(3); };
  params.sample_range = [](Rng& rng) { return rng.bytes(6); };
  params.domain_size = 2;
  return params;
}

TEST(DealerPins, ShareGenAnd) {
  ShareGenFunc f(make_gk_and_params(4));
  EXPECT_EQ(delivery_digest(f, {{1}, {1}}, 11),
            "2e256a9d1d384b40fca6cadf89a8d7caf62d1c83c75445f90668cf715e9786dd");
}

TEST(DealerPins, ShareGenConcatPolyDomain) {
  ShareGenFunc f(concat_gk_params(GkParams::Variant::kPolyDomain));
  EXPECT_EQ(delivery_digest(f, {{1, 2, 3}, {4, 5, 6}}, 12),
            "9c8060e85d0f9ed14313f08a682bc8ac422506cd4e6fc5153b059abc082ae74f");
}

TEST(DealerPins, ShareGenConcatPolyRange) {
  ShareGenFunc f(concat_gk_params(GkParams::Variant::kPolyRange));
  EXPECT_EQ(delivery_digest(f, {{7, 8, 9}, {10, 11, 12}}, 13),
            "1e39dcb7168856321fe68b1e759aa4c40f13fc186fc38d30276056bd01060edf");
}

TEST(DealerPins, Partial1pShareGen) {
  Partial1pShareGenFunc f(make_partial_1p_and_params(6));
  EXPECT_EQ(delivery_digest(f, {{1}, {0}}, 14),
            "e911f69418d7a4890be185c47226f6ae1fc7c8bd7fd141bf78d1f93de6f35a6b");
}

TEST(DealerPins, MultiShareGenAnd) {
  MultiShareGenFunc f(make_gk_multi_and_params(4, 3));
  EXPECT_EQ(delivery_digest(f, {{1}, {1}, {1}, {1}}, 16),
            "05548126a26cafa9198707ddd86be26be30d2ef5352206da1a39710cda84919d");
}

TEST(DealerPins, MultiShareGenConcat) {
  GkMultiParams params;
  params.spec = mpc::make_concat_spec(3, 2);
  params.p = 2;
  params.sample_inputs = [](Rng& rng) {
    return std::vector<Bytes>{rng.bytes(2), rng.bytes(2), rng.bytes(2)};
  };
  MultiShareGenFunc f(params);
  EXPECT_EQ(delivery_digest(f, {{1, 2}, {3, 4}, {5, 6}}, 17),
            "63be229e2c7589cd12128f9707c0597fa5fcf47e902dbcad34fc065378ac221d");
}

TEST(DealerPins, PrivOutput) {
  PrivOutputFunc f3(mpc::make_concat_spec(3, 2));
  EXPECT_EQ(delivery_digest(f3, {{1, 2}, {3, 4}, {5, 6}}, 18),
            "290d8257ef4dfb5b13f5b6f26a904aeceaafb08311770204954187339cea95f0");
  PrivOutputFunc f5(mpc::make_max_spec(5));
  EXPECT_EQ(delivery_digest(f5, {{9}, {3}, {200}, {0}, {17}}, 19),
            "58274badd95237469e4ff5aa952845b9c236a62dd330ba60aaf348237c3f620d");
}

TEST(DealerPins, LamportGen) {
  const char* const expect[] = {
      "9970b5d18df2f56c9ab94412ef04fec7a3f795354d2058146b85aad5b6e5bbb7",
      "d642164272bb92386748c63930bef7b8f420f7e11fd8a6e91274259bbdee6e0f"};
  for (std::uint64_t seed : {1u, 2u}) {
    Rng rng(seed);
    const LamportKeyPair kp = lamport_gen(rng);
    Writer w;
    w.blob(kp.signing_key).blob(kp.verification_key).raw(rng.bytes(8));
    EXPECT_EQ(to_hex(sha256(w.bytes())), expect[seed - 1]) << "seed " << seed;
  }
}

TEST(DealerPins, AuthShare2) {
  Rng rng(20);
  Writer w;
  for (std::size_t len = 0; len <= 40; ++len) {
    const Bytes secret = rng.bytes(len);
    const AuthSharing2 sh = auth_share2(secret, rng);
    w.blob(sh.share1.to_bytes()).blob(sh.share2.to_bytes());
  }
  w.raw(rng.bytes(8));  // the draws after the last sharing line up too
  EXPECT_EQ(to_hex(sha256(w.bytes())),
            "77fce132d9955baf83bbbf7728ef96c36a4ea987799bb3d06ba1c84a0fb806bc");
}

/// auth_share2 as the Writer-based dealer computed it, from the primitives:
/// k1, k2, then one keystream draw s1, s2 = payload ⊕ s1, each summand
/// tagged under the other party's key.
AuthSharing2 reference_sharing(ByteView secret, Rng& rng) {
  AuthSharing2 out;
  out.share1.key = MacKey::random(rng);
  out.share2.key = MacKey::random(rng);
  Writer payload;
  payload.blob(secret)
      .blob(mac_tag(out.share1.key, secret))
      .blob(mac_tag(out.share2.key, secret));
  out.share1.summand = rng.bytes(payload.bytes().size());
  out.share2.summand = xor_bytes(payload.bytes(), out.share1.summand);
  out.share1.summand_tag = mac_tag(out.share2.key, out.share1.summand);
  out.share2.summand_tag = mac_tag(out.share1.key, out.share2.summand);
  return out;
}

TEST(AuthShareRecords, MatchTheOwnedSharesWithTheSameDraws) {
  for (std::size_t len = 0; len <= 40; ++len) {
    const Bytes secret = Rng(len).bytes(len);
    Rng ref_rng(500 + len), owned_rng(500 + len), rec_rng(500 + len);
    const AuthSharing2 ref = reference_sharing(secret, ref_rng);
    const AuthSharing2 owned = auth_share2(secret, owned_rng);
    // The records are appended after whatever the writers already hold.
    Writer w1, w2;
    w1.u32(7);
    auth_share2_records(secret, rec_rng, w1, w2);
    ASSERT_EQ(w1.bytes().size(), 4 + auth_share2_record_size(len)) << "len " << len;
    const Bytes rec1(w1.bytes().begin() + 4, w1.bytes().end());
    const Bytes& rec2 = w2.bytes();
    EXPECT_EQ(rec1, ref.share1.to_bytes()) << "len " << len;
    EXPECT_EQ(rec2, ref.share2.to_bytes()) << "len " << len;
    EXPECT_EQ(owned.share1.to_bytes(), rec1) << "len " << len;
    EXPECT_EQ(owned.share2.to_bytes(), rec2) << "len " << len;
    const std::uint64_t next = ref_rng.u64();
    EXPECT_EQ(owned_rng.u64(), next) << "len " << len;
    EXPECT_EQ(rec_rng.u64(), next) << "len " << len;
  }
}

TEST(AuthShareRecords, ViewsReadTheRecordInPlace) {
  Rng rng(31);
  const Bytes secret = bytes_of("in place");
  Writer w1, w2;
  auth_share2_records(secret, rng, w1, w2);
  const Bytes rec1 = w1.take(), rec2 = w2.take();
  const auto v1 = AuthShare2View::parse(rec1);
  const auto v2 = AuthShare2View::parse(rec2);
  const auto s1 = AuthShare2::from_bytes(rec1);
  ASSERT_TRUE(v1 && v2 && s1);
  EXPECT_EQ(v1->summand.data(), rec1.data() + 4);
  EXPECT_EQ(v1->opening.data(), rec1.data());
  EXPECT_EQ(Bytes(v1->opening.begin(), v1->opening.end()), s1->opening_to_bytes());
  EXPECT_EQ(Bytes(v1->summand.begin(), v1->summand.end()), s1->summand);
  EXPECT_EQ(Bytes(v1->summand_tag.begin(), v1->summand_tag.end()), s1->summand_tag);
  EXPECT_EQ(v1->key.a, s1->key.a);
  EXPECT_EQ(v1->key.b, s1->key.b);
  // Either half reconstructs from the other's opening, through the view and
  // through the owned share alike.
  EXPECT_EQ(auth_reconstruct2(*v1, v2->opening), secret);
  EXPECT_EQ(auth_reconstruct2(*s1, v2->opening), secret);
  EXPECT_EQ(auth_reconstruct2(*v2, v1->opening), secret);
  // Truncated or overlong records do not parse.
  EXPECT_FALSE(AuthShare2View::parse(ByteView(rec1).first(rec1.size() - 1)));
  Bytes longer = rec1;
  longer.push_back(0);
  EXPECT_FALSE(AuthShare2View::parse(longer));
}

}  // namespace
}  // namespace fairsfe::fair
