// Tests for the F_{2^61-1} field, one-time MAC, commitments, RNG, and bytes.
#include <gtest/gtest.h>

#include "crypto/bytes.h"
#include "crypto/commitment.h"
#include "crypto/field.h"
#include "crypto/mac.h"
#include "crypto/rng.h"

namespace fairsfe {
namespace {

TEST(Bytes, HexRoundTrip) {
  const Bytes b = {0x00, 0xff, 0x10, 0xab};
  EXPECT_EQ(to_hex(b), "00ff10ab");
  EXPECT_EQ(from_hex("00ff10ab"), b);
  EXPECT_EQ(from_hex("0"), std::nullopt);
  EXPECT_EQ(from_hex("zz"), std::nullopt);
}

TEST(Bytes, WriterReaderRoundTrip) {
  Writer w;
  w.u8(7).u32(123456).u64(0xdeadbeefcafebabeULL).blob(bytes_of("hello")).str("world");
  Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u32(), 123456u);
  EXPECT_EQ(r.u64(), 0xdeadbeefcafebabeULL);
  EXPECT_EQ(r.blob(), bytes_of("hello"));
  EXPECT_EQ(r.str(), "world");
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, ReaderRejectsTruncation) {
  Writer w;
  w.blob(bytes_of("hello"));
  Bytes data = w.take();
  data.pop_back();
  Reader r(data);
  EXPECT_EQ(r.blob(), std::nullopt);
}

TEST(Bytes, BlobViewRejectsTruncatedLengthPrefix) {
  const Bytes data = {5, 0, 0};  // three of the four length bytes
  Reader r(data);
  EXPECT_FALSE(r.blob_view().has_value());
}

TEST(Bytes, BlobViewRejectsLengthPastEnd) {
  Writer w;
  w.u32(6).raw(bytes_of("hello"));
  Reader r(w.bytes());
  EXPECT_FALSE(r.blob_view().has_value());
}

TEST(Bytes, BlobViewZeroLength) {
  Writer w;
  w.blob(Bytes{});
  Reader r(w.bytes());
  const auto view = r.blob_view();
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(view->empty());
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, BlobViewAtEndAfterLastView) {
  Writer w;
  w.blob(bytes_of("ab")).blob(bytes_of("cde"));
  Reader r(w.bytes());
  ASSERT_TRUE(r.blob_view().has_value());
  EXPECT_FALSE(r.at_end());
  const auto last = r.blob_view();
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(Bytes(last->begin(), last->end()), bytes_of("cde"));
  EXPECT_TRUE(r.at_end());
  EXPECT_FALSE(r.blob_view().has_value());
}

TEST(Bytes, BlobViewEqualsBlob) {
  Rng rng(31);
  Writer w;
  w.blob(bytes_of("hello")).blob(rng.bytes(300)).blob(Bytes{});
  const Bytes data = w.take();
  Reader copies(data);
  Reader views(data);
  for (int i = 0; i < 3; ++i) {
    const auto blob = copies.blob();
    const auto view = views.blob_view();
    ASSERT_TRUE(blob.has_value() && view.has_value());
    EXPECT_EQ(*blob, Bytes(view->begin(), view->end()));
    // Zero-copy: the view points into the reader's buffer.
    EXPECT_TRUE(view->empty() || (view->data() >= data.data() &&
                                  view->data() + view->size() <= data.data() + data.size()));
  }
  EXPECT_TRUE(copies.at_end());
  EXPECT_TRUE(views.at_end());
}

TEST(Bytes, XorAndCtEqual) {
  const Bytes a = {1, 2, 3};
  const Bytes b = {3, 2, 1};
  EXPECT_EQ(xor_bytes(a, b), (Bytes{2, 0, 2}));
  EXPECT_TRUE(ct_equal(a, a));
  EXPECT_FALSE(ct_equal(a, b));
  EXPECT_FALSE(ct_equal(a, Bytes{1, 2}));
}

TEST(Field, BasicArithmetic) {
  const Fp a(5), b(7);
  EXPECT_EQ((a + b).value(), 12u);
  EXPECT_EQ((b - a).value(), 2u);
  EXPECT_EQ((a * b).value(), 35u);
  EXPECT_EQ((a - b).value(), Fp::kP - 2);
}

TEST(Field, ReductionAtModulus) {
  EXPECT_EQ(Fp(Fp::kP).value(), 0u);
  EXPECT_EQ(Fp(Fp::kP + 5).value(), 5u);
  EXPECT_EQ(Fp(~std::uint64_t{0}).value(), (~std::uint64_t{0}) % Fp::kP);
}

TEST(Field, MultiplicationLargeOperands) {
  const Fp a(Fp::kP - 1), b(Fp::kP - 2);
  // (p-1)(p-2) = p^2 - 3p + 2 ≡ 2 (mod p)
  EXPECT_EQ((a * b).value(), 2u);
}

TEST(Field, InverseProperty) {
  Rng rng(42);
  for (int i = 0; i < 200; ++i) {
    Fp x = Fp::random(rng);
    if (x == Fp()) continue;
    EXPECT_EQ(x * x.inverse(), Fp(1));
  }
}

TEST(Field, PowMatchesRepeatedMultiplication) {
  const Fp x(3);
  Fp acc(1);
  for (std::uint64_t e = 0; e < 20; ++e) {
    EXPECT_EQ(x.pow(e), acc);
    acc *= x;
  }
}

TEST(Field, BytesToFieldInjectiveFraming) {
  // Same content, different lengths must map to different limb vectors.
  const auto a = bytes_to_field(Bytes{0, 0});
  const auto b = bytes_to_field(Bytes{0, 0, 0});
  EXPECT_NE(a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin(),
                                               [](Fp x, Fp y) { return x == y; }),
            true);
}

TEST(Field, FpSerializationRoundTrip) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const Fp x = Fp::random(rng);
    EXPECT_EQ(fp_from_bytes(fp_to_bytes(x)), x);
  }
  // Non-canonical value (>= p) rejected.
  Writer w;
  w.u64(Fp::kP);
  EXPECT_EQ(fp_from_bytes(w.bytes()), std::nullopt);
}

TEST(Mac, TagVerifies) {
  Rng rng(3);
  const MacKey k = MacKey::random(rng);
  const Bytes msg = bytes_of("authenticated message");
  EXPECT_TRUE(mac_verify(k, msg, mac_tag(k, msg)));
}

TEST(Mac, RejectsModifiedMessage) {
  Rng rng(4);
  const MacKey k = MacKey::random(rng);
  const Bytes tag = mac_tag(k, bytes_of("msg"));
  EXPECT_FALSE(mac_verify(k, bytes_of("msh"), tag));
  EXPECT_FALSE(mac_verify(k, bytes_of("msg0"), tag));
}

TEST(Mac, RejectsWrongKey) {
  Rng rng(5);
  const MacKey k1 = MacKey::random(rng);
  const MacKey k2 = MacKey::random(rng);
  const Bytes msg = bytes_of("msg");
  EXPECT_FALSE(mac_verify(k2, msg, mac_tag(k1, msg)));
}

TEST(Mac, LengthExtensionDistinct) {
  // Messages that are prefixes of each other get different tags (framing limb).
  Rng rng(6);
  const MacKey k = MacKey::random(rng);
  EXPECT_NE(mac_tag(k, Bytes{1, 2, 3}), mac_tag(k, Bytes{1, 2, 3, 0}));
}

TEST(Mac, KeySerializationRoundTrip) {
  Rng rng(7);
  const MacKey k = MacKey::random(rng);
  const auto k2 = MacKey::from_bytes(k.to_bytes());
  ASSERT_TRUE(k2.has_value());
  EXPECT_EQ(k2->a, k.a);
  EXPECT_EQ(k2->b, k.b);
}

// Known-answer pins for the one-time MAC: tag hex for two fixed keys at the
// lengths around the 7-byte limb boundaries, the GK stream payload (29 bytes)
// and a multi-limb message. Any rewrite of mac_tag must reproduce them byte
// for byte — the GK-family goldens depend on every tag.
Bytes kat_message(std::size_t len) {
  Bytes m(len);
  for (std::size_t i = 0; i < len; ++i) m[i] = static_cast<std::uint8_t>(i * 131 + 7);
  return m;
}

TEST(MacKat, PinnedTags) {
  const MacKey k1{Fp(0x0123456789abcdefULL), Fp(0x1eedfacecafebeefULL)};
  const MacKey k2{Fp(Fp::kP - 1), Fp(0)};  // a = -1: alternating limb sum
  struct Case {
    std::size_t len;
    const char* tag_k1;
    const char* tag_k2;
  };
  const Case cases[] = {
      {0, "efbefecacefaed1e", "0000000000000000"},
      {1, "9606ab76f2ece208", "0600000000000000"},
      {6, "e9cf903da6f82a1e", "018a0d9013960000"},
      {7, "2f20cea0bda79316", "008a0d9013961900"},
      {8, "9a0a9370b86fac11", "63890d9013961900"},
      {13, "31a01f0f5bafce01", "5e6a6b6a6b6a1900"},
      {14, "8aa428d7eef94000", "5c6a6b6a6b6a6b1f"},
      {15, "f0159a45ad406509", "8c6a6b6a6b6a6b1f"},
      {29, "c6c0bb659cf77e1e", "13d5d6d4d6d4d61e"},
      {64, "b3758531b4e1d305", "d7dc61e367e96d00"},
  };
  for (const Case& c : cases) {
    const Bytes msg = kat_message(c.len);
    EXPECT_EQ(to_hex(mac_tag(k1, msg)), c.tag_k1) << "len " << c.len;
    EXPECT_EQ(to_hex(mac_tag(k2, msg)), c.tag_k2) << "len " << c.len;
    EXPECT_TRUE(mac_verify(k1, msg, *from_hex(c.tag_k1))) << "len " << c.len;
  }
}

TEST(MacKat, MatchesReferenceFoldOverBytesToField) {
  // The definition: tag = b + Σ_i a^i · m_i over bytes_to_field's elements.
  Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    const MacKey key = MacKey::random(rng);
    const Bytes msg = rng.bytes(static_cast<std::size_t>(rng.below(201)));
    Fp acc = key.b;
    Fp apow(1);
    for (const Fp m : bytes_to_field(msg)) {
      apow *= key.a;
      acc += apow * m;
    }
    EXPECT_EQ(mac_tag(key, msg), fp_to_bytes(acc)) << "len " << msg.size();
  }
}

TEST(MacKat, VerifyRejectsMalformedTags) {
  Rng rng(2025);
  const MacKey key = MacKey::random(rng);
  const Bytes msg = kat_message(29);
  const Bytes tag = mac_tag(key, msg);
  ASSERT_EQ(tag.size(), 8u);
  ASSERT_TRUE(mac_verify(key, msg, tag));
  EXPECT_FALSE(mac_verify(key, msg, ByteView(tag).first(7)));
  Bytes long_tag = tag;
  long_tag.push_back(0);
  EXPECT_FALSE(mac_verify(key, msg, long_tag));
  EXPECT_FALSE(mac_verify(key, msg, Bytes{}));
  for (std::size_t bit = 0; bit < 64; ++bit) {
    Bytes flipped = tag;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(mac_verify(key, msg, flipped)) << "tag bit " << bit;
  }
  Bytes flipped_msg = msg;
  flipped_msg[13] ^= 0x10;
  EXPECT_FALSE(mac_verify(key, flipped_msg, tag));
}

TEST(Commitment, OpensCorrectly) {
  Rng rng(8);
  const Bytes msg = bytes_of("the contract");
  const Commitment c = commit(msg, rng);
  EXPECT_TRUE(commit_verify(c.com, msg, c.opening));
}

TEST(Commitment, BindingToMessage) {
  Rng rng(9);
  const Commitment c = commit(bytes_of("yes"), rng);
  EXPECT_FALSE(commit_verify(c.com, bytes_of("no"), c.opening));
}

TEST(Commitment, HidingDistinctRandomness) {
  Rng rng(10);
  const Bytes msg = bytes_of("m");
  EXPECT_NE(commit(msg, rng).com, commit(msg, rng).com);
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  EXPECT_EQ(a.u64(), b.u64());
  EXPECT_EQ(a.bytes(16), b.bytes(16));
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  EXPECT_NE(a.u64(), b.u64());
}

TEST(Rng, ForkIndependence) {
  Rng root(77);
  Rng f1 = root.fork("parties");
  Rng f2 = root.fork("adversary");
  Rng f3 = root.fork("parties");  // same label, later counter: still distinct
  EXPECT_NE(f1.u64(), f2.u64());
  EXPECT_NE(f1.u64(), f3.u64());
}

TEST(Rng, BelowIsInRangeAndRoughlyUniform) {
  Rng rng(99);
  std::array<int, 10> counts{};
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = rng.below(10);
    ASSERT_LT(v, 10u);
    counts[v]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(100);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

}  // namespace
}  // namespace fairsfe
