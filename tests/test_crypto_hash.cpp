// Known-answer and property tests for SHA-256, HMAC-SHA256, ChaCha20, and
// the Rng's counter-based stream derivation.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "crypto/bytes.h"
#include "crypto/chacha20.h"
#include "crypto/hmac.h"
#include "crypto/rng.h"
#include "crypto/sha256.h"

namespace fairsfe {
namespace {

TEST(Sha256, EmptyStringVector) {
  EXPECT_EQ(to_hex(sha256(Bytes{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, AbcVector) {
  EXPECT_EQ(to_hex(sha256(bytes_of("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockVector) {
  EXPECT_EQ(to_hex(sha256(bytes_of(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const Bytes msg = bytes_of("the quick brown fox jumps over the lazy dog");
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(ByteView(msg).subspan(0, split));
    h.update(ByteView(msg).subspan(split));
    EXPECT_EQ(h.finish(), sha256(msg)) << "split at " << split;
  }
}

TEST(Sha256, LengthBoundaryPadding) {
  // Exercise message lengths around the 55/56/64-byte padding boundaries.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const Bytes msg(len, 0x41);
    Sha256 a;
    for (std::size_t i = 0; i < len; ++i) a.update(ByteView(&msg[i], 1));
    EXPECT_EQ(a.finish(), sha256(msg)) << "len " << len;
  }
}

TEST(Sha256, Digest32MatchesIncremental) {
  Rng rng(32);
  std::vector<Bytes> inputs{Bytes(32, 0x00), Bytes(32, 0xff)};
  for (int i = 0; i < 1024; ++i) inputs.push_back(rng.bytes(32));
  for (const Bytes& in : inputs) {
    std::array<std::uint8_t, Sha256::kDigestSize> d;
    Sha256::digest32(in.data(), d);
    EXPECT_EQ(Bytes(d.begin(), d.end()), sha256(in)) << to_hex(in);
  }
}

TEST(Sha256, Digest32KnownAnswer) {
  const Bytes zeros(32, 0x00);
  std::array<std::uint8_t, Sha256::kDigestSize> d;
  Sha256::digest32(zeros.data(), d);
  EXPECT_EQ(to_hex(Bytes(d.begin(), d.end())),
            "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925");
}

TEST(Sha256, LabeledHashDomainSeparation) {
  const Bytes d = bytes_of("data");
  EXPECT_NE(sha256_labeled("a", d), sha256_labeled("b", d));
  EXPECT_NE(sha256_labeled("a", d), sha256(d));
}

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha256(key, bytes_of("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(to_hex(hmac_sha256(bytes_of("Jefe"),
                               bytes_of("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes msg(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231LongKey) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(to_hex(hmac_sha256(
                key, bytes_of("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, VerifyAcceptsAndRejects) {
  const Bytes key = bytes_of("k");
  const Bytes msg = bytes_of("m");
  Bytes tag = hmac_sha256(key, msg);
  EXPECT_TRUE(hmac_verify(key, msg, tag));
  tag[0] ^= 1;
  EXPECT_FALSE(hmac_verify(key, msg, tag));
  EXPECT_FALSE(hmac_verify(key, bytes_of("m2"), hmac_sha256(key, msg)));
}

TEST(ChaCha20, Rfc8439KeystreamVector) {
  // RFC 8439 §2.4.2 test vector: key = 00..1f, nonce = 000000000000004a00000000,
  // counter = 1.
  Bytes key(32);
  for (int i = 0; i < 32; ++i) key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  Bytes nonce = *from_hex("000000000000004a00000000");
  ChaCha20 c(key, nonce, 1);
  const Bytes ks = c.keystream(64);
  EXPECT_EQ(to_hex(ByteView(ks).subspan(0, 16)), "224f51f3401bd9e12fde276fb8631ded");
}

TEST(ChaCha20, ProcessIsInvolution) {
  const Bytes key(32, 7);
  const Bytes nonce(12, 9);
  const Bytes msg = bytes_of("attack at dawn");
  ChaCha20 enc(key, nonce);
  ChaCha20 dec(key, nonce);
  EXPECT_EQ(dec.process(enc.process(msg)), msg);
}

TEST(ChaCha20, DifferentKeysDiffer) {
  const Bytes k1(32, 1), k2(32, 2), nonce(12, 0);
  EXPECT_NE(ChaCha20(k1, nonce).keystream(32), ChaCha20(k2, nonce).keystream(32));
}

TEST(RngForkAt, StableAndIndependentOfCallOrder) {
  // fork_at is a pure function of (seed, label, index): re-derivation gives
  // the same stream, and deriving in any order gives the same streams.
  Rng a(7), b(7);
  EXPECT_EQ(a.fork_at("run", 3).bytes(16), b.fork_at("run", 3).bytes(16));
  Rng c(7);
  const Bytes second = c.fork_at("run", 1).bytes(16);
  const Bytes first = c.fork_at("run", 0).bytes(16);
  Rng d(7);
  EXPECT_EQ(d.fork_at("run", 0).bytes(16), first);
  EXPECT_EQ(d.fork_at("run", 1).bytes(16), second);
}

TEST(RngForkAt, DistinctIndicesAndLabelsAreIndependent) {
  const Rng r(99);
  EXPECT_NE(r.fork_at("run", 0).bytes(32), r.fork_at("run", 1).bytes(32));
  EXPECT_NE(r.fork_at("run", 0).bytes(32), r.fork_at("setup", 0).bytes(32));
  // Different seeds diverge too.
  EXPECT_NE(Rng(1).fork_at("run", 0).bytes(32), Rng(2).fork_at("run", 0).bytes(32));
}

TEST(RngForkAt, MatchesSequentialForkSequence) {
  // On a fresh Rng, the i-th sequential fork(label) and fork_at(label, i)
  // derive the same key — the property the parallel estimator relies on to
  // reproduce the historical sequential run streams.
  Rng sequential(42);
  std::vector<Bytes> forked;
  for (int i = 0; i < 5; ++i) forked.push_back(sequential.fork("run").bytes(16));
  const Rng counter_based(42);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(counter_based.fork_at("run", static_cast<std::uint64_t>(i)).bytes(16),
              forked[static_cast<std::size_t>(i)])
        << "index " << i;
  }
}

TEST(RngForkAt, DoesNotPerturbTheParent) {
  // fork_at neither consumes keystream nor advances the fork counter.
  Rng a(5), b(5);
  (void)a.fork_at("probe", 0);
  (void)a.fork_at("probe", 1);
  EXPECT_EQ(a.bytes(16), b.bytes(16));
  EXPECT_EQ(a.fork("next").bytes(16), b.fork("next").bytes(16));
}

TEST(ChaCha20, ChunkedKeystreamMatches) {
  const Bytes key(32, 5), nonce(12, 6);
  ChaCha20 a(key, nonce);
  ChaCha20 b(key, nonce);
  Bytes chunked;
  for (std::size_t n : {1u, 7u, 64u, 13u, 128u, 3u}) {
    const Bytes part = a.keystream(n);
    chunked.insert(chunked.end(), part.begin(), part.end());
  }
  EXPECT_EQ(chunked, b.keystream(chunked.size()));
}

// --- Keystream equivalence -------------------------------------------------
//
// ChaCha20 computes the first ChaCha20::kScalarRefills blocks of a stream one
// at a time and every later refill as a batch of ChaCha20::kBatchBlocks
// blocks, and fill() writes whole batches straight into the caller's buffer. The tests below compare every
// entry point against this one-block-at-a-time reference of RFC 8439 §2.3,
// written independently of src/crypto.

std::uint32_t ref_rotl(std::uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

void ref_qr(std::uint32_t* s, int a, int b, int c, int d) {
  s[a] += s[b]; s[d] = ref_rotl(s[d] ^ s[a], 16);
  s[c] += s[d]; s[b] = ref_rotl(s[b] ^ s[c], 12);
  s[a] += s[b]; s[d] = ref_rotl(s[d] ^ s[a], 8);
  s[c] += s[d]; s[b] = ref_rotl(s[b] ^ s[c], 7);
}

Bytes ref_block(const Bytes& key, const Bytes& nonce, std::uint32_t counter) {
  const auto le = [](const std::uint8_t* p) {
    return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 | std::uint32_t{p[2]} << 16 |
           std::uint32_t{p[3]} << 24;
  };
  std::uint32_t init[16] = {0x61707865, 0x3320646e, 0x79622d32, 0x6b206574};
  for (int i = 0; i < 8; ++i) init[4 + i] = le(&key[4 * static_cast<std::size_t>(i)]);
  init[12] = counter;
  for (int i = 0; i < 3; ++i) init[13 + i] = le(&nonce[4 * static_cast<std::size_t>(i)]);
  std::uint32_t s[16];
  std::copy(init, init + 16, s);
  for (int i = 0; i < 10; ++i) {
    ref_qr(s, 0, 4, 8, 12); ref_qr(s, 1, 5, 9, 13); ref_qr(s, 2, 6, 10, 14);
    ref_qr(s, 3, 7, 11, 15); ref_qr(s, 0, 5, 10, 15); ref_qr(s, 1, 6, 11, 12);
    ref_qr(s, 2, 7, 8, 13); ref_qr(s, 3, 4, 9, 14);
  }
  Bytes out(64);
  for (std::size_t i = 0; i < 16; ++i) {
    const std::uint32_t v = s[i] + init[i];
    for (std::size_t b = 0; b < 4; ++b) out[4 * i + b] = static_cast<std::uint8_t>(v >> (8 * b));
  }
  return out;
}

/// The first n keystream bytes from `counter` on; the 32-bit block counter
/// wraps and the nonce never changes, as in RFC 8439.
Bytes ref_keystream(const Bytes& key, const Bytes& nonce, std::uint32_t counter,
                    std::size_t n) {
  Bytes out;
  for (; out.size() < n; ++counter) {
    const Bytes b = ref_block(key, nonce, counter);
    out.insert(out.end(), b.begin(), b.end());
  }
  out.resize(n);
  return out;
}

Bytes rfc_key() {
  Bytes key(32);
  for (std::size_t i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  return key;
}

TEST(ChaCha20, Rfc8439BlockVector) {
  // RFC 8439 §2.3.2: the serialized block for counter 1.
  const Bytes nonce = *from_hex("000000090000004a00000000");
  const std::string expect =
      "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
      "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e";
  EXPECT_EQ(to_hex(ref_block(rfc_key(), nonce, 1)), expect);
  EXPECT_EQ(to_hex(ChaCha20(rfc_key(), nonce, 1).keystream(64)), expect);
}

TEST(ChaCha20, Rfc8439EncryptionVector) {
  // RFC 8439 §2.4.2: the full 114-byte ciphertext, i.e. two blocks of
  // keystream, through process() and through the batched fill().
  const Bytes nonce = *from_hex("000000000000004a00000000");
  const Bytes plain = bytes_of(
      "Ladies and Gentlemen of the class of '99: If I could offer you only one tip for "
      "the future, sunscreen would be it.");
  const Bytes cipher = *from_hex(
      "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
      "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
      "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
      "5af90bbf74a35be6b40b8eedf2785e42874d");
  ASSERT_EQ(plain.size(), 114u);
  EXPECT_EQ(ChaCha20(rfc_key(), nonce, 1).process(plain), cipher);
  EXPECT_EQ(xor_bytes(plain, cipher), ref_keystream(rfc_key(), nonce, 1, 114));
  // Past the first block the stream runs in batches; 1 KB crosses several.
  ChaCha20 c(rfc_key(), nonce, 1);
  EXPECT_EQ(c.keystream(1024), ref_keystream(rfc_key(), nonce, 1, 1024));
}

TEST(ChaCha20, SeededInterleavingsMatchReference) {
  // Random mixes of every entry point, up to 2 KB per stream, crossing the
  // scalar blocks and the batch boundaries at arbitrary offsets.
  Rng script(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const Bytes key = script.bytes(32);
    const Bytes nonce = script.bytes(12);
    const auto counter = static_cast<std::uint32_t>(script.below(3));
    ChaCha20 c(key, nonce, counter);
    Bytes got;
    while (got.size() < 2048) {
      const std::size_t n = script.below(5) == 0 ? script.below(700) : script.below(70);
      Bytes part(n);
      switch (script.below(3)) {
        case 0: c.fill(part); break;
        case 1: c.xor_into(part); break;  // xor over zeros is the keystream
        default: part = c.keystream(n); break;
      }
      got.insert(got.end(), part.begin(), part.end());
    }
    ASSERT_EQ(got, ref_keystream(key, nonce, counter, got.size())) << "trial " << trial;
  }
}

TEST(ChaCha20, SeededRngDrawsMatchReference) {
  // Rng(key) draws from ChaCha20(key, zero nonce, counter 0): u64 is 8
  // little-endian keystream bytes, bytes/fill take the next n.
  Rng script(77);
  const Bytes zero_nonce(12, 0);
  for (int trial = 0; trial < 100; ++trial) {
    const Bytes key = script.bytes(32);
    Rng r(key);
    Bytes got;
    while (got.size() < 2048) {
      switch (script.below(3)) {
        case 0: {
          const std::uint64_t v = r.u64();
          for (int i = 0; i < 8; ++i) got.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
          break;
        }
        case 1: {
          const Bytes b = r.bytes(script.below(script.below(4) == 0 ? 600 : 40));
          got.insert(got.end(), b.begin(), b.end());
          break;
        }
        default: {
          Bytes b(script.below(300));
          r.fill(b);
          got.insert(got.end(), b.begin(), b.end());
          break;
        }
      }
    }
    ASSERT_EQ(got, ref_keystream(key, zero_nonce, 0, got.size())) << "trial " << trial;
  }
}

TEST(ChaCha20, CounterWrapsInsideABatch) {
  // Buffered from 0xFFFFFFFD, the scalar blocks are ...FD and ...FE and the
  // first batch runs 0xFFFFFFFF, 0, 1, 2; a direct fill after one block
  // from 0xFFFFFFFE or ...FD wraps inside its first batch too; and a stream
  // may start on the wrap.
  const Bytes key(32, 0xa5), nonce(12, 0x3c);
  for (const std::uint32_t start : {0xFFFFFFFEu, 0xFFFFFFFFu, 0xFFFFFFFDu}) {
    const Bytes want = ref_keystream(key, nonce, start, 64 * 11);
    ChaCha20 buffered(key, nonce, start);
    Bytes got;
    while (got.size() < want.size()) {
      const Bytes b = buffered.keystream(std::min<std::size_t>(24, want.size() - got.size()));
      got.insert(got.end(), b.begin(), b.end());
    }
    EXPECT_EQ(got, want) << "buffered, start " << start;
    ChaCha20 direct(key, nonce, start);
    Bytes first(64), rest(want.size() - 64);
    direct.fill(first);
    direct.fill(rest);
    first.insert(first.end(), rest.begin(), rest.end());
    EXPECT_EQ(first, want) << "direct, start " << start;
  }
}

}  // namespace
}  // namespace fairsfe
