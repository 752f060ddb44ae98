#include "crypto/sha256.h"

#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define FAIRSFE_SHA_NI 1
#endif

namespace fairsfe {

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

#ifdef FAIRSFE_SHA_NI

#define FAIRSFE_SHA_TARGET __attribute__((target("sha,sse4.1,ssse3")))

// Big-endian bytes <-> native words, within each 32-bit lane.
inline FAIRSFE_SHA_TARGET __m128i bswap32(__m128i v) {
  return _mm_shuffle_epi8(v, _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL));
}

// (ABEF, CDGH) back to the words (a,b,c,d) and (e,f,g,h), low lane first.
inline FAIRSFE_SHA_TARGET void unpack_state(__m128i state0, __m128i state1, __m128i& abcd,
                                            __m128i& efgh) {
  const __m128i tmp = _mm_shuffle_epi32(state0, 0x1B);
  state1 = _mm_shuffle_epi32(state1, 0xB1);
  abcd = _mm_blend_epi16(tmp, state1, 0xF0);
  efgh = _mm_alignr_epi8(state1, tmp, 8);
}

// One compression using the SHA extension (sha256rnds2/sha256msg1/
// sha256msg2): the 64 rounds over the block words W0..W15 (msg0..msg3, four
// native words each) and the feed-forward, on the (ABEF, CDGH) pair. Both
// block entry points inline this one copy. Bit-identical to the portable
// loop — the hash itself is unchanged, only the block pass — and gated at
// runtime on cpuid, so the portable path below stays the behavioural
// reference everywhere else. Forking an Rng costs four compressions (two
// with the HMAC key schedule cached), the estimator derives four streams
// per Monte-Carlo run, and a Lamport key costs 512, so this is the hottest
// primitive in the whole simulator.
__attribute__((always_inline)) inline FAIRSFE_SHA_TARGET void compress_hw(
    __m128i& state0, __m128i& state1, __m128i msg0, __m128i msg1, __m128i msg2,
    __m128i msg3) {
  const auto k = [](std::uint64_t hi, std::uint64_t lo) {
    return _mm_set_epi64x(static_cast<long long>(hi), static_cast<long long>(lo));
  };
  const __m128i abef_save = state0;
  const __m128i cdgh_save = state1;
  __m128i msg;
  __m128i tmp;

  // Rounds 0-3
  msg = _mm_add_epi32(msg0, k(0xE9B5DBA5B5C0FBCFULL, 0x71374491428A2F98ULL));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  msg = _mm_shuffle_epi32(msg, 0x0E);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

  // Rounds 4-7
  msg = _mm_add_epi32(msg1, k(0xAB1C5ED5923F82A4ULL, 0x59F111F13956C25BULL));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  msg = _mm_shuffle_epi32(msg, 0x0E);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
  msg0 = _mm_sha256msg1_epu32(msg0, msg1);

  // Rounds 8-11
  msg = _mm_add_epi32(msg2, k(0x550C7DC3243185BEULL, 0x12835B01D807AA98ULL));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  msg = _mm_shuffle_epi32(msg, 0x0E);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
  msg1 = _mm_sha256msg1_epu32(msg1, msg2);

  // Rounds 12-15
  msg = _mm_add_epi32(msg3, k(0xC19BF1749BDC06A7ULL, 0x80DEB1FE72BE5D74ULL));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  tmp = _mm_alignr_epi8(msg3, msg2, 4);
  msg0 = _mm_add_epi32(msg0, tmp);
  msg0 = _mm_sha256msg2_epu32(msg0, msg3);
  msg = _mm_shuffle_epi32(msg, 0x0E);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
  msg2 = _mm_sha256msg1_epu32(msg2, msg3);

  // Rounds 16-47: the schedule registers rotate through the same four-round
  // step — feed msgN to the round function, extend msgN+1 with msg2/msg1 ops.
  const __m128i kMid[8] = {
      k(0x240CA1CC0FC19DC6ULL, 0xEFBE4786E49B69C1ULL),
      k(0x76F988DA5CB0A9DCULL, 0x4A7484AA2DE92C6FULL),
      k(0xBF597FC7B00327C8ULL, 0xA831C66D983E5152ULL),
      k(0x1429296706CA6351ULL, 0xD5A79147C6E00BF3ULL),
      k(0x53380D134D2C6DFCULL, 0x2E1B213827B70A85ULL),
      k(0x92722C8581C2C92EULL, 0x766A0ABB650A7354ULL),
      k(0xC76C51A3C24B8B70ULL, 0xA81A664BA2BFE8A1ULL),
      k(0x106AA070F40E3585ULL, 0xD6990624D192E819ULL),
  };
  for (int step = 0; step < 8; ++step) {
    msg = _mm_add_epi32(msg0, kMid[step]);
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    tmp = _mm_alignr_epi8(msg0, msg3, 4);
    msg1 = _mm_add_epi32(msg1, tmp);
    msg1 = _mm_sha256msg2_epu32(msg1, msg0);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg3 = _mm_sha256msg1_epu32(msg3, msg0);
    // Rotate (msg0, msg1, msg2, msg3) <- (msg1, msg2, msg3, msg0).
    const __m128i rot = msg0;
    msg0 = msg1;
    msg1 = msg2;
    msg2 = msg3;
    msg3 = rot;
  }

  // Rounds 48-51
  msg = _mm_add_epi32(msg0, k(0x34B0BCB52748774CULL, 0x1E376C0819A4C116ULL));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  tmp = _mm_alignr_epi8(msg0, msg3, 4);
  msg1 = _mm_add_epi32(msg1, tmp);
  msg1 = _mm_sha256msg2_epu32(msg1, msg0);
  msg = _mm_shuffle_epi32(msg, 0x0E);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
  // Last schedule-extension helper: msg3 still needs its sigma0 partials
  // (the rotation loop above only applies sha256msg1 through W56..59).
  msg3 = _mm_sha256msg1_epu32(msg3, msg0);

  // Rounds 52-55
  msg = _mm_add_epi32(msg1, k(0x682E6FF35B9CCA4FULL, 0x4ED8AA4A391C0CB3ULL));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  tmp = _mm_alignr_epi8(msg1, msg0, 4);
  msg2 = _mm_add_epi32(msg2, tmp);
  msg2 = _mm_sha256msg2_epu32(msg2, msg1);
  msg = _mm_shuffle_epi32(msg, 0x0E);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

  // Rounds 56-59
  msg = _mm_add_epi32(msg2, k(0x8CC7020884C87814ULL, 0x78A5636F748F82EEULL));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  tmp = _mm_alignr_epi8(msg2, msg1, 4);
  msg3 = _mm_add_epi32(msg3, tmp);
  msg3 = _mm_sha256msg2_epu32(msg3, msg2);
  msg = _mm_shuffle_epi32(msg, 0x0E);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

  // Rounds 60-63
  msg = _mm_add_epi32(msg3, k(0xC67178F2BEF9A3F7ULL, 0xA4506CEB90BEFFFAULL));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  msg = _mm_shuffle_epi32(msg, 0x0E);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

  state0 = _mm_add_epi32(state0, abef_save);
  state1 = _mm_add_epi32(state1, cdgh_save);
}

FAIRSFE_SHA_TARGET void process_block_hw(std::uint32_t* state, const std::uint8_t* data) {
  // state[] is {a,b,c,d,e,f,g,h}; the instruction wants (ABEF, CDGH) pairs.
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i state1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);
  state1 = _mm_shuffle_epi32(state1, 0x1B);
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);

  const __m128i* blk = reinterpret_cast<const __m128i*>(data);
  compress_hw(state0, state1, bswap32(_mm_loadu_si128(blk + 0)),
              bswap32(_mm_loadu_si128(blk + 1)), bswap32(_mm_loadu_si128(blk + 2)),
              bswap32(_mm_loadu_si128(blk + 3)));

  __m128i abcd;
  __m128i efgh;
  unpack_state(state0, state1, abcd, efgh);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), abcd);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), efgh);
}

// digest32 in one block pass: a 32-byte message pads to one block whose
// words W8..W15 are constants (0x80000000, six zeros, the bit length 256),
// and the state starts at the IV, so neither goes through memory; the
// digest is byte-swapped straight into `out`.
FAIRSFE_SHA_TARGET void digest32_hw(const std::uint8_t* in, std::uint8_t* out) {
  // The IV as the (ABEF, CDGH) pair: (a,b,e,f) and (c,d,g,h), high lane first.
  __m128i state0 = _mm_set_epi32(0x6a09e667, static_cast<int>(0xbb67ae85), 0x510e527f,
                                 static_cast<int>(0x9b05688c));
  __m128i state1 =
      _mm_set_epi32(0x3c6ef372, static_cast<int>(0xa54ff53a), 0x1f83d9ab, 0x5be0cd19);
  const __m128i* blk = reinterpret_cast<const __m128i*>(in);
  compress_hw(state0, state1, bswap32(_mm_loadu_si128(blk + 0)),
              bswap32(_mm_loadu_si128(blk + 1)),
              _mm_set_epi32(0, 0, 0, static_cast<int>(0x80000000)),  // W8..W11
              _mm_set_epi32(256, 0, 0, 0));                            // W12..W15
  __m128i abcd;
  __m128i efgh;
  unpack_state(state0, state1, abcd, efgh);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), bswap32(abcd));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16), bswap32(efgh));
}

bool have_sha_ni() {
  // Function-local so the cpuid probe cannot race static initialization in
  // other translation units (scenario registration hashes at startup).
  static const bool have = __builtin_cpu_supports("sha") &&
                           __builtin_cpu_supports("sse4.1") &&
                           __builtin_cpu_supports("ssse3");
  return have;
}

#endif  // FAIRSFE_SHA_NI

}  // namespace

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19},
      buf_{} {}

void Sha256::process_block(const std::uint8_t* block) {
#ifdef FAIRSFE_SHA_NI
  if (have_sha_ni()) {
    process_block_hw(state_.data(), block);
    return;
  }
#endif
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  std::uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

Sha256& Sha256::update(ByteView data) {
  total_len_ += data.size();
  std::size_t off = 0;
  if (buf_len_ > 0) {
    const std::size_t take = std::min(kBlockSize - buf_len_, data.size());
    std::memcpy(buf_.data() + buf_len_, data.data(), take);
    buf_len_ += take;
    off += take;
    if (buf_len_ == kBlockSize) {
      process_block(buf_.data());
      buf_len_ = 0;
    }
  }
  while (off + kBlockSize <= data.size()) {
    process_block(data.data() + off);
    off += kBlockSize;
  }
  if (off < data.size()) {
    std::memcpy(buf_.data(), data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
  return *this;
}

Sha256& Sha256::u64(std::uint64_t v) {
  std::uint8_t le[8];
  store_le(le, v, 8);
  return update(le);
}

Sha256& Sha256::blob(ByteView data) {
  std::uint8_t le[kBlobPrefixSize];
  store_le(le, data.size(), kBlobPrefixSize);
  return update(le).update(data);
}

Sha256& Sha256::str(std::string_view s) {
  return blob(ByteView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

Bytes Sha256::finish() {
  Bytes out(kDigestSize);
  finish(std::span<std::uint8_t, kDigestSize>(out.data(), kDigestSize));
  return out;
}

void Sha256::finish(std::span<std::uint8_t, kDigestSize> out) {
  const std::uint64_t bit_len = total_len_ * 8;
  // One 0x80 byte, then zeros up to offset 56 of the final block (one extra
  // block when fewer than 8 bytes remain for the length field), written
  // straight into the block buffer.
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > 56) {
    std::memset(buf_.data() + buf_len_, 0, kBlockSize - buf_len_);
    process_block(buf_.data());
    buf_len_ = 0;
  }
  std::memset(buf_.data() + buf_len_, 0, 56 - buf_len_);
  for (int i = 0; i < 8; ++i) {
    buf_[56 + i] = static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
  }
  process_block(buf_.data());
  store_digest(out);
}

void Sha256::digest32(const std::uint8_t* in, std::span<std::uint8_t, kDigestSize> out) {
#ifdef FAIRSFE_SHA_NI
  if (have_sha_ni()) {
    digest32_hw(in, out.data());
    return;
  }
#endif
  Sha256 h;  // buf_ starts zeroed
  std::memcpy(h.buf_.data(), in, 32);
  h.buf_[32] = 0x80;
  h.buf_[62] = 0x01;  // bit length 256, big-endian in bytes 56..63
  h.process_block(h.buf_.data());
  h.store_digest(out);
}

void Sha256::store_digest(std::span<std::uint8_t, kDigestSize> out) const {
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
}

Bytes sha256(ByteView data) {
  return Sha256().update(data).finish();
}

Bytes sha256_labeled(std::string_view label, ByteView data) {
  return Sha256().str(label).update(data).finish();
}

}  // namespace fairsfe
