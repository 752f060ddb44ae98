#include "crypto/chacha20.h"

#include <algorithm>
#include <cstring>

#include "util/check.h"

// The batch kernel runs the block function on kBatchBlocks counters at once,
// one vector lane per block, with GCC/Clang vector extensions (SSE2 on
// x86-64, NEON on arm64). Elsewhere it falls back to the scalar block, run
// once per lane. Both produce the same bytes.
#if defined(__GNUC__) && defined(__has_builtin) && \
    defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
#if __has_builtin(__builtin_shufflevector)
#define FAIRSFE_CHACHA_VEC 1
#endif
#endif

namespace fairsfe {

namespace {

inline std::uint32_t rotl(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

inline void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                          std::uint32_t& d) {
  a += b; d ^= a; d = rotl(d, 16);
  c += d; b ^= c; b = rotl(b, 12);
  a += b; d ^= a; d = rotl(d, 8);
  c += d; b ^= c; b = rotl(b, 7);
}

inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

// One 64-byte block for the state's counter (RFC 8439 §2.3).
void block_scalar(const std::array<std::uint32_t, 16>& state, std::uint8_t* out) {
  std::array<std::uint32_t, 16> x = state;
  for (int round = 0; round < 10; ++round) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) {
    const std::uint32_t v = x[i] + state[i];
    out[4 * i] = static_cast<std::uint8_t>(v);
    out[4 * i + 1] = static_cast<std::uint8_t>(v >> 8);
    out[4 * i + 2] = static_cast<std::uint8_t>(v >> 16);
    out[4 * i + 3] = static_cast<std::uint8_t>(v >> 24);
  }
}

#ifdef FAIRSFE_CHACHA_VEC

using U32x4 = std::uint32_t __attribute__((vector_size(16)));

[[gnu::always_inline]] inline void quarter_round_v(U32x4& a, U32x4& b, U32x4& c, U32x4& d) {
  a += b; d ^= a; d = (d << 16) | (d >> 16);
  c += d; b ^= c; b = (b << 12) | (b >> 20);
  a += b; d ^= a; d = (d << 8) | (d >> 24);
  c += d; b ^= c; b = (b << 7) | (b >> 25);
}

// Blocks for counters c .. c+3 (lane k holds block k; the counter wraps mod
// 2^32 exactly as the scalar state_[12] += 1 does), written block-major.
void blocks_batch(const std::array<std::uint32_t, 16>& state, std::uint8_t* out) {
  static_assert(ChaCha20::kBatchBlocks == 4, "one vector lane per block");
  U32x4 in[16];
  for (int i = 0; i < 16; ++i) in[i] = U32x4{} + state[i];
  in[12] += U32x4{0, 1, 2, 3};
  U32x4 x[16];
  for (int i = 0; i < 16; ++i) x[i] = in[i];
  for (int round = 0; round < 10; ++round) {
    quarter_round_v(x[0], x[4], x[8], x[12]);
    quarter_round_v(x[1], x[5], x[9], x[13]);
    quarter_round_v(x[2], x[6], x[10], x[14]);
    quarter_round_v(x[3], x[7], x[11], x[15]);
    quarter_round_v(x[0], x[5], x[10], x[15]);
    quarter_round_v(x[1], x[6], x[11], x[12]);
    quarter_round_v(x[2], x[7], x[8], x[13]);
    quarter_round_v(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) x[i] += in[i];
  // 4x4 transposes: words i..i+3 of the four lanes become 16 bytes of each
  // block (little-endian host, so a lane stores as its le32 bytes).
  for (int i = 0; i < 16; i += 4) {
    const U32x4 ab_lo = __builtin_shufflevector(x[i], x[i + 1], 0, 4, 1, 5);
    const U32x4 ab_hi = __builtin_shufflevector(x[i], x[i + 1], 2, 6, 3, 7);
    const U32x4 cd_lo = __builtin_shufflevector(x[i + 2], x[i + 3], 0, 4, 1, 5);
    const U32x4 cd_hi = __builtin_shufflevector(x[i + 2], x[i + 3], 2, 6, 3, 7);
    const U32x4 rows[4] = {__builtin_shufflevector(ab_lo, cd_lo, 0, 1, 4, 5),
                           __builtin_shufflevector(ab_lo, cd_lo, 2, 3, 6, 7),
                           __builtin_shufflevector(ab_hi, cd_hi, 0, 1, 4, 5),
                           __builtin_shufflevector(ab_hi, cd_hi, 2, 3, 6, 7)};
    for (int k = 0; k < 4; ++k) {
      std::memcpy(out + k * ChaCha20::kBlockSize + 4 * i, &rows[k], sizeof(U32x4));
    }
  }
}

#else

void blocks_batch(const std::array<std::uint32_t, 16>& state, std::uint8_t* out) {
  std::array<std::uint32_t, 16> s = state;
  for (std::size_t k = 0; k < ChaCha20::kBatchBlocks; ++k) {
    block_scalar(s, out + k * ChaCha20::kBlockSize);
    s[12] += 1;
  }
}

#endif  // FAIRSFE_CHACHA_VEC

}  // namespace

ChaCha20::ChaCha20(ByteView key, ByteView nonce, std::uint32_t counter) {
  FAIRSFE_CHECK(key.size() == kKeySize, "ChaCha20 key must be 32 bytes");
  FAIRSFE_CHECK(nonce.size() == kNonceSize, "ChaCha20 nonce must be 12 bytes");
  state_[0] = 0x61707865;
  state_[1] = 0x3320646e;
  state_[2] = 0x79622d32;
  state_[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state_[4 + i] = load_le32(key.data() + 4 * i);
  state_[12] = counter;
  for (int i = 0; i < 3; ++i) state_[13 + i] = load_le32(nonce.data() + 4 * i);
}

void ChaCha20::refill() {
  if (refills_ < kScalarRefills) {
    ++refills_;
    block_scalar(state_, buf_.data());
    state_[12] += 1;  // block counter
    buf_len_ = kBlockSize;
  } else {
    blocks_batch(state_, buf_.data());
    state_[12] += kBatchBlocks;
    buf_len_ = kBatchSize;
  }
  pos_ = 0;
}

void ChaCha20::fill(std::uint8_t* out, std::size_t n) {
  while (n > 0) {
    if (pos_ == buf_len_) {
      if (n >= kBatchSize) {
        for (; n >= kBatchSize; n -= kBatchSize, out += kBatchSize) {
          blocks_batch(state_, out);
          state_[12] += kBatchBlocks;
        }
        continue;
      }
      refill();
    }
    const std::size_t take = std::min(buf_len_ - pos_, n);
    std::memcpy(out, buf_.data() + pos_, take);
    pos_ += take;
    out += take;
    n -= take;
  }
}

void ChaCha20::xor_into(std::span<std::uint8_t> data) {
  std::size_t done = 0;
  const std::size_t n = data.size();
  while (done < n) {
    if (pos_ == buf_len_) refill();
    const std::size_t take = std::min(buf_len_ - pos_, n - done);
    for (std::size_t i = 0; i < take; ++i) data[done + i] ^= buf_[pos_ + i];
    pos_ += take;
    done += take;
  }
}

Bytes ChaCha20::keystream(std::size_t n) {
  Bytes out(n);
  fill(out.data(), n);
  return out;
}

Bytes ChaCha20::process(ByteView data) {
  Bytes out(data.begin(), data.end());
  xor_into(out);
  return out;
}

}  // namespace fairsfe
