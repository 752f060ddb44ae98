// ChaCha20 stream cipher (RFC 8439 block function), used as the PRG behind
// all protocol randomness. Deterministic given (key, nonce), which is what
// makes every simulated execution reproducible from a 32-byte seed.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "crypto/bytes.h"

namespace fairsfe {

class ChaCha20 {
 public:
  static constexpr std::size_t kKeySize = 32;
  static constexpr std::size_t kNonceSize = 12;
  static constexpr std::size_t kBlockSize = 64;

  /// key must be 32 bytes; nonce 12 bytes. Counter starts at `counter`.
  ChaCha20(ByteView key, ByteView nonce, std::uint32_t counter = 0);

  /// Blocks per refill once a stream is past its first kScalarRefills
  /// (see refill()).
  static constexpr std::size_t kBatchBlocks = 4;
  static constexpr int kScalarRefills = 2;
  static constexpr std::size_t kBatchSize = kBatchBlocks * kBlockSize;

  /// Write the next `n` keystream bytes into `out` (no allocation). Consumes
  /// exactly the same keystream as keystream(n); whole batches go straight
  /// into `out`.
  void fill(std::uint8_t* out, std::size_t n);
  void fill(std::span<std::uint8_t> out) { fill(out.data(), out.size()); }

  /// XOR the next data.size() keystream bytes into `data` in place
  /// (encrypt == decrypt, no allocation).
  void xor_into(std::span<std::uint8_t> data);

  /// Produce the next `n` keystream bytes (allocating convenience wrapper).
  Bytes keystream(std::size_t n);

  /// XOR `data` with keystream (allocating; encrypt == decrypt).
  Bytes process(ByteView data);

 private:
  /// The first kScalarRefills refills of a stream compute one block each
  /// (most streams draw at most two blocks); every later one a batch of
  /// kBatchBlocks consecutive blocks. Either way the keystream is RFC 8439's,
  /// block by block.
  void refill();

  std::array<std::uint32_t, 16> state_{};
  std::array<std::uint8_t, kBatchSize> buf_{};
  std::size_t buf_len_ = 0;  // valid bytes in buf_
  std::size_t pos_ = 0;
  int refills_ = 0;
};

}  // namespace fairsfe
