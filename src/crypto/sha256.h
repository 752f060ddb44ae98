// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used as the hash underlying HMAC, hash commitments, and Lamport one-time
// signatures. Incremental (`update`/`finish`) and one-shot (`sha256`) APIs.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "crypto/bytes.h"

namespace fairsfe {

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;

  Sha256();

  Sha256& update(ByteView data);
  /// Hash the Writer encoding of a value (bytes.h) without building it:
  /// u64 little-endian, blob/str u32-length-prefixed.
  Sha256& u64(std::uint64_t v);
  Sha256& blob(ByteView data);
  Sha256& str(std::string_view s);
  /// Finalizes and returns the digest. The object must not be reused after.
  Bytes finish();
  /// finish() written into a caller's 32-byte array (no allocation).
  void finish(std::span<std::uint8_t, kDigestSize> out);

  /// SHA-256 of exactly 32 bytes (Lamport's key and signature chunks): one
  /// pre-padded block, no buffering. Same digest as update(in).finish().
  static void digest32(const std::uint8_t* in, std::span<std::uint8_t, kDigestSize> out);

 private:
  void process_block(const std::uint8_t* block);
  void store_digest(std::span<std::uint8_t, kDigestSize> out) const;

  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, kBlockSize> buf_{};
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// One-shot SHA-256.
Bytes sha256(ByteView data);

/// Domain-separated hash: SHA-256(label_len || label || data).
Bytes sha256_labeled(std::string_view label, ByteView data);

}  // namespace fairsfe
