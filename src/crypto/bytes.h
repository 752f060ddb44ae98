// Byte-string utilities and a small length-prefixed serialization format.
//
// Every message exchanged in the simulation framework is a `Bytes` value;
// `Writer`/`Reader` provide a canonical, self-delimiting encoding used by all
// protocol implementations. The encoding is deliberately simple (little-endian
// fixed-width integers, u32 length prefixes) so transcripts are reproducible
// across platforms.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fairsfe {

using Bytes = std::vector<std::uint8_t>;
using ByteView = std::span<const std::uint8_t>;

/// Hex-encode a byte string (lowercase).
std::string to_hex(ByteView data);

/// Decode a hex string; returns std::nullopt on malformed input.
std::optional<Bytes> from_hex(std::string_view hex);

/// Concatenate two byte strings.
Bytes operator+(const Bytes& a, const Bytes& b);

/// Byte string from a string literal / std::string contents.
Bytes bytes_of(std::string_view s);

/// XOR two equal-length byte strings. Precondition: a.size() == b.size().
Bytes xor_bytes(ByteView a, ByteView b);

/// Constant-time equality (length leak only).
bool ct_equal(ByteView a, ByteView b);

/// Append-only encoder for the canonical wire format.
class Writer {
 public:
  /// Most control messages are tag + label + a few operands; one up-front
  /// allocation replaces the doubling crawl from an empty buffer.
  Writer() { buf_.reserve(24); }

  Writer& u8(std::uint8_t v);
  Writer& u32(std::uint32_t v);
  Writer& u64(std::uint64_t v);
  /// Length-prefixed byte string (u32 length).
  Writer& blob(ByteView data);
  /// Raw bytes, no length prefix (caller knows the framing).
  Writer& raw(ByteView data);
  Writer& str(std::string_view s);

  [[nodiscard]] const Bytes& bytes() const { return buf_; }
  [[nodiscard]] Bytes take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Cursor-based decoder; all accessors return std::nullopt past the end or on
/// malformed framing instead of throwing, so protocol code can treat any
/// decode failure as a (detectable) adversarial deviation.
class Reader {
 public:
  explicit Reader(ByteView data) : data_(data) {}

  std::optional<std::uint8_t> u8();
  std::optional<std::uint32_t> u32();
  std::optional<std::uint64_t> u64();
  std::optional<Bytes> blob();
  /// Zero-copy blob(): a view into the reader's buffer, valid as long as that
  /// buffer is.
  std::optional<ByteView> blob_view();
  std::optional<std::string> str();

  [[nodiscard]] bool at_end() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  ByteView data_;
  std::size_t pos_ = 0;
};

}  // namespace fairsfe
