#include "crypto/bytes.h"

namespace fairsfe {

std::string to_hex(ByteView data) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0x0f]);
  }
  return out;
}

namespace {
int hex_val(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

std::optional<Bytes> from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) return std::nullopt;
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hex_val(hex[i]);
    const int lo = hex_val(hex[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

Bytes operator+(const Bytes& a, const Bytes& b) {
  Bytes out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

Bytes bytes_of(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

Bytes xor_bytes(ByteView a, ByteView b) {
  Bytes out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] ^ b[i];
  return out;
}

bool ct_equal(ByteView a, ByteView b) {
  if (a.size() != b.size()) return false;
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc = static_cast<std::uint8_t>(acc | (a[i] ^ b[i]));
  }
  return acc == 0;
}

Writer& Writer::u8(std::uint8_t v) {
  buf_.push_back(v);
  return *this;
}

Writer& Writer::u32(std::uint32_t v) {
  std::uint8_t b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  buf_.insert(buf_.end(), b, b + 4);
  return *this;
}

Writer& Writer::u64(std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  buf_.insert(buf_.end(), b, b + 8);
  return *this;
}

Writer& Writer::blob(ByteView data) {
  u32(static_cast<std::uint32_t>(data.size()));
  return raw(data);
}

Writer& Writer::raw(ByteView data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
  return *this;
}

Writer& Writer::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
  return *this;
}

std::optional<std::uint8_t> Reader::u8() {
  if (remaining() < 1) return std::nullopt;
  return data_[pos_++];
}

std::optional<std::uint32_t> Reader::u32() {
  if (remaining() < 4) return std::nullopt;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

std::optional<std::uint64_t> Reader::u64() {
  if (remaining() < 8) return std::nullopt;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

std::optional<Bytes> Reader::blob() {
  const auto view = blob_view();
  if (!view) return std::nullopt;
  return Bytes(view->begin(), view->end());
}

std::optional<ByteView> Reader::blob_view() {
  const auto len = u32();
  if (!len || remaining() < *len) return std::nullopt;
  const ByteView out = data_.subspan(pos_, *len);
  pos_ += *len;
  return out;
}

std::optional<std::string> Reader::str() {
  const auto b = blob();
  if (!b) return std::nullopt;
  return std::string(b->begin(), b->end());
}

}  // namespace fairsfe
