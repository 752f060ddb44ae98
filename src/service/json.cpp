#include "service/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace fairsfe::service {

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::number(double d) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.num_ = d;
  return v;
}

JsonValue JsonValue::string(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.str_ = std::move(s);
  return v;
}

JsonValue JsonValue::array(JsonArray a) {
  JsonValue v;
  v.type_ = Type::kArray;
  v.arr_ = std::move(a);
  return v;
}

JsonValue JsonValue::object(JsonMembers m) {
  JsonValue v;
  v.type_ = Type::kObject;
  v.members_ = std::move(m);
  return v;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string JsonValue::get_string(std::string_view key, std::string def) const {
  const JsonValue* v = find(key);
  if (v == nullptr || v->type() != Type::kString) return def;
  return v->as_string();
}

double JsonValue::get_number(std::string_view key, double def) const {
  const JsonValue* v = find(key);
  if (v == nullptr || v->type() != Type::kNumber) return def;
  return v->as_number();
}

std::uint64_t JsonValue::get_u64(std::string_view key, std::uint64_t def) const {
  const JsonValue* v = find(key);
  if (v == nullptr || v->type() != Type::kNumber) return def;
  const double d = v->as_number();
  if (!(d >= 0.0) || d != std::floor(d) || d >= 0x1p64) return def;
  return static_cast<std::uint64_t>(d);
}

namespace {

constexpr int kMaxDepth = 32;

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  std::optional<JsonValue> parse() {
    auto v = value(0);
    if (!v) return std::nullopt;
    skip_ws();
    if (pos_ != s_.size()) return std::nullopt;  // trailing bytes: reject
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] bool at(char c) const { return pos_ < s_.size() && s_[pos_] == c; }

  bool consume(char c) {
    if (!at(c)) return false;
    ++pos_;
    return true;
  }

  bool consume_lit(std::string_view lit) {
    if (s_.substr(pos_).substr(0, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  std::optional<JsonValue> value(int depth) {
    if (depth > kMaxDepth) return std::nullopt;
    skip_ws();
    if (pos_ >= s_.size()) return std::nullopt;
    switch (s_[pos_]) {
      case '{':
        return object(depth);
      case '[':
        return array(depth);
      case '"': {
        auto str = string();
        if (!str) return std::nullopt;
        return JsonValue::string(std::move(*str));
      }
      case 't':
        return consume_lit("true") ? std::optional(JsonValue::boolean(true))
                                   : std::nullopt;
      case 'f':
        return consume_lit("false") ? std::optional(JsonValue::boolean(false))
                                    : std::nullopt;
      case 'n':
        return consume_lit("null") ? std::optional(JsonValue::null())
                                   : std::nullopt;
      default:
        return number();
    }
  }

  std::optional<JsonValue> object(int depth) {
    if (!consume('{')) return std::nullopt;
    JsonMembers members;
    skip_ws();
    if (consume('}')) return JsonValue::object(std::move(members));
    for (;;) {
      skip_ws();
      auto key = string();
      if (!key) return std::nullopt;
      skip_ws();
      if (!consume(':')) return std::nullopt;
      auto v = value(depth + 1);
      if (!v) return std::nullopt;
      members.emplace_back(std::move(*key), std::move(*v));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return JsonValue::object(std::move(members));
      return std::nullopt;
    }
  }

  std::optional<JsonValue> array(int depth) {
    if (!consume('[')) return std::nullopt;
    JsonArray items;
    skip_ws();
    if (consume(']')) return JsonValue::array(std::move(items));
    for (;;) {
      auto v = value(depth + 1);
      if (!v) return std::nullopt;
      items.push_back(std::move(*v));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return JsonValue::array(std::move(items));
      return std::nullopt;
    }
  }

  std::optional<std::string> string() {
    if (!consume('"')) return std::nullopt;
    std::string out;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) return std::nullopt;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) return std::nullopt;
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return std::nullopt;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return std::nullopt;
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not needed
          // by the protocol; lone surrogates are rejected).
          if (code >= 0xD800 && code <= 0xDFFF) return std::nullopt;
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<JsonValue> number() {
    const std::size_t start = pos_;
    if (at('-')) ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return std::nullopt;
    const std::string tok(s_.substr(start, pos_ - start));
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') return std::nullopt;
    return JsonValue::number(d);
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<JsonValue> json_parse(std::string_view text) {
  return Parser(text).parse();
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace fairsfe::service
