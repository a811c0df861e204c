#include "parjoin/obs/json_util.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace parjoin {
namespace obs {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
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

std::string JsonDouble(double v) {
  if (!std::isfinite(v)) return "0";
  // %.17g round-trips any double; trim to the shortest form that still
  // parses back to the same value.
  for (int prec = 6; prec <= 17; ++prec) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) return buf;
  }
  return "0";
}

namespace {

class FlatParser {
 public:
  FlatParser(const std::string& text, const std::string& where)
      : text_(text), where_(where) {}

  StatusOr<FlatJsonObject> Parse() {
    FlatJsonObject obj;
    SkipWs();
    if (!Consume('{')) return Err("expected '{'");
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return Finish(std::move(obj));
    }
    while (true) {
      SkipWs();
      PARJOIN_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWs();
      if (!Consume(':')) return Err("expected ':' after key '" + key + "'");
      SkipWs();
      PARJOIN_ASSIGN_OR_RETURN(JsonScalar value, ParseScalar());
      if (obj.count(key) > 0) return Err("duplicate key '" + key + "'");
      obj.emplace(std::move(key), std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) return Finish(std::move(obj));
      return Err("expected ',' or '}'");
    }
  }

 private:
  StatusOr<FlatJsonObject> Finish(FlatJsonObject obj) {
    SkipWs();
    if (pos_ != text_.size()) return Err("trailing content after object");
    return obj;
  }

  StatusOr<JsonScalar> ParseScalar() {
    JsonScalar s;
    const char c = Peek();
    if (c == '"') {
      PARJOIN_ASSIGN_OR_RETURN(s.str, ParseString());
      s.kind = JsonScalar::Kind::kString;
      return s;
    }
    if (c == 't' || c == 'f') {
      const char* lit = c == 't' ? "true" : "false";
      for (const char* q = lit; *q != '\0'; ++q) {
        if (!Consume(*q)) return Err("malformed literal");
      }
      s.kind = JsonScalar::Kind::kBool;
      s.b = c == 't';
      return s;
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      const size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
              text_[pos_] == '-' || text_[pos_] == '+' ||
              text_[pos_] == '.' || text_[pos_] == 'e' ||
              text_[pos_] == 'E')) {
        ++pos_;
      }
      const std::string tok = text_.substr(start, pos_ - start);
      char* end = nullptr;
      s.num = std::strtod(tok.c_str(), &end);
      if (end == nullptr || *end != '\0' || !std::isfinite(s.num)) {
        return Err("malformed number '" + tok + "'");
      }
      s.kind = JsonScalar::Kind::kNumber;
      return s;
    }
    return Err(std::string("unsupported value (flat objects hold strings, "
                           "numbers, and booleans only)"));
  }

  StatusOr<std::string> ParseString() {
    if (!Consume('"')) return Err("expected '\"'");
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'n':
            out += '\n';
            break;
          case 't':
            out += '\t';
            break;
          case 'r':
            out += '\r';
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Err("truncated \\u escape");
            const std::string hex = text_.substr(pos_, 4);
            pos_ += 4;
            char* end = nullptr;
            const long code = std::strtol(hex.c_str(), &end, 16);
            if (end != hex.c_str() + 4) return Err("malformed \\u escape");
            if (code > 0x7f) {
              return Err("non-ASCII \\u escape (the emitters never write "
                         "one)");
            }
            out += static_cast<char>(code);
            break;
          }
          default:
            return Err(std::string("unsupported escape '\\") + esc + "'");
        }
      } else {
        out += c;
      }
    }
    return Err("unterminated string");
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }
  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  bool Consume(char c) {
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }
  Status Err(const std::string& what) const {
    return InvalidArgumentError(where_ + ": " + what + " at offset " +
                                std::to_string(pos_));
  }

  const std::string& text_;
  const std::string& where_;
  size_t pos_ = 0;
};

Status MissingField(const std::string& key, const std::string& where) {
  return InvalidArgumentError(where + ": missing field '" + key + "'");
}

Status WrongKind(const std::string& key, const char* want,
                 const std::string& where) {
  return InvalidArgumentError(where + ": field '" + key + "' is not a " +
                              want);
}

}  // namespace

StatusOr<FlatJsonObject> ParseFlatJsonObject(const std::string& text,
                                             const std::string& where) {
  return FlatParser(text, where).Parse();
}

StatusOr<std::string> GetString(const FlatJsonObject& obj,
                                const std::string& key,
                                const std::string& where) {
  auto it = obj.find(key);
  if (it == obj.end()) return MissingField(key, where);
  if (it->second.kind != JsonScalar::Kind::kString) {
    return WrongKind(key, "string", where);
  }
  return it->second.str;
}

StatusOr<double> GetNumber(const FlatJsonObject& obj, const std::string& key,
                           const std::string& where) {
  auto it = obj.find(key);
  if (it == obj.end()) return MissingField(key, where);
  if (it->second.kind != JsonScalar::Kind::kNumber) {
    return WrongKind(key, "number", where);
  }
  return it->second.num;
}

StatusOr<std::int64_t> GetInt(const FlatJsonObject& obj,
                              const std::string& key,
                              const std::string& where) {
  PARJOIN_ASSIGN_OR_RETURN(double v, GetNumber(obj, key, where));
  // The cast is defined only inside [-2^63, 2^63); check before casting.
  if (!(v >= -0x1p63 && v < 0x1p63)) {
    return InvalidArgumentError(where + ": field '" + key +
                                "' is out of range for a 64-bit integer");
  }
  const std::int64_t i = static_cast<std::int64_t>(v);
  if (static_cast<double>(i) != v) {
    return InvalidArgumentError(where + ": field '" + key +
                                "' is not an integer");
  }
  return i;
}

StatusOr<int> GetInt32(const FlatJsonObject& obj, const std::string& key,
                       const std::string& where) {
  PARJOIN_ASSIGN_OR_RETURN(std::int64_t v, GetInt(obj, key, where));
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    return InvalidArgumentError(where + ": field '" + key +
                                "' is out of range for a 32-bit integer");
  }
  return static_cast<int>(v);
}

StatusOr<bool> GetBool(const FlatJsonObject& obj, const std::string& key,
                       const std::string& where) {
  auto it = obj.find(key);
  if (it == obj.end()) return MissingField(key, where);
  if (it->second.kind != JsonScalar::Kind::kBool) {
    return WrongKind(key, "boolean", where);
  }
  return it->second.b;
}

}  // namespace obs
}  // namespace parjoin
