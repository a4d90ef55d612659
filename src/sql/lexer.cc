#include "sql/lexer.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <string_view>

#include "util/str.h"

namespace recycledb::sql {

namespace {

// ASCII character classes: what <cctype> answers in the "C" locale, without
// a locale lookup per byte. Bytes >= 0x80 are never letters, digits or space.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsIdentStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool IsIdentChar(char c) { return IsIdentStart(c) || IsDigit(c); }
char ToLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

struct Keyword {
  std::string_view word;
  Tok tok;
};

// Sorted by length: the keywords of length n are
// kKeywords[kFirstOfLength[n] .. kFirstOfLength[n + 1]).
constexpr Keyword kKeywords[] = {
    {"as", Tok::kAs},         {"by", Tok::kBy},
    {"on", Tok::kOn},         {"and", Tok::kAnd},
    {"asc", Tok::kAsc},       {"avg", Tok::kAvg},
    {"max", Tok::kMax},       {"min", Tok::kMin},
    {"not", Tok::kNot},       {"set", Tok::kSet},
    {"sum", Tok::kSum},       {"desc", Tok::kDesc},
    {"from", Tok::kFrom},     {"into", Tok::kInto},
    {"join", Tok::kJoin},     {"like", Tok::kLike},
    {"begin", Tok::kBegin},   {"count", Tok::kCount},
    {"group", Tok::kGroup},   {"inner", Tok::kInner},
    {"limit", Tok::kLimit},   {"order", Tok::kOrder},
    {"trace", Tok::kTrace},   {"where", Tok::kWhere},
    {"commit", Tok::kCommit}, {"delete", Tok::kDelete},
    {"insert", Tok::kInsert}, {"select", Tok::kSelect},
    {"update", Tok::kUpdate}, {"values", Tok::kValues},
    {"between", Tok::kBetween},
    {"rollback", Tok::kRollback},
};
constexpr size_t kMaxKeywordLen = 8;
constexpr uint8_t kFirstOfLength[kMaxKeywordLen + 2] = {0,  0,  0,  3, 11,
                                                        16, 24, 30, 31, 32};

constexpr bool KeywordTableIsConsistent() {
  for (size_t len = 0; len <= kMaxKeywordLen; ++len)
    for (size_t k = kFirstOfLength[len]; k < kFirstOfLength[len + 1]; ++k)
      if (kKeywords[k].word.size() != len) return false;
  return kFirstOfLength[kMaxKeywordLen + 1] == std::size(kKeywords);
}
static_assert(KeywordTableIsConsistent(),
              "kKeywords must be sorted by length to match kFirstOfLength");

/// `lower` is a lower-cased word; returns its keyword kind or kIdent.
Tok KeywordOrIdent(std::string_view lower) {
  if (lower.size() > kMaxKeywordLen) return Tok::kIdent;
  for (size_t k = kFirstOfLength[lower.size()];
       k < kFirstOfLength[lower.size() + 1]; ++k)
    if (kKeywords[k].word == lower) return kKeywords[k].tok;
  return Tok::kIdent;
}

/// Source spelling of a punctuation or keyword token, which carries no
/// text of its own. '!=' is the one spelling its kind does not determine,
/// so that token keeps its text.
std::string_view Spelling(const Token& t) {
  if (!t.text.empty()) return t.text;
  switch (t.kind) {
    case Tok::kComma:
      return ",";
    case Tok::kDot:
      return ".";
    case Tok::kLParen:
      return "(";
    case Tok::kRParen:
      return ")";
    case Tok::kStar:
      return "*";
    case Tok::kPlus:
      return "+";
    case Tok::kMinus:
      return "-";
    case Tok::kSlash:
      return "/";
    case Tok::kEq:
      return "=";
    case Tok::kNe:
      return "<>";
    case Tok::kLt:
      return "<";
    case Tok::kLe:
      return "<=";
    case Tok::kGt:
      return ">";
    case Tok::kGe:
      return ">=";
    default:
      for (const Keyword& kw : kKeywords)
        if (kw.tok == t.kind) return kw.word;
      return "";
  }
}

// Every token but kEof consumes at least one byte, so text.size() + 1 slots
// never reallocate. The cap (72 KB of tokens) keeps a long statement such as
// a bulk INSERT from reserving megabytes up front; past it the vector grows
// as usual.
constexpr size_t kMaxReservedTokens = 1024;

}  // namespace

std::string LineColAt(const std::string& text, size_t pos) {
  if (pos > text.size()) pos = text.size();
  size_t line = 1, bol = 0;
  for (size_t i = 0; i < pos; ++i) {
    if (text[i] == '\n') {
      ++line;
      bol = i + 1;
    }
  }
  return StrFormat("%zu:%zu", line, pos - bol + 1);
}

std::string TokenToString(const Token& t) {
  switch (t.kind) {
    case Tok::kEof:
      return "end of input";
    case Tok::kIdent:
    case Tok::kString:
      return "'" + t.text + "'";
    case Tok::kInt:
      return StrFormat("%lld", static_cast<long long>(t.ival));
    case Tok::kFloat:
      return StrFormat("%g", t.fval);
    case Tok::kDate:
      return "date '" + DateToString(t.dval) + "'";
    default: {
      std::string out = "'";
      out += Spelling(t);
      out += '\'';
      return out;
    }
  }
}

Result<std::vector<Token>> Lex(const std::string& text) {
  const char* const s = text.data();
  const size_t n = text.size();
  std::vector<Token> out;
  out.reserve(std::min(n, kMaxReservedTokens) + 1);
  size_t i = 0;

  auto push = [&out](Tok kind, size_t pos) -> Token& {
    Token& t = out.emplace_back();
    t.kind = kind;
    t.pos = pos;
    return t;
  };

  // Scans the '...' literal whose opening quote is s[i] and leaves i past
  // its closing quote. `*body` views the source unless the literal has a ''
  // escape; then it views `unescaped`. `pos` is the start of the token the
  // literal belongs to, for the error message.
  std::string unescaped;
  auto read_string = [&](size_t pos, std::string_view* body) -> Status {
    const size_t begin = ++i;  // past the opening quote
    bool escaped = false;
    while (true) {
      if (i >= n)
        return Status::InvalidArgument(
            StrFormat("unterminated string literal at %s",
                      LineColAt(text, pos).c_str()));
      if (s[i] == '\'') {
        if (i + 1 < n && s[i + 1] == '\'') {  // '' escape
          escaped = true;
          i += 2;
          continue;
        }
        break;
      }
      ++i;
    }
    *body = std::string_view(s + begin, i - begin);
    ++i;  // closing quote
    if (escaped) {
      unescaped.clear();
      for (size_t k = 0; k < body->size(); ++k) {
        unescaped.push_back((*body)[k]);
        if ((*body)[k] == '\'') ++k;  // keep one quote of each ''
      }
      *body = unescaped;
    }
    return Status::OK();
  };

  while (i < n) {
    const char c = s[i];
    if (IsSpace(c)) {
      ++i;
      continue;
    }
    if (c == '-' && i + 1 < n && s[i + 1] == '-') {  // comment to EOL
      while (i < n && s[i] != '\n') ++i;
      continue;
    }
    const size_t pos = i;
    if (IsIdentStart(c)) {
      size_t end = i + 1;
      while (end < n && IsIdentChar(s[end])) ++end;
      const size_t len = end - i;
      i = end;
      Tok kind = Tok::kIdent;
      if (len <= kMaxKeywordLen) {
        char buf[kMaxKeywordLen];
        for (size_t k = 0; k < len; ++k) buf[k] = ToLower(s[pos + k]);
        const std::string_view lower(buf, len);
        kind = KeywordOrIdent(lower);
        // DATE 'YYYY-MM-DD' is a single literal token.
        if (lower == "date") {
          size_t j = i;
          while (j < n && IsSpace(s[j])) ++j;
          if (j < n && s[j] == '\'') {
            i = j;
            std::string_view body;
            RDB_RETURN_NOT_OK(read_string(pos, &body));
            const DateT d = DateFromString(body);
            if (d == INT32_MIN)
              return Status::InvalidArgument(StrFormat(
                  "malformed date literal '%.*s' at %s (want YYYY-MM-DD)",
                  static_cast<int>(body.size()), body.data(),
                  LineColAt(text, pos).c_str()));
            push(Tok::kDate, pos).dval = d;
            continue;
          }
        }
      }
      Token& t = push(kind, pos);
      if (kind == Tok::kIdent) {
        t.text.assign(s + pos, len);
        for (char& ch : t.text) ch = ToLower(ch);
      }
      continue;
    }
    if (IsDigit(c)) {
      size_t end = i + 1;
      while (end < n && IsDigit(s[end])) ++end;
      bool is_float = false;
      if (end + 1 < n && s[end] == '.' && IsDigit(s[end + 1])) {
        is_float = true;
        end += 2;
        while (end < n && IsDigit(s[end])) ++end;
      }
      const int len = static_cast<int>(end - i);
      if (end < n && IsIdentChar(s[end]))
        return Status::InvalidArgument(StrFormat(
            "malformed numeric literal at %s: '%.*s%c...'",
            LineColAt(text, pos).c_str(), len, s + i, s[end]));
      Token& t = push(is_float ? Tok::kFloat : Tok::kInt, pos);
      if (is_float) {
        // from_chars leaves the value unset when it overflows or underflows
        // a double; strtod's infinity or denormal is the literal's value
        // then. The byte after the literal is no identifier character, so
        // strtod stops where the literal does.
        if (std::from_chars(s + i, s + end, t.fval).ec != std::errc())
          t.fval = std::strtod(s + i, nullptr);
      } else if (std::from_chars(s + i, s + end, t.ival).ec ==
                 std::errc::result_out_of_range) {
        return Status::InvalidArgument(
            StrFormat("integer literal out of range at %s: '%.*s'",
                      LineColAt(text, pos).c_str(), len, s + i));
      }
      i = end;
      continue;
    }
    if (c == '\'') {
      std::string_view body;
      RDB_RETURN_NOT_OK(read_string(pos, &body));
      push(Tok::kString, pos).text.assign(body.data(), body.size());
      continue;
    }
    auto two = [&](char next) { return i + 1 < n && s[i + 1] == next; };
    switch (c) {
      case ',':
        push(Tok::kComma, pos);
        ++i;
        break;
      case '.':
        push(Tok::kDot, pos);
        ++i;
        break;
      case '(':
        push(Tok::kLParen, pos);
        ++i;
        break;
      case ')':
        push(Tok::kRParen, pos);
        ++i;
        break;
      case '*':
        push(Tok::kStar, pos);
        ++i;
        break;
      case '+':
        push(Tok::kPlus, pos);
        ++i;
        break;
      case '-':
        push(Tok::kMinus, pos);
        ++i;
        break;
      case '/':
        push(Tok::kSlash, pos);
        ++i;
        break;
      case '=':
        push(Tok::kEq, pos);
        ++i;
        break;
      case '!':
        if (!two('='))
          return Status::InvalidArgument(
              StrFormat("stray '!' at %s", LineColAt(text, pos).c_str()));
        push(Tok::kNe, pos).text = "!=";
        i += 2;
        break;
      case '<':
        if (two('>')) {
          push(Tok::kNe, pos);
          i += 2;
        } else if (two('=')) {
          push(Tok::kLe, pos);
          i += 2;
        } else {
          push(Tok::kLt, pos);
          ++i;
        }
        break;
      case '>':
        if (two('=')) {
          push(Tok::kGe, pos);
          i += 2;
        } else {
          push(Tok::kGt, pos);
          ++i;
        }
        break;
      case ';':  // optional statement terminator: must be last
        ++i;
        while (i < n) {
          if (IsSpace(s[i])) {
            ++i;
          } else if (s[i] == '-' && i + 1 < n && s[i + 1] == '-') {
            while (i < n && s[i] != '\n') ++i;
          } else {
            return Status::InvalidArgument(StrFormat(
                "unexpected input after ';' at %s",
                LineColAt(text, i).c_str()));
          }
        }
        break;
      default:
        return Status::InvalidArgument(
            StrFormat("unexpected character '%c' at %s", c,
                      LineColAt(text, pos).c_str()));
    }
  }
  push(Tok::kEof, n);
  return out;
}

}  // namespace recycledb::sql
