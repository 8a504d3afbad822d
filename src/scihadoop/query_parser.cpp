#include "scihadoop/query_parser.hpp"

#include <cctype>
#include <charconv>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace sidr::sh {

namespace {

/// Minimal recursive-descent scanner over the query text.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  StructuralQuery parse() {
    StructuralQuery q;
    q.op = parseOperator();
    expect('(');
    q.variable = parseIdent();
    if (peek() == '[') {
      ++pos_;
      std::vector<nd::Index> lo;
      std::vector<nd::Index> hi;
      while (true) {
        if (lo.size() == nd::kMaxRank) fail("subset rank exceeds the maximum");
        lo.push_back(parseInteger());
        expect(':');
        hi.push_back(parseInteger());
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        break;
      }
      nd::Coord corner{std::span<const nd::Index>(lo)};
      nd::Coord shape = nd::Coord::zeros(lo.size());
      for (std::size_t d = 0; d < lo.size(); ++d) {
        if (hi[d] <= lo[d]) fail("empty subset range");
        constexpr nd::Index kMax = std::numeric_limits<nd::Index>::max();
        if (lo[d] < 0 && hi[d] > kMax + lo[d]) fail("subset range overflows");
        shape[d] = hi[d] - lo[d];
      }
      q.subset = nd::Region(corner, shape);
    }
    bool haveEshape = false;
    while (peek() == ',') {
      ++pos_;
      std::string key = parseIdent();
      expect('=');
      if (key == "eshape") {
        q.extractionShape = parseCoord();
        haveEshape = true;
      } else if (key == "stride") {
        q.stride = parseCoord();
      } else if (key == "edge") {
        std::string v = parseIdent();
        if (v == "truncate") {
          q.edgeMode = EdgeMode::kTruncate;
        } else if (v == "pad") {
          q.edgeMode = EdgeMode::kPad;
        } else {
          fail("expected 'truncate' or 'pad'");
        }
      } else if (key == "keys") {
        std::string v = parseIdent();
        if (v == "renumber") {
          q.keyMode = KeyMode::kRenumber;
        } else if (v == "preserve") {
          q.keyMode = KeyMode::kPreserveCoords;
        } else {
          fail("expected 'renumber' or 'preserve'");
        }
      } else if (key == "threshold") {
        q.filterThreshold = parseNumber();
      } else if (key == "skew") {
        q.skewBound = parseInteger();
      } else {
        fail("unknown parameter '" + key + "'");
      }
    }
    expect(')');
    skipSpace();
    if (pos_ != text_.size()) fail("trailing input");
    if (!haveEshape) {
      throw std::invalid_argument(
          "parseQuery: the 'eshape' parameter is required");
    }
    return q;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    std::ostringstream os;
    os << "parseQuery: " << what << " at position " << pos_ << " in \""
       << text_ << "\"";
    throw std::invalid_argument(os.str());
  }

  void skipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    skipSpace();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  std::string parseIdent() {
    skipSpace();
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected identifier");
    return text_.substr(start, pos_ - start);
  }

  double parseNumber() {
    skipSpace();
    std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            ((text_[pos_] == '-' || text_[pos_] == '+') && pos_ > start &&
             (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E')))) {
      ++pos_;
    }
    if (pos_ == start) fail("expected number");
    return convert<double>(start, "number");
  }

  /// An optionally signed decimal integer that fits nd::Index.
  nd::Index parseInteger() {
    skipSpace();
    std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return convert<nd::Index>(start, "integer");
  }

  /// Converts the scanned token text_[start, pos_) whole, or fails:
  /// an out-of-range value is malformed input, not another error type.
  template <class T>
  T convert(std::size_t start, const std::string& what) {
    // from_chars takes no leading '+'.
    const char* first = text_.data() + start + (text_[start] == '+' ? 1 : 0);
    const char* last = text_.data() + pos_;
    T v{};
    const auto [end, ec] = std::from_chars(first, last, v);
    if (ec == std::errc::result_out_of_range) fail(what + " out of range");
    if (ec != std::errc() || end != last) fail("malformed " + what);
    return v;
  }

  nd::Coord parseCoord() {
    skipSpace();
    if (peek() != '{') fail("expected '{'");
    std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != '}') ++pos_;
    if (pos_ == text_.size()) fail("unterminated coordinate");
    ++pos_;  // consume '}'
    try {
      return nd::Coord::parse(text_.substr(start, pos_ - start));
    } catch (const std::logic_error& e) {
      // Coord::parse's own errors (bad syntax, rank past kMaxRank, an
      // extent out of range) become this parser's one error type.
      fail(e.what());
    }
  }

  OperatorKind parseOperator() {
    std::string name = parseIdent();
    if (name == "mean") return OperatorKind::kMean;
    if (name == "sum") return OperatorKind::kSum;
    if (name == "min") return OperatorKind::kMin;
    if (name == "max") return OperatorKind::kMax;
    if (name == "count") return OperatorKind::kCount;
    if (name == "range") return OperatorKind::kRange;
    if (name == "median") return OperatorKind::kMedian;
    if (name == "filter") return OperatorKind::kFilter;
    if (name == "sort") return OperatorKind::kSort;
    // kJoin is deliberately NOT parseable: a join needs the full
    // JoinSpec (second variable, shapes), which the one-line query
    // language has no syntax for. Build join queries programmatically.
    fail("unknown operator '" + name + "'");
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

StructuralQuery parseQuery(const std::string& text) {
  Parser p(text);
  return p.parse();
}

std::string toQueryString(const StructuralQuery& q) {
  std::ostringstream os;
  switch (q.op) {
    case OperatorKind::kMean: os << "mean"; break;
    case OperatorKind::kSum: os << "sum"; break;
    case OperatorKind::kMin: os << "min"; break;
    case OperatorKind::kMax: os << "max"; break;
    case OperatorKind::kCount: os << "count"; break;
    case OperatorKind::kRange: os << "range"; break;
    case OperatorKind::kMedian: os << "median"; break;
    case OperatorKind::kFilter: os << "filter"; break;
    case OperatorKind::kSort: os << "sort"; break;
    case OperatorKind::kJoin: os << "join"; break;
  }
  os << '(' << q.variable;
  if (q.subset) {
    os << '[';
    for (std::size_t d = 0; d < q.subset->rank(); ++d) {
      if (d != 0) os << ", ";
      os << q.subset->corner()[d] << ':'
         << q.subset->corner()[d] + q.subset->shape()[d];
    }
    os << ']';
  }
  os << ", eshape=" << q.extractionShape.toString();
  if (q.stride) os << ", stride=" << q.stride->toString();
  if (q.edgeMode == EdgeMode::kPad) os << ", edge=pad";
  if (q.keyMode == KeyMode::kPreserveCoords) os << ", keys=preserve";
  if (q.op == OperatorKind::kFilter) os << ", threshold=" << q.filterThreshold;
  if (q.skewBound > 0) os << ", skew=" << q.skewBound;
  os << ')';
  return os.str();
}

}  // namespace sidr::sh
