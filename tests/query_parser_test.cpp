#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "scihadoop/query_parser.hpp"

namespace sidr::sh {
namespace {

TEST(QueryParser, PaperQuery1) {
  StructuralQuery q = parseQuery("median(windspeed, eshape={2,36,36,10})");
  EXPECT_EQ(q.op, OperatorKind::kMedian);
  EXPECT_EQ(q.variable, "windspeed");
  EXPECT_EQ(q.extractionShape, (nd::Coord{2, 36, 36, 10}));
  EXPECT_FALSE(q.stride.has_value());
  EXPECT_EQ(q.edgeMode, EdgeMode::kTruncate);
  EXPECT_EQ(q.keyMode, KeyMode::kRenumber);
}

TEST(QueryParser, PaperQuery2WithThreshold) {
  StructuralQuery q = parseQuery(
      "filter(measurements, eshape={2,40,40,10}, threshold=3.0)");
  EXPECT_EQ(q.op, OperatorKind::kFilter);
  EXPECT_DOUBLE_EQ(q.filterThreshold, 3.0);
}

TEST(QueryParser, AllOperators) {
  for (auto [name, kind] :
       {std::pair{"mean", OperatorKind::kMean},
        std::pair{"sum", OperatorKind::kSum},
        std::pair{"min", OperatorKind::kMin},
        std::pair{"max", OperatorKind::kMax},
        std::pair{"count", OperatorKind::kCount},
        std::pair{"range", OperatorKind::kRange},
        std::pair{"median", OperatorKind::kMedian},
        std::pair{"filter", OperatorKind::kFilter},
        std::pair{"sort", OperatorKind::kSort}}) {
    StructuralQuery q =
        parseQuery(std::string(name) + "(v, eshape={2,2})");
    EXPECT_EQ(q.op, kind) << name;
  }
}

TEST(QueryParser, AllModifiers) {
  StructuralQuery q = parseQuery(
      "mean(samples, eshape={2,2}, stride={4,4}, edge=pad, keys=preserve, "
      "skew=1000)");
  ASSERT_TRUE(q.stride.has_value());
  EXPECT_EQ(*q.stride, (nd::Coord{4, 4}));
  EXPECT_EQ(q.edgeMode, EdgeMode::kPad);
  EXPECT_EQ(q.keyMode, KeyMode::kPreserveCoords);
  EXPECT_EQ(q.skewBound, 1000);
}

TEST(QueryParser, WhitespaceTolerant) {
  StructuralQuery q = parseQuery(
      "  mean ( temperature ,  eshape = { 7 , 5 , 1 } )  ");
  EXPECT_EQ(q.variable, "temperature");
  EXPECT_EQ(q.extractionShape, (nd::Coord{7, 5, 1}));
}

TEST(QueryParser, NegativeAndScientificNumbers) {
  EXPECT_DOUBLE_EQ(
      parseQuery("filter(v, eshape={2}, threshold=-1.5)").filterThreshold,
      -1.5);
  EXPECT_DOUBLE_EQ(
      parseQuery("filter(v, eshape={2}, threshold=2.5e-3)").filterThreshold,
      0.0025);
}

TEST(QueryParser, Errors) {
  EXPECT_THROW(parseQuery(""), std::invalid_argument);
  EXPECT_THROW(parseQuery("frobnicate(v, eshape={2})"),
               std::invalid_argument);
  EXPECT_THROW(parseQuery("mean(v)"), std::invalid_argument);  // no eshape
  EXPECT_THROW(parseQuery("mean(v, eshape={2}"), std::invalid_argument);
  EXPECT_THROW(parseQuery("mean(v, eshape={2}) trailing"),
               std::invalid_argument);
  EXPECT_THROW(parseQuery("mean(v, bogus=1, eshape={2})"),
               std::invalid_argument);
  EXPECT_THROW(parseQuery("mean(v, edge=sideways, eshape={2})"),
               std::invalid_argument);
  EXPECT_THROW(parseQuery("mean(v, eshape={2,)"), std::invalid_argument);
}

TEST(QueryParser, RoundTrip) {
  for (const char* text :
       {"median(windspeed, eshape={2, 36, 36, 10})",
        "filter(m, eshape={2, 40, 40, 10}, threshold=3)",
        "mean(s, eshape={2, 2}, stride={4, 4}, edge=pad, keys=preserve, "
        "skew=1000)",
        "sort(day, eshape={24, 1})"}) {
    StructuralQuery q = parseQuery(text);
    StructuralQuery back = parseQuery(toQueryString(q));
    EXPECT_EQ(back.op, q.op);
    EXPECT_EQ(back.variable, q.variable);
    EXPECT_EQ(back.extractionShape, q.extractionShape);
    EXPECT_EQ(back.stride, q.stride);
    EXPECT_EQ(back.edgeMode, q.edgeMode);
    EXPECT_EQ(back.keyMode, q.keyMode);
    EXPECT_DOUBLE_EQ(back.filterThreshold, q.filterThreshold);
    EXPECT_EQ(back.skewBound, q.skewBound);
  }
}

// ---- fuzz: malformed text only ever throws std::invalid_argument ----

const std::vector<std::string>& validQueries() {
  static const std::vector<std::string> texts{
      "median(windspeed, eshape={2,36,36,10})",
      "mean(temperature, eshape={7,5,1}, edge=pad)",
      "mean(temperature[14:42, 10:25], eshape={7,5})",
      "filter(measurements, eshape={2,40,40,10}, threshold=3.0)",
      "mean(samples, eshape={2,2}, stride={4,4}, keys=preserve, skew=1000)",
      "filter(v, eshape={2}, threshold=-2.5e-3)"};
  return texts;
}

/// Parses `text`: a success or a std::invalid_argument is fine; any
/// other exception escapes and fails the test.
void parseOrInvalid(const std::string& text) {
  try {
    parseQuery(text);
  } catch (const std::invalid_argument&) {
  }
}

TEST(QueryParserFuzz, EveryTruncationIsInvalid) {
  for (const std::string& text : validQueries()) {
    ASSERT_NO_THROW(parseQuery(text)) << text;
    for (std::size_t cut = 0; cut < text.size(); ++cut) {
      EXPECT_THROW(parseQuery(text.substr(0, cut)), std::invalid_argument)
          << "prefix " << cut << " of " << text;
    }
  }
}

TEST(QueryParserFuzz, SeededMutationsOnlyThrowInvalidArgument) {
  // 3000 seeded mutations of valid queries: character flips, deletions,
  // and insertions of tokens that stress the number and coordinate
  // scanners (overflowing integers and exponents, bare signs, ranks
  // past the maximum).
  const std::vector<std::string> tokens{
      "9223372036854775807", "99999999999999999999", "-9223372036854775808",
      "1e999", "-1e999", "1e-999", "nan", "inf", "e", "-", "+", ".", "{", "}",
      ",", "[", "]", ":", "=", "(", ")", "{1,2,3,4,5,6,7,8,9}", "0", "-1",
      "1.5", "eshape=", "stride={0}", "skew=1e300", "[0:9223372036854775807]",
      "[-9223372036854775808:9223372036854775807]"};
  std::mt19937_64 rng(0x9e71u);
  for (int iter = 0; iter < 3000; ++iter) {
    std::string text = validQueries()[rng() % validQueries().size()];
    const std::size_t edits = 1 + rng() % 4;
    for (std::size_t e = 0; e < edits; ++e) {
      const std::size_t at = rng() % (text.size() + 1);
      switch (rng() % 3) {
        case 0:
          if (at < text.size()) {
            text[at] = static_cast<char>(32 + rng() % 95);
          }
          break;
        case 1:
          text.erase(at, rng() % 6);
          break;
        default:
          text.insert(at, tokens[rng() % tokens.size()]);
          break;
      }
    }
    SCOPED_TRACE(text);
    parseOrInvalid(text);
  }
}

TEST(QueryParserFuzz, OutOfRangeNumbersAreInvalidArguments) {
  // Each of these once escaped as another exception type or converted
  // an out-of-range double to an integer.
  for (const char* text :
       {"filter(v, eshape={2}, threshold=1e999)",
        "mean(v, eshape={99999999999999999999})",
        "mean(v, eshape={1,2,3,4,5,6,7,8,9})",
        "mean(v, eshape={2}, skew=1e300)",
        "mean(v, eshape={2}, skew=nan)",
        "mean(v, eshape={2}, skew=2.5)",
        "mean(v[1.5:4], eshape={2})",
        "mean(v[-9223372036854775808:9223372036854775807], eshape={2})",
        "mean(v[0:1,0:1,0:1,0:1,0:1,0:1,0:1,0:1,0:1], eshape={2})"}) {
    EXPECT_THROW(parseQuery(text), std::invalid_argument) << text;
  }
}

}  // namespace
}  // namespace sidr::sh
