// util::json — the minimal parser/printer behind BENCH_*.json, bench_diff
// and trace_analyze.
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "util/contracts.hpp"

namespace vodbcast::util::json {
namespace {

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("true").as_bool(), true);
  EXPECT_EQ(parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parse("-1.5e3").as_number(), -1500.0);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParseTest, NestedStructure) {
  const auto v = parse(R"({"a":[1,2,{"b":"c"}],"d":{"e":null}})");
  ASSERT_TRUE(v.is_object());
  const auto& a = v.at("a").as_array();
  ASSERT_EQ(a.size(), 3U);
  EXPECT_DOUBLE_EQ(a[1].as_number(), 2.0);
  EXPECT_EQ(a[2].at("b").as_string(), "c");
  EXPECT_TRUE(v.at("d").at("e").is_null());
  EXPECT_TRUE(v.contains("d"));
  EXPECT_FALSE(v.contains("x"));
  EXPECT_EQ(v.find("x"), nullptr);
}

TEST(JsonParseTest, StringEscapes) {
  EXPECT_EQ(parse(R"("a\"b\\c\/d\n\t")").as_string(), "a\"b\\c/d\n\t");
  // BMP escape and a surrogate pair (U+1F600).
  EXPECT_EQ(parse(R"("\u00e9")").as_string(), "\xC3\xA9");
  EXPECT_EQ(parse(R"("\ud83d\ude00")").as_string(), "\xF0\x9F\x98\x80");
}

TEST(JsonParseTest, MalformedInputThrows) {
  EXPECT_THROW((void)parse(""), ParseError);
  EXPECT_THROW((void)parse("{"), ParseError);
  EXPECT_THROW((void)parse("[1,]"), ParseError);
  EXPECT_THROW((void)parse("{\"a\":1,}"), ParseError);
  EXPECT_THROW((void)parse("nul"), ParseError);
  EXPECT_THROW((void)parse("1 2"), ParseError);  // trailing garbage
}

TEST(JsonParseTest, WrongKindAccessorsContractCheck) {
  const auto v = parse("[1]");
  EXPECT_THROW((void)v.as_object(), ContractViolation);
  EXPECT_THROW((void)v.as_number(), ContractViolation);
  EXPECT_THROW((void)v.at("k"), ContractViolation);
}

TEST(JsonParseTest, DefaultedAccessors) {
  const auto v = parse(R"({"n":3,"s":"x"})");
  EXPECT_DOUBLE_EQ(v.number_or("n", 0.0), 3.0);
  EXPECT_DOUBLE_EQ(v.number_or("missing", -1.0), -1.0);
  EXPECT_EQ(v.string_or("s", ""), "x");
  EXPECT_EQ(v.string_or("missing", "fb"), "fb");
}

TEST(JsonParseTest, ParseJsonl) {
  const auto rows = parse_jsonl("{\"a\":1}\r\n\n{\"a\":2}\n");
  ASSERT_EQ(rows.size(), 2U);
  EXPECT_DOUBLE_EQ(rows[0].at("a").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(rows[1].at("a").as_number(), 2.0);
}

TEST(JsonDumpTest, RoundTrip) {
  const std::string text =
      R"({"arr":[1,2.5,true,null],"num":-3,"obj":{"k":"v \"q\""}})";
  const auto v = parse(text);
  // dump -> parse -> dump must be a fixed point even if the first dump
  // normalizes formatting.
  const auto dumped = dump(v);
  EXPECT_EQ(dump(parse(dumped)), dumped);
}

TEST(JsonDumpTest, QuoteEscapes) {
  EXPECT_EQ(quote("a\"b\\c\n"), R"("a\"b\\c\n")");
  EXPECT_EQ(quote(std::string_view("\x01", 1)), "\"\\u0001\"");
}

TEST(JsonDumpTest, NonFiniteNumbersBecomeNull) {
  Value v(std::numeric_limits<double>::infinity());
  EXPECT_EQ(dump(v), "null");
}

}  // namespace
}  // namespace vodbcast::util::json
