#include "support/json.hpp"

#include <gtest/gtest.h>

namespace augem::runtime {
namespace {

TEST(Json, DumpIsCompactSortedAndIntegerExact) {
  Json j = Json::object();
  j["b"] = Json(2);
  j["a"] = Json(1.5);
  j["s"] = Json("hi");
  j["flag"] = Json(true);
  // Keys sorted, no whitespace, integers without a fractional part.
  EXPECT_EQ(j.dump(), "{\"a\":1.5,\"b\":2,\"flag\":true,\"s\":\"hi\"}");
}

TEST(Json, ParseDumpRoundTrip) {
  const std::string text =
      "{\"arr\":[1,2,3],\"nested\":{\"x\":null,\"y\":false},\"pi\":3.25}";
  const auto doc = parse_json(text);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->dump(), text);
}

TEST(Json, StringEscapesRoundTrip) {
  Json j = Json::object();
  j["s"] = Json(std::string("a\"b\\c\nd\te"));
  const auto back = parse_json(j.dump());
  ASSERT_TRUE(back.has_value());
  const auto s = back->string("s");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(*s, "a\"b\\c\nd\te");
}

TEST(Json, TypedHelpersReturnNulloptOnMissingOrWrongType) {
  const auto doc = parse_json("{\"n\":4,\"s\":\"x\",\"b\":true}");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->number("n"), 4.0);
  EXPECT_EQ(doc->string("s"), "x");
  EXPECT_EQ(doc->boolean("b"), true);
  EXPECT_FALSE(doc->number("s").has_value());   // wrong type
  EXPECT_FALSE(doc->string("n").has_value());   // wrong type
  EXPECT_FALSE(doc->boolean("n").has_value());  // wrong type
  EXPECT_FALSE(doc->number("missing").has_value());
}

TEST(Json, MalformedInputsReturnNulloptNotThrow) {
  // This tolerance is what makes a corrupt database line a skipped record
  // instead of a crash.
  for (const char* bad :
       {"", "{", "}", "[1,", "{\"a\":}", "{\"a\":1,}", "tru", "\"unterminated",
        "{\"a\":1} trailing", "nan", "{\"a\" 1}", "[1 2]"}) {
    EXPECT_FALSE(parse_json(bad).has_value()) << "input: " << bad;
  }
}

TEST(Json, DepthLimitRejectsPathologicalNesting) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "[";
  for (int i = 0; i < 200; ++i) deep += "]";
  EXPECT_FALSE(parse_json(deep).has_value());
  // Reasonable nesting still parses.
  EXPECT_TRUE(parse_json("[[[[[[[[1]]]]]]]]").has_value());
}

TEST(Json, WhitespaceTolerated) {
  const auto doc = parse_json("  { \"a\" : [ 1 , 2 ] , \"b\" : null }  ");
  ASSERT_TRUE(doc.has_value());
  ASSERT_NE(doc->get("a"), nullptr);
  EXPECT_EQ(doc->get("a")->items().size(), 2u);
}

}  // namespace
}  // namespace augem::runtime
