#include "support/json.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace chicsim::test_support {
namespace {

using util::json_escape;
using util::SimError;

TEST(Json, ParsesScalars) {
  EXPECT_EQ(parse_json("null").kind(), JsonValue::Kind::Null);
  EXPECT_TRUE(parse_json("true").as_bool());
  EXPECT_FALSE(parse_json("false").as_bool());
  EXPECT_DOUBLE_EQ(parse_json("3.25").as_number(), 3.25);
  EXPECT_DOUBLE_EQ(parse_json("-1e3").as_number(), -1000.0);
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesEscapes) {
  EXPECT_EQ(parse_json(R"("a\"b\\c\nd")").as_string(), "a\"b\\c\nd");
  // \u escape decodes to UTF-8.
  EXPECT_EQ(parse_json(R"("é")").as_string(), "\xc3\xa9");
}

TEST(Json, ParsesNestedStructures) {
  JsonValue v = parse_json(R"({"a": [1, 2, {"b": true}], "c": "x"})");
  ASSERT_EQ(v.kind(), JsonValue::Kind::Object);
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->size(), 3u);
  EXPECT_DOUBLE_EQ(a->items()[0].as_number(), 1.0);
  EXPECT_TRUE(a->items()[2].find("b")->as_bool());
  EXPECT_EQ(v.find("c")->as_string(), "x");
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(parse_json(""), SimError);
  EXPECT_THROW(parse_json("{"), SimError);
  EXPECT_THROW(parse_json("[1,]"), SimError);
  EXPECT_THROW(parse_json("{\"a\": 1,}"), SimError);
  EXPECT_THROW(parse_json("nul"), SimError);
  EXPECT_THROW(parse_json("1 2"), SimError);  // trailing garbage
  EXPECT_THROW(parse_json("\"unterminated"), SimError);
}

TEST(Json, EscapeRoundTrips) {
  std::string nasty = "a\"b\\c\nd\te\x01";
  std::string quoted = "\"" + json_escape(nasty) + "\"";
  EXPECT_EQ(parse_json(quoted).as_string(), nasty);
}

}  // namespace
}  // namespace chicsim::test_support
