#include "util/json.h"

#include <cmath>
#include <cstring>

#include "gtest/gtest.h"

namespace limbo::util {
namespace {

TEST(JsonParse, Scalars) {
  auto v = ParseJson("42");
  ASSERT_TRUE(v.ok()) << v.status().message();
  EXPECT_EQ(v->kind, JsonValue::Kind::kInteger);
  EXPECT_EQ(v->integer, 42u);

  v = ParseJson("-3.5");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->kind, JsonValue::Kind::kNumber);
  EXPECT_DOUBLE_EQ(v->number, -3.5);

  v = ParseJson("true");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->kind, JsonValue::Kind::kBoolean);
  EXPECT_TRUE(v->boolean);

  v = ParseJson("null");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->kind, JsonValue::Kind::kNull);

  v = ParseJson("\"hi\\n\\\"there\\\"\"");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->kind, JsonValue::Kind::kString);
  EXPECT_EQ(v->str, "hi\n\"there\"");
}

TEST(JsonParse, NestedObjectPreservesKeyOrder) {
  auto v = ParseJson(
      R"({"b": [1, 2.0, "x"], "a": {"inner": false}, "c": null})");
  ASSERT_TRUE(v.ok()) << v.status().message();
  ASSERT_EQ(v->kind, JsonValue::Kind::kObject);
  ASSERT_EQ(v->object.size(), 3u);
  EXPECT_EQ(v->object[0].first, "b");
  EXPECT_EQ(v->object[1].first, "a");
  EXPECT_EQ(v->object[2].first, "c");
  const JsonValue* b = v->Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->kind, JsonValue::Kind::kArray);
  ASSERT_EQ(b->array.size(), 3u);
  EXPECT_EQ(b->array[0].kind, JsonValue::Kind::kInteger);
  EXPECT_EQ(b->array[1].kind, JsonValue::Kind::kNumber);
  EXPECT_EQ(b->array[2].kind, JsonValue::Kind::kString);
  const JsonValue* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  const JsonValue* inner = a->Find("inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_FALSE(inner->boolean);
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(JsonParse, UnicodeEscapeAscii) {
  auto v = ParseJson("\"\\u0041\\u000a\"");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->str, "A\n");
  EXPECT_FALSE(ParseJson("\"\\u00e9\"").ok());
}

TEST(JsonParse, RejectsMalformed) {
  const char* bad[] = {
      "",           "{",           "[1,",       "{\"a\"}",  "{\"a\":}",
      "tru",        "nul",         "\"open",    "1 2",      "{\"a\":1,}",
      "[1]]",       "{1: 2}",      "\"\\q\"",   "--1",      "1.2.3",
  };
  for (const char* text : bad) {
    EXPECT_FALSE(ParseJson(text).ok()) << "accepted: " << text;
  }
}

TEST(JsonParse, NestingCapAcceptsTheCapAndRejectsOneMore) {
  const std::string at_cap =
      std::string(kMaxJsonDepth, '[') + std::string(kMaxJsonDepth, ']');
  EXPECT_TRUE(ParseJson(at_cap).ok());
  std::string objects;
  for (size_t i = 0; i < kMaxJsonDepth; ++i) objects += "{\"k\":";
  objects += "1" + std::string(kMaxJsonDepth, '}');
  EXPECT_TRUE(ParseJson(objects).ok());

  auto over = ParseJson("[" + at_cap + "]");
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(over.status().message().find("nesting"), std::string::npos);
  EXPECT_FALSE(ParseJson("{\"k\":" + objects + "}").ok());
}

// One untrusted line of a million '[' used to recurse a million frames
// deep and overflow the stack; now it is a typed error.
TEST(JsonParse, MillionDeepNestingIsATypedError) {
  const std::string deep(1000000, '[');
  auto v = ParseJson(deep);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
  auto mixed = ParseJson(std::string(500000, '[') + "{\"a\":" +
                         std::string(500000, '['));
  EXPECT_FALSE(mixed.ok());
}

TEST(JsonParse, ErrorsCarryOffset) {
  auto v = ParseJson("{\"a\": @}");
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.status().message().find("offset"), std::string::npos);
}

TEST(JsonAppend, StringEscaping) {
  std::string out;
  AppendJsonString("a\"b\\c\nd\te\rf\x01g", &out);
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\te\\rf\\u0001g\"");
  auto back = ParseJson(out);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->str, "a\"b\\c\nd\te\rf\x01g");
}

TEST(JsonAppend, NumberRoundTripsBitExactly) {
  const double values[] = {0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 1e-300, 1e300,
                           123456789.0};
  for (double d : values) {
    std::string out;
    AppendJsonNumber(d, &out);
    auto back = ParseJson(out);
    ASSERT_TRUE(back.ok()) << out;
    ASSERT_EQ(back->kind, JsonValue::Kind::kNumber) << out;
    EXPECT_EQ(std::memcmp(&back->number, &d, sizeof(double)), 0) << out;
  }
}

TEST(JsonAppend, IntegralDoubleStaysANumberToken) {
  std::string out;
  AppendJsonNumber(4.0, &out);
  EXPECT_EQ(out, "4.0");
}

std::string Canonical(const std::string& text) {
  auto parsed = ParseJson(text);
  EXPECT_TRUE(parsed.ok()) << text;
  std::string out;
  AppendCanonicalJson(*parsed, &out);
  return out;
}

// The canonical form backs the serve-layer response-cache key: two
// texts that parse to the same value must canonicalize to the same
// bytes regardless of whitespace or object-key order.
TEST(JsonCanonical, CollapsesWhitespaceAndKeyOrder) {
  const std::string compact = Canonical("{\"a\":1,\"b\":[true,null,\"x\"]}");
  EXPECT_EQ(compact, "{\"a\":1,\"b\":[true,null,\"x\"]}");
  EXPECT_EQ(Canonical("{ \"b\": [ true, null, \"x\" ],\n  \"a\": 1 }"),
            compact);
}

TEST(JsonCanonical, SortsNestedObjectKeys) {
  EXPECT_EQ(Canonical("{\"z\":{\"b\":2,\"a\":1},\"a\":0}"),
            "{\"a\":0,\"z\":{\"a\":1,\"b\":2}}");
}

TEST(JsonCanonical, ArrayOrderIsPreserved) {
  EXPECT_EQ(Canonical("[3,2,1]"), "[3,2,1]");
}

TEST(JsonCanonical, StringsAndNumbersMatchTheirAppenders) {
  std::string want = "{\"k\":";
  AppendJsonNumber(1.0 / 3.0, &want);
  want += ",\"s\":";
  AppendJsonString("a\nb", &want);
  want.push_back('}');
  EXPECT_EQ(Canonical("{\"s\":\"a\\nb\",\"k\":0.3333333333333333}"), want);
}

}  // namespace
}  // namespace limbo::util
