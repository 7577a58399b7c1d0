//===- JsonUtilsTest.cpp - Flattening JSON reader tests -------------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the flattening JSON reader and the glob matcher behind
/// tdl-bench-diff: nested objects and arrays flatten to dot-joined paths,
/// integers stay exact, malformed documents are rejected with a position,
/// and '*' globbing matches the metric-key shapes the gates use.
///
//===----------------------------------------------------------------------===//

#include "support/JsonUtils.h"

#include <gtest/gtest.h>

using namespace tdl;
using namespace tdl::json;

namespace {

TEST(JsonFlattenTest, FlattensNestedObjectsAndArrays) {
  std::map<std::string, FlatValue> Out;
  std::string Err;
  ASSERT_TRUE(flattenJson(
      R"({"a": 1, "b": {"c": 2.5, "d": [true, "x", null]}, "e": []})", Out,
      Err))
      << Err;
  ASSERT_EQ(Out.size(), 5u);
  EXPECT_TRUE(Out.at("a").IsInt);
  EXPECT_EQ(Out.at("a").Int, 1);
  EXPECT_FALSE(Out.at("b.c").IsInt);
  EXPECT_DOUBLE_EQ(Out.at("b.c").Num, 2.5);
  EXPECT_EQ(Out.at("b.d.0").K, FlatValue::Kind::Bool);
  EXPECT_TRUE(Out.at("b.d.0").B);
  EXPECT_EQ(Out.at("b.d.1").Str, "x");
  EXPECT_EQ(Out.at("b.d.2").K, FlatValue::Kind::Null);
  // "e" is an empty array: no leaves, no key.
  EXPECT_EQ(Out.count("e"), 0u);
}

TEST(JsonFlattenTest, IntegersStayExactBeyondDoublePrecision) {
  std::map<std::string, FlatValue> Out;
  std::string Err;
  ASSERT_TRUE(flattenJson(R"({"big": 9007199254740993, "neg": -42})", Out,
                          Err));
  // 2^53 + 1 is not representable as a double; the int64 path keeps it.
  EXPECT_TRUE(Out.at("big").IsInt);
  EXPECT_EQ(Out.at("big").Int, 9007199254740993LL);
  EXPECT_EQ(Out.at("neg").Int, -42);
}

TEST(JsonFlattenTest, DecodesStringEscapes) {
  std::map<std::string, FlatValue> Out;
  std::string Err;
  ASSERT_TRUE(flattenJson(R"({"s": "a\"b\\c\nA"})", Out, Err));
  EXPECT_EQ(Out.at("s").Str, "a\"b\\c\nA");
}

TEST(JsonFlattenTest, RejectsMalformedDocuments) {
  std::map<std::string, FlatValue> Out;
  std::string Err;
  EXPECT_FALSE(flattenJson(R"({"a": 1,})", Out, Err));
  EXPECT_NE(Err.find("at byte"), std::string::npos);
  EXPECT_FALSE(flattenJson(R"({"a": 1} trailing)", Out, Err));
  EXPECT_FALSE(flattenJson(R"({"a": "unterminated)", Out, Err));
  EXPECT_FALSE(flattenJson(R"({"a": 12.})", Out, Err));
  EXPECT_FALSE(flattenJson("", Out, Err));
  // Hostile nesting is depth-capped, not a stack overflow.
  std::string Deep(200, '[');
  EXPECT_FALSE(flattenJson(Deep, Out, Err));
}

TEST(JsonFlattenTest, RendersValuesForDeltaTables) {
  std::map<std::string, FlatValue> Out;
  std::string Err;
  ASSERT_TRUE(
      flattenJson(R"({"i": 200, "d": 1.5, "s": "x", "b": false})", Out, Err));
  EXPECT_EQ(Out.at("i").render(), "200");
  EXPECT_EQ(Out.at("d").render(), "1.5");
  EXPECT_EQ(Out.at("s").render(), "\"x\"");
  EXPECT_EQ(Out.at("b").render(), "false");
}

TEST(JsonGlobTest, StarMatchesAnyRun) {
  EXPECT_TRUE(globMatch("*", "anything"));
  EXPECT_TRUE(globMatch("*", ""));
  EXPECT_TRUE(globMatch("strategy.tuning_db.*", "strategy.tuning_db.hits"));
  EXPECT_FALSE(globMatch("strategy.tuning_db.*", "strategy.tune"));
  EXPECT_TRUE(globMatch("*_invocations", "interp.matcher_invocations"));
  EXPECT_FALSE(globMatch("*_invocations", "invocation_count"));
  EXPECT_TRUE(globMatch("a*b*c", "a-x-b-y-c"));
  EXPECT_FALSE(globMatch("a*b*c", "a-x-c"));
  EXPECT_TRUE(globMatch("exact.key", "exact.key"));
  EXPECT_FALSE(globMatch("exact.key", "exact.keys"));
}

} // namespace
