/**
 * @file
 * Unit tests for src/common: RNG determinism, Zipf shape, stats
 * containers and bit utilities.
 */

#include <gtest/gtest.h>

#include <cstring>

#include <limits>
#include <sstream>

#include "common/bitutils.hpp"
#include "common/csv.hpp"
#include "common/json.hpp"
#include "common/json_value.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/sim_error.hpp"
#include "common/stats.hpp"

namespace apres {
namespace {

TEST(Rng, SameSeedSameStream)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 5);
}

TEST(Rng, ReseedRestartsStream)
{
    Rng a(7);
    const std::uint64_t first = a.next();
    a.next();
    a.reseed(7);
    EXPECT_EQ(a.next(), first);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(3);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, ZeroSeedIsValid)
{
    Rng rng(0);
    EXPECT_NE(rng.next(), rng.next());
}

TEST(RunningStat, MomentsMatchSamples)
{
    RunningStat s;
    s.add(1.0);
    s.add(2.0);
    s.add(6.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 3.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 6.0);
    EXPECT_DOUBLE_EQ(s.sum(), 9.0);
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(RunningStat, ResetForgetsSamples)
{
    RunningStat s;
    s.add(5.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(StatSet, SetAccumulateGet)
{
    StatSet s;
    s.set("a", 1.0);
    s.accumulate("a", 2.0);
    s.accumulate("b", 5.0);
    EXPECT_DOUBLE_EQ(s.get("a"), 3.0);
    EXPECT_DOUBLE_EQ(s.get("b"), 5.0);
    EXPECT_DOUBLE_EQ(s.get("missing", -1.0), -1.0);
    EXPECT_TRUE(s.has("a"));
    EXPECT_FALSE(s.has("c"));
}

TEST(StatSet, MergeSumsOverlappingKeys)
{
    StatSet a;
    a.set("x", 1.0);
    a.set("y", 2.0);
    StatSet b;
    b.set("y", 3.0);
    b.set("z", 4.0);
    a.mergeSum(b);
    EXPECT_DOUBLE_EQ(a.get("x"), 1.0);
    EXPECT_DOUBLE_EQ(a.get("y"), 5.0);
    EXPECT_DOUBLE_EQ(a.get("z"), 4.0);
}

TEST(StatSet, DumpIsSorted)
{
    StatSet s;
    s.set("b", 2.0);
    s.set("a", 1.0);
    std::ostringstream oss;
    s.dump(oss);
    EXPECT_EQ(oss.str(), "a = 1\nb = 2\n");
}

TEST(BitUtils, PowerOfTwoChecks)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(128));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(96));
}

TEST(BitUtils, Log2Exact)
{
    EXPECT_EQ(log2Exact(1), 0u);
    EXPECT_EQ(log2Exact(128), 7u);
    EXPECT_EQ(log2Exact(1ull << 40), 40u);
}

TEST(BitUtils, Alignment)
{
    EXPECT_EQ(alignDown(130, 128), 128u);
    EXPECT_EQ(alignDown(128, 128), 128u);
    EXPECT_EQ(alignUp(129, 128), 256u);
    EXPECT_EQ(alignUp(128, 128), 128u);
}

TEST(BitUtils, DivCeil)
{
    EXPECT_EQ(divCeil(10, 3), 4u);
    EXPECT_EQ(divCeil(9, 3), 3u);
    EXPECT_EQ(divCeil(1, 128), 1u);
}

TEST(Stats, RatioHandlesZeroDenominator)
{
    EXPECT_DOUBLE_EQ(ratio(5.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(ratio(6.0, 2.0), 3.0);
}

TEST(Parse, StrictIntegersRejectGarbage)
{
    std::int64_t i = 0;
    EXPECT_TRUE(parseInt64Strict("-42", &i));
    EXPECT_EQ(i, -42);
    EXPECT_FALSE(parseInt64Strict("", &i));
    EXPECT_FALSE(parseInt64Strict("12abc", &i));
    EXPECT_FALSE(parseInt64Strict("12 ", &i));
    EXPECT_FALSE(parseInt64Strict("0x10", &i));
    EXPECT_FALSE(parseInt64Strict("99999999999999999999999", &i));

    std::uint64_t u = 0;
    EXPECT_TRUE(parseUint64Strict("18446744073709551615", &u));
    EXPECT_EQ(u, ~0ull);
    EXPECT_FALSE(parseUint64Strict("-1", &u));
    EXPECT_FALSE(parseUint64Strict("18446744073709551616", &u));
}

TEST(Parse, StrictDoubleRejectsGarbageAndNonFinite)
{
    double d = 0.0;
    EXPECT_TRUE(parseDoubleStrict("2.5e-3", &d));
    EXPECT_DOUBLE_EQ(d, 2.5e-3);
    EXPECT_FALSE(parseDoubleStrict("", &d));
    EXPECT_FALSE(parseDoubleStrict("1.5x", &d));
    EXPECT_FALSE(parseDoubleStrict("inf", &d));
    EXPECT_FALSE(parseDoubleStrict("nan", &d));
}

TEST(Parse, StrictBoolAcceptsCommonSpellings)
{
    bool b = false;
    EXPECT_TRUE(parseBoolStrict("true", &b));
    EXPECT_TRUE(b);
    EXPECT_TRUE(parseBoolStrict("0", &b));
    EXPECT_FALSE(b);
    EXPECT_TRUE(parseBoolStrict("on", &b));
    EXPECT_TRUE(b);
    EXPECT_FALSE(parseBoolStrict("TRUE", &b));
    EXPECT_FALSE(parseBoolStrict("2", &b));
}

TEST(Parse, OptionWrappersFatalOnBadInput)
{
    EXPECT_EQ(parseUintOption("--sms", "15"), 15u);
    EXPECT_EXIT(parseUintOption("--sms", "lots"),
                testing::ExitedWithCode(1), "--sms");
    EXPECT_EXIT(parsePositiveUintOption("--interval", "0"),
                testing::ExitedWithCode(1), "--interval");
    EXPECT_EXIT(parsePositiveDoubleOption("--scale", "-1.5"),
                testing::ExitedWithCode(1), "--scale");
    EXPECT_EXIT(parsePositiveDoubleOption("--scale", "fast"),
                testing::ExitedWithCode(1), "--scale");
}

TEST(Parse, FormatDoubleRoundTrips)
{
    for (const double v : {0.0, 1.0, -2.5, 0.1, 1.0 / 3.0, 12345.678,
                           2.2250738585072014e-308}) {
        double back = 0.0;
        ASSERT_TRUE(parseDoubleStrict(formatDouble(v), &back))
            << formatDouble(v);
        EXPECT_EQ(back, v) << formatDouble(v);
    }
}

TEST(Parse, FormatDoubleRoundTripsEdgeValues)
{
    // The shortest-round-trip contract must hold bit-exactly even at
    // the awkward corners: denormals, the extremes of the exponent
    // range, negative zero, and integers near 2^64 that a double can
    // only represent approximately.
    const double cases[] = {
        -0.0,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max(),
        std::numeric_limits<double>::epsilon(),
        1.0 + std::numeric_limits<double>::epsilon(),
        static_cast<double>(UINT64_MAX),
        static_cast<double>(UINT64_MAX - 1024),
        9007199254740993.0, // 2^53 + 1, rounds to 2^53
        1e-323,             // deep denormal
        5e-324,             // the smallest positive double
        123456789.123456789,
        2.5e-3,
    };
    for (const double v : cases) {
        const std::string text = formatDouble(v);
        double back = 0.0;
        ASSERT_TRUE(parseDoubleStrict(text, &back)) << text;
        EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0)
            << text << " reparsed as " << formatDouble(back);
    }
}

TEST(Parse, FormatDoubleIsCanonical)
{
    // Exact integers print without an exponent or trailing ".0", and
    // the output never depends on the global locale.
    EXPECT_EQ(formatDouble(1.0), "1");
    EXPECT_EQ(formatDouble(-0.0), "-0");
    EXPECT_EQ(formatDouble(0.5), "0.5");
    EXPECT_EQ(formatDouble(1e100), "1e+100");
}

TEST(Csv, EscapesFieldsPerRfc4180)
{
    EXPECT_EQ(csvEscapeField("plain"), "plain");
    EXPECT_EQ(csvEscapeField("a,b"), "\"a,b\"");
    EXPECT_EQ(csvEscapeField("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(csvEscapeField("line\nbreak"), "\"line\nbreak\"");
    EXPECT_EQ(csvEscapeField(""), "");
}

TEST(Csv, WriterQuotesLabelsAndHeaders)
{
    CsvWriter csv("work,load");
    StatSet row;
    row.set("a\"quote", 1.0);
    csv.addRow("KM:a,b", row);
    std::ostringstream os;
    csv.write(os);
    EXPECT_EQ(os.str(),
              "\"work,load\",\"a\"\"quote\"\n\"KM:a,b\",1\n");
}

TEST(Json, WriterEscapesAndNests)
{
    std::ostringstream os;
    {
        JsonWriter json(os);
        json.beginObject();
        json.field("name", "a\"b\\c\n");
        json.field("count", std::uint64_t{18446744073709551615ull});
        json.field("ok", true);
        json.beginArray("runs");
        json.beginObject();
        json.field("ipc", 1.5);
        json.endObject();
        json.endArray();
        json.endObject();
    }
    const std::string text = os.str();
    EXPECT_NE(text.find("\"name\": \"a\\\"b\\\\c\\n\""), std::string::npos);
    EXPECT_NE(text.find("\"count\": 18446744073709551615"),
              std::string::npos);
    EXPECT_NE(text.find("\"ipc\": 1.5"), std::string::npos);
}

TEST(Json, NonFiniteDoublesBecomeTaggedSentinels)
{
    // null would erase the distinction between "stat was NaN" and
    // "stat was absent"; the writer emits tagged string sentinels so
    // consumers can tell (and scripts can skip them explicitly).
    std::ostringstream os;
    {
        JsonWriter json(os);
        json.beginObject();
        json.field("nan", std::numeric_limits<double>::quiet_NaN());
        json.field("inf", std::numeric_limits<double>::infinity());
        json.field("ninf", -std::numeric_limits<double>::infinity());
        json.endObject();
        json.finish();
    }
    const std::string text = os.str();
    EXPECT_NE(text.find("\"nan\": \"NaN\""), std::string::npos);
    EXPECT_NE(text.find("\"inf\": \"Infinity\""), std::string::npos);
    EXPECT_NE(text.find("\"ninf\": \"-Infinity\""), std::string::npos);
}

TEST(Json, FinishThrowsOnUnclosedScopes)
{
    std::ostringstream os;
    JsonWriter json(os);
    json.beginObject();
    json.beginArray("runs");
    try {
        json.finish();
        FAIL() << "finish() accepted a truncated document";
    } catch (const SimError& e) {
        EXPECT_EQ(e.kind(), SimErrorKind::kSerialization);
    }
    // Recover so the destructor sees a closed document.
    json.endArray();
    json.endObject();
    json.finish();
}

TEST(Json, EndWithoutBeginThrows)
{
    std::ostringstream os;
    JsonWriter json(os);
    EXPECT_THROW(json.endObject(), SimError);
    EXPECT_THROW(json.endArray(), SimError);
}

TEST(Json, RawSplicesVerbatim)
{
    std::ostringstream os;
    JsonWriter json(os);
    json.beginObject();
    json.raw("result", "{\"ipc\": 1.5}");
    json.endObject();
    json.finish();
    EXPECT_NE(os.str().find("\"result\": {\"ipc\": 1.5}"),
              std::string::npos);
}

TEST(JsonValue, ParsesScalarsAndContainers)
{
    const JsonValue doc = JsonValue::parse(
        "{\"b\": true, \"n\": null, \"x\": -2.5e3,"
        " \"s\": \"a\\\"b\\\\c\\n\\u0041\","
        " \"arr\": [1, 2, 3], \"nested\": {\"k\": \"v\"}}");
    ASSERT_TRUE(doc.isObject());
    EXPECT_TRUE(doc.at("b").asBool());
    EXPECT_TRUE(doc.at("n").isNull());
    EXPECT_DOUBLE_EQ(doc.at("x").asDouble(), -2500.0);
    EXPECT_EQ(doc.at("s").asString(), "a\"b\\c\nA");
    ASSERT_EQ(doc.at("arr").size(), 3u);
    EXPECT_DOUBLE_EQ(doc.at("arr").at(1).asDouble(), 2.0);
    EXPECT_EQ(doc.at("nested").at("k").asString(), "v");
    EXPECT_TRUE(doc.has("b"));
    EXPECT_FALSE(doc.has("zzz"));
    EXPECT_EQ(doc.find("zzz"), nullptr);
}

TEST(JsonValue, Uint64SurvivesViaLexeme)
{
    // 2^64-1 is not representable as a double; the exact value must
    // round-trip through the preserved source lexeme.
    const JsonValue doc =
        JsonValue::parse("{\"seed\": 18446744073709551615}");
    EXPECT_EQ(doc.at("seed").asUint64(), ~0ull);
    EXPECT_EQ(doc.at("seed").numberLexeme(), "18446744073709551615");
}

TEST(JsonValue, WriterOutputReparses)
{
    std::ostringstream os;
    {
        JsonWriter json(os);
        json.beginObject();
        json.field("name", "a\"b\\c\n");
        json.field("count", std::uint64_t{18446744073709551615ull});
        json.beginArray("runs");
        json.beginObject();
        json.field("ipc", 1.5);
        json.endObject();
        json.endArray();
        json.endObject();
        json.finish();
    }
    const JsonValue doc = JsonValue::parse(os.str());
    EXPECT_EQ(doc.at("name").asString(), "a\"b\\c\n");
    EXPECT_EQ(doc.at("count").asUint64(), ~0ull);
    EXPECT_DOUBLE_EQ(doc.at("runs").at(0).at("ipc").asDouble(), 1.5);
}

TEST(JsonValue, RejectsMalformedDocuments)
{
    const char* bad[] = {
        "",
        "{",
        "{\"a\": }",
        "{\"a\": 1,}",       // trailing comma
        "[1 2]",
        "{'a': 1}",          // unquoted/single-quoted keys
        "{\"a\": 1} extra",  // trailing garbage
        "{\"a\": 01}",       // leading zero
        "\"unterminated",
        "{\"a\": tru}",
    };
    for (const char* text : bad) {
        try {
            JsonValue::parse(text);
            FAIL() << "accepted: " << text;
        } catch (const SimError& e) {
            EXPECT_EQ(e.kind(), SimErrorKind::kSerialization) << text;
            // Every parse error carries a byte offset.
            EXPECT_NE(std::string(e.detail()).find("at byte"),
                      std::string::npos)
                << text << " -> " << e.detail();
        }
    }
}

TEST(JsonValue, TypeMismatchesThrow)
{
    const JsonValue doc = JsonValue::parse("{\"x\": 1.5}");
    EXPECT_THROW(doc.at("x").asString(), SimError);
    EXPECT_THROW(doc.at("x").asBool(), SimError);
    EXPECT_THROW(doc.at("missing"), SimError);
    EXPECT_THROW(doc.at("x").asUint64(), SimError); // 1.5 is not a uint
    EXPECT_THROW(doc.at(std::size_t{0}), SimError); // not an array
}

} // namespace
} // namespace apres
