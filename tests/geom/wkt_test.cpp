#include "geom/wkt.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cstdint>
#include <cstdio>
#include <sstream>

#include "data/synthetic.hpp"
#include "fuzz_cases.hpp"
#include "test_support.hpp"

namespace psclip::geom {
namespace {

TEST(Wkt, WriteSingleRing) {
  const PolygonSet p = make_polygon({{0, 0}, {4, 0}, {4, 4}});
  const std::string w = to_wkt(p);
  EXPECT_NE(w.find("MULTIPOLYGON"), std::string::npos);
  EXPECT_NE(w.find("0 0"), std::string::npos);
  EXPECT_NE(w.find("4 4"), std::string::npos);
}

TEST(Wkt, EmptySet) {
  EXPECT_EQ(to_wkt(PolygonSet{}), "MULTIPOLYGON EMPTY");
  const auto parsed = from_wkt("MULTIPOLYGON EMPTY");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->empty());
}

TEST(Wkt, RoundTripPreservesGeometry) {
  PolygonSet p = make_polygon({{0.5, -1.25}, {4, 0}, {4.75, 4.5}, {-1, 3}});
  p.add({{10, 10}, {12, 10}, {11, 13}});
  const auto parsed = from_wkt(to_wkt(p));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->num_contours(), 2u);
  ASSERT_EQ(parsed->contours[0].size(), 4u);
  for (std::size_t c = 0; c < 2; ++c)
    for (std::size_t i = 0; i < p.contours[c].size(); ++i)
      EXPECT_EQ(parsed->contours[c][i], p.contours[c][i]);
}

TEST(Wkt, ParsePolygonKeyword) {
  const auto p = from_wkt("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))");
  ASSERT_TRUE(p.has_value());
  ASSERT_EQ(p->num_contours(), 1u);
  EXPECT_EQ(p->contours[0].size(), 4u);  // closing vertex dropped
  EXPECT_DOUBLE_EQ(signed_area(*p), 16.0);
}

TEST(Wkt, ParsePolygonWithHoleRing) {
  const auto p = from_wkt(
      "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 4, 2 2))");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->num_contours(), 2u);
}

TEST(Wkt, ParseCaseInsensitiveAndWhitespace) {
  const auto p = from_wkt("  multipolygon ( (( 0 0 , 1 0 , 0 1 )) )");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->num_contours(), 1u);
}

TEST(Wkt, ParseScientificNotation) {
  const auto p = from_wkt("POLYGON ((0 0, 1e2 0, 1e2 1.5e1, 0 15))");
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(signed_area(*p), 1500.0);
}

TEST(Wkt, RejectsMalformed) {
  EXPECT_FALSE(from_wkt("").has_value());
  EXPECT_FALSE(from_wkt("LINESTRING (0 0, 1 1)").has_value());
  EXPECT_FALSE(from_wkt("POLYGON 0 0, 1 1").has_value());
  EXPECT_FALSE(from_wkt("POLYGON ((0 0, 1 1)").has_value());   // unclosed
  EXPECT_FALSE(from_wkt("POLYGON ((0 0, 1 1))").has_value());  // 2 points
  EXPECT_FALSE(from_wkt("POLYGON ((a b, c d, e f))").has_value());
}

// ---- Hostile-input hardening: every rejection carries a psclip::Error ----
// with the right taxonomy code and the byte offset of the first defect, so
// a defective feed can be diagnosed without bisecting the input by hand.

TEST(Wkt, RejectsNonFiniteCoordinates) {
  // std::from_chars happily parses "inf" and "nan"; the parser must not.
  for (const char* bad :
       {"POLYGON ((0 0, inf 0, 1 1))", "POLYGON ((0 0, 1 nan, 1 1))",
        "POLYGON ((-inf 0, 1 0, 1 1))", "POLYGON ((0 0, 1 0, NaN NaN))"}) {
    Error err(ErrorCode::kParse, "");
    EXPECT_FALSE(from_wkt(bad, &err).has_value()) << bad;
  }
  Error err(ErrorCode::kParse, "");
  ASSERT_FALSE(from_wkt("POLYGON ((0 0, inf 0, 1 1))", &err).has_value());
  EXPECT_EQ(err.code(), ErrorCode::kNonFinite);
  EXPECT_EQ(err.offset(), 15u);  // points at the 'i' of "inf"
}

TEST(Wkt, RejectsOverflowingCoordinates) {
  Error err(ErrorCode::kParse, "");
  ASSERT_FALSE(from_wkt("POLYGON ((0 0, 1e999 0, 1 1))", &err).has_value());
  EXPECT_EQ(err.code(), ErrorCode::kNonFinite);
  EXPECT_NE(std::string(err.what()).find("overflow"), std::string::npos)
      << err.what();
  EXPECT_EQ(err.offset(), 15u);
}

TEST(Wkt, RejectsTruncationWithOffset) {
  const std::string doc = "POLYGON ((0 0, 4 0, 4 4";
  Error err(ErrorCode::kParse, "");
  ASSERT_FALSE(from_wkt(doc, &err).has_value());
  EXPECT_EQ(err.code(), ErrorCode::kParse);
  EXPECT_LE(err.offset(), doc.size());
  EXPECT_NE(err.offset(), Error::kNoOffset);
}

TEST(Wkt, RejectsTrailingGarbage) {
  Error err(ErrorCode::kParse, "");
  ASSERT_FALSE(
      from_wkt("POLYGON ((0 0, 4 0, 4 4)) SELECT 1", &err).has_value());
  EXPECT_EQ(err.code(), ErrorCode::kParse);
  EXPECT_EQ(err.offset(), 26u);  // first byte past the geometry
}

TEST(Wkt, RejectsUnknownTypeWithError) {
  Error err(ErrorCode::kParse, "");
  ASSERT_FALSE(from_wkt("LINESTRING (0 0, 1 1)", &err).has_value());
  EXPECT_EQ(err.code(), ErrorCode::kParse);
  EXPECT_EQ(err.offset(), 0u);
  EXPECT_NE(std::string(err.what()).find("POLYGON"), std::string::npos);
}

TEST(Wkt, ShortRingReportsRingStart) {
  Error err(ErrorCode::kParse, "");
  ASSERT_FALSE(from_wkt("POLYGON ((0 0, 1 1))", &err).has_value());
  EXPECT_EQ(err.code(), ErrorCode::kParse);
  EXPECT_NE(std::string(err.what()).find("at least 3"), std::string::npos)
      << err.what();
}

TEST(Wkt, ErrorOutParamIsOptional) {
  // Source compatibility: the error pointer defaults to nullptr.
  EXPECT_FALSE(from_wkt("POLYGON ((0 0, inf 0, 1 1))").has_value());
}

// ---- Output format contract: "%.17g" bytes, locale-free, exact ---------

/// Reference writer: the same layout as to_wkt, every coordinate through
/// snprintf("%.17g") (the process's C locale is "C" throughout).
std::string printf_wkt(const PolygonSet& p) {
  std::string out = "MULTIPOLYGON (";
  char buf[64];
  const auto vertex = [&](const Point& v) {
    std::snprintf(buf, sizeof buf, "%.17g %.17g", v.x, v.y);
    out += buf;
  };
  for (std::size_t k = 0; k < p.contours.size(); ++k) {
    out += k ? ", ((" : "((";
    const Contour& c = p.contours[k];
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (i) out += ", ";
      vertex(c[i]);
    }
    out += ", ";
    vertex(c[0]);
    out += "))";
  }
  return out + ")";
}

/// True when both sets hold the same contours with bit-identical
/// coordinates (so -0.0 and 0.0 differ).
bool bit_identical(const PolygonSet& a, const PolygonSet& b) {
  if (a.num_contours() != b.num_contours()) return false;
  for (std::size_t k = 0; k < a.contours.size(); ++k) {
    const Contour& ca = a.contours[k];
    const Contour& cb = b.contours[k];
    if (ca.size() != cb.size()) return false;
    for (std::size_t i = 0; i < ca.size(); ++i)
      if (std::bit_cast<std::uint64_t>(ca[i].x) !=
              std::bit_cast<std::uint64_t>(cb[i].x) ||
          std::bit_cast<std::uint64_t>(ca[i].y) !=
              std::bit_cast<std::uint64_t>(cb[i].y))
        return false;
  }
  return true;
}

TEST(Wkt, CoordinatesMatchPrintfPercent17g) {
  const double edge[] = {-0.0,   0.0,  5e-324, DBL_MAX, -DBL_MAX,
                         DBL_MIN, 0.1, 1e21,   1e-7,    9007199254740993.0,
                         1,      2,    7,      -3,      42,
                         100,    1e16, 1e17,   123.456, -0.5};
  PolygonSet p;
  for (const double a : edge)
    for (const double b : edge) p.add({{a, b}, {b, -a}, {1, a}});
  const std::string w = to_wkt(p);
  EXPECT_EQ(w, printf_wkt(p));
  // Spot checks of the reference itself.
  EXPECT_EQ(to_wkt(make_polygon({{-0.0, 5e-324}, {0.1, 1e21}, {1e-7, 3}})),
            "MULTIPOLYGON (((-0 4.9406564584124654e-324, "
            "0.10000000000000001 1e+21, 9.9999999999999995e-08 3, "
            "-0 4.9406564584124654e-324)))");
  const auto back = from_wkt(w);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(bit_identical(*back, p));
}

TEST(Wkt, RoundTripIsBitExactOnFuzzCorpus) {
  const auto cases = fuzz::make_cases();
  ASSERT_EQ(cases.size(), 216u);
  for (const auto& c : cases) {
    const auto in = fuzz::make_inputs(c);
    for (const PolygonSet* p : {&in.a, &in.b}) {
      const auto back = from_wkt(to_wkt(*p));
      ASSERT_TRUE(back.has_value()) << c.repro();
      EXPECT_TRUE(bit_identical(*back, *p)) << c.repro();
    }
  }
}

TEST(Wkt, RoundTripIsBitExactOnLargeSyntheticPair) {
  const auto pair = data::synthetic_pair(1, 24000);
  for (const PolygonSet* p : {&pair.subject, &pair.clip}) {
    const std::string w = to_wkt(*p);
    const auto back = from_wkt(w);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(bit_identical(*back, *p));
    EXPECT_EQ(w, printf_wkt(*p));
  }
}

TEST(Wkt, OutputIgnoresGlobalLocale) {
  PolygonSet p = make_polygon({{12345.5, 0}, {-1234567.25, 0.5}, {3, 1e6}});
  const std::string classic = to_wkt(p);
  std::string localized;
  {
    test::ScopedCommaDecimalLocale comma;
    std::ostringstream probe;  // the locale really is in force
    probe << 12345.5;
    ASSERT_EQ(probe.str(), "12.345,5");
    localized = to_wkt(p);
    const auto back = from_wkt(localized);
    ASSERT_TRUE(back.has_value()) << localized;
    EXPECT_TRUE(bit_identical(*back, p));
  }
  EXPECT_EQ(localized, classic);
  EXPECT_NE(classic.find("12345.5 0"), std::string::npos) << classic;
}

}  // namespace
}  // namespace psclip::geom
