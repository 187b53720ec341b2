#include "geom/geojson.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "seq/vatti.hpp"
#include "test_support.hpp"

namespace psclip::geom {
namespace {

PolygonSet square(double x0, double y0, double s) {
  return make_polygon({{x0, y0}, {x0 + s, y0}, {x0 + s, y0 + s}, {x0, y0 + s}});
}

TEST(GeoJson, WriteSimplePolygon) {
  const std::string j = to_geojson(square(0, 0, 2));
  EXPECT_NE(j.find("\"type\":\"MultiPolygon\""), std::string::npos);
  EXPECT_NE(j.find("\"coordinates\""), std::string::npos);
  EXPECT_NE(j.find("[0,0]"), std::string::npos);
  EXPECT_NE(j.find("[2,2]"), std::string::npos);
}

TEST(GeoJson, RoundTripSimple) {
  const PolygonSet p = make_polygon({{0.5, -1.25}, {4, 0}, {4.75, 4.5}});
  const auto back = from_geojson(to_geojson(p));
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->num_contours(), 1u);
  EXPECT_NEAR(signed_area(*back), signed_area(p), 1e-12);
}

TEST(GeoJson, RoundTripWithHoles) {
  const PolygonSet diff = seq::vatti_clip(square(0, 0, 10), square(3, 3, 2),
                                          BoolOp::kDifference);
  const auto back = from_geojson(to_geojson(diff));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->num_contours(), 2u);
  int holes = 0;
  for (const auto& c : back->contours)
    if (c.hole) ++holes;
  EXPECT_EQ(holes, 1);
  EXPECT_NEAR(signed_area(*back), signed_area(diff), 1e-6);
}

TEST(GeoJson, ParsePolygonType) {
  const auto p = from_geojson(
      R"({"type":"Polygon","coordinates":[[[0,0],[4,0],[4,4],[0,4],[0,0]]]})");
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(signed_area(*p), 16.0);
}

TEST(GeoJson, ParseWithForeignMembersAndAltitude) {
  const auto p = from_geojson(
      R"({"bbox":[0,0,4,4],"type":"Polygon","crs":{"name":"x"},)"
      R"("coordinates":[[[0,0,7],[4,0,7],[0,4,7],[0,0,7]]]})");
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(signed_area(*p), 8.0);
}

TEST(GeoJson, ParseMultiPolygonWithHole) {
  const auto p = from_geojson(
      R"({"type":"MultiPolygon","coordinates":[)"
      R"([[[0,0],[10,0],[10,10],[0,10],[0,0]],[[2,2],[2,4],[4,4],[4,2],[2,2]]],)"
      R"([[[20,20],[22,20],[21,22],[20,20]]]]})");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->num_contours(), 3u);
  EXPECT_TRUE(p->contours[1].hole);
  EXPECT_FALSE(p->contours[2].hole);
}

TEST(GeoJson, EmptyMultiPolygon) {
  const auto p = from_geojson(R"({"type":"MultiPolygon","coordinates":[]})");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->empty());
}

TEST(GeoJson, RejectsMalformed) {
  EXPECT_FALSE(from_geojson("").has_value());
  EXPECT_FALSE(from_geojson("{}").has_value());
  EXPECT_FALSE(
      from_geojson(R"({"type":"Point","coordinates":[1,2]})").has_value());
  EXPECT_FALSE(
      from_geojson(R"({"type":"Polygon"})").has_value());
  EXPECT_FALSE(from_geojson(
                   R"({"type":"Polygon","coordinates":[[[0,0],[1,1]]]})")
                   .has_value());
}

// ---- Hostile-input hardening: positioned psclip::Error on rejection ----

TEST(GeoJson, RejectsNonFiniteCoordinates) {
  // JSON forbids inf/nan literals, but std::from_chars parses them — the
  // parser is the trust boundary and must reject them itself.
  const std::string doc =
      R"({"type":"Polygon","coordinates":[[[0,0],[inf,0],[1,1],[0,1]]]})";
  Error err(ErrorCode::kParse, "");
  ASSERT_FALSE(from_geojson(doc, &err).has_value());
  EXPECT_EQ(err.code(), ErrorCode::kNonFinite);
  EXPECT_EQ(err.offset(), doc.find("inf"));
}

TEST(GeoJson, RejectsOverflowingCoordinates) {
  const std::string doc =
      R"({"type":"Polygon","coordinates":[[[0,0],[1e999,0],[1,1],[0,1]]]})";
  Error err(ErrorCode::kParse, "");
  ASSERT_FALSE(from_geojson(doc, &err).has_value());
  EXPECT_EQ(err.code(), ErrorCode::kNonFinite);
  EXPECT_NE(std::string(err.what()).find("overflow"), std::string::npos)
      << err.what();
  EXPECT_EQ(err.offset(), doc.find("1e999"));
}

TEST(GeoJson, RejectsTruncatedDocument) {
  const std::string doc = R"({"type":"Polygon","coordinates":[[[0,0],[4,0)";
  Error err(ErrorCode::kParse, "");
  ASSERT_FALSE(from_geojson(doc, &err).has_value());
  EXPECT_EQ(err.code(), ErrorCode::kParse);
  EXPECT_NE(err.offset(), Error::kNoOffset);
  EXPECT_LE(err.offset(), doc.size());
}

TEST(GeoJson, RejectsTrailingGarbage) {
  const std::string doc =
      R"({"type":"Polygon","coordinates":[[[0,0],[4,0],[4,4]]]} extra)";
  Error err(ErrorCode::kParse, "");
  ASSERT_FALSE(from_geojson(doc, &err).has_value());
  EXPECT_EQ(err.code(), ErrorCode::kParse);
  EXPECT_EQ(err.offset(), doc.find("extra"));
}

TEST(GeoJson, RejectsMissingCoordinatesWithError) {
  Error err(ErrorCode::kNonFinite, "");
  ASSERT_FALSE(from_geojson(R"({"type":"Polygon"})", &err).has_value());
  EXPECT_EQ(err.code(), ErrorCode::kParse);
  EXPECT_NE(std::string(err.what()).find("coordinates"), std::string::npos);
}

TEST(GeoJson, RejectsUnsupportedTypeWithError) {
  Error err(ErrorCode::kNonFinite, "");
  ASSERT_FALSE(
      from_geojson(R"({"type":"Point","coordinates":[1,2]})", &err)
          .has_value());
  EXPECT_EQ(err.code(), ErrorCode::kParse);
  EXPECT_NE(std::string(err.what()).find("Point"), std::string::npos)
      << err.what();
}

TEST(GeoJson, OutputIgnoresGlobalLocale) {
  const PolygonSet p =
      make_polygon({{12345.5, 0}, {1234567.25, 0.5}, {3, 1e6}});
  const std::string classic = to_geojson(p);
  std::string localized;
  {
    test::ScopedCommaDecimalLocale comma;
    std::ostringstream probe;  // the locale really is in force
    probe << 12345.5;
    ASSERT_EQ(probe.str(), "12.345,5");
    localized = to_geojson(p);
    const auto back = from_geojson(localized);
    ASSERT_TRUE(back.has_value()) << localized;
    ASSERT_EQ(back->num_contours(), 1u);
    EXPECT_EQ(back->contours[0].size(), 3u);
  }
  EXPECT_EQ(localized, classic);
  EXPECT_NE(classic.find("[12345.5,0]"), std::string::npos) << classic;
}

}  // namespace
}  // namespace psclip::geom
