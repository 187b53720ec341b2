#include "geom/svg.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "test_support.hpp"

namespace psclip::geom {
namespace {

TEST(Svg, DocumentStructure) {
  SvgWriter w(400);
  w.add_layer(make_polygon({{0, 0}, {10, 0}, {10, 10}, {0, 10}}), "#88c",
              "#224");
  const std::string doc = w.str();
  EXPECT_NE(doc.find("<svg"), std::string::npos);
  EXPECT_NE(doc.find("</svg>"), std::string::npos);
  EXPECT_NE(doc.find("fill-rule=\"evenodd\""), std::string::npos);
  EXPECT_NE(doc.find("width=\"400\""), std::string::npos);
  EXPECT_NE(doc.find("<path"), std::string::npos);
  EXPECT_NE(doc.find("Z"), std::string::npos);
}

TEST(Svg, MultipleLayersEmitMultiplePaths) {
  SvgWriter w;
  w.add_layer(make_polygon({{0, 0}, {1, 0}, {0, 1}}), "red", "black");
  w.add_layer(make_polygon({{2, 2}, {3, 2}, {2, 3}}), "blue", "black");
  const std::string doc = w.str();
  std::size_t paths = 0, pos = 0;
  while ((pos = doc.find("<path", pos)) != std::string::npos) {
    ++paths;
    pos += 5;
  }
  EXPECT_EQ(paths, 2u);
}

TEST(Svg, EmptyDocumentStillValid) {
  SvgWriter w;
  const std::string doc = w.str();
  EXPECT_NE(doc.find("<svg"), std::string::npos);
  EXPECT_NE(doc.find("</svg>"), std::string::npos);
}

TEST(Svg, SaveWritesFile) {
  SvgWriter w;
  w.add_layer(make_polygon({{0, 0}, {5, 0}, {0, 5}}), "green", "none");
  const std::string path = testing::TempDir() + "/psclip_svg_test.svg";
  ASSERT_TRUE(w.save(path));
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::string contents((std::istreambuf_iterator<char>(f)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, w.str());
  std::remove(path.c_str());
}

TEST(Svg, YAxisIsFlippedForScreen) {
  // The lowest data point must map to the largest screen y.
  SvgWriter w(100);
  w.add_layer(make_polygon({{0, 0}, {10, 0}, {10, 10}, {0, 10}}), "red",
              "none");
  const std::string doc = w.str();
  // First command is the first vertex (0,0) — bottom-left in data, so its
  // screen y must be near the bottom (large).
  const auto m = doc.find("d=\"M");
  ASSERT_NE(m, std::string::npos);
  double x = 0, y = 0;
  ASSERT_EQ(std::sscanf(doc.c_str() + m + 4, "%lf %lf", &x, &y), 2);
  EXPECT_GT(y, 50.0);
}

TEST(Svg, OutputIgnoresGlobalLocale) {
  SvgWriter w(1200);
  w.add_layer(make_polygon({{0, 0}, {12345.5, 0}, {0, 12345.5}}), "red",
              "black", 0.25);
  const std::string classic = w.str();
  std::string localized;
  {
    test::ScopedCommaDecimalLocale comma;
    localized = w.str();
  }
  EXPECT_EQ(localized, classic);
  EXPECT_NE(classic.find("width=\"1200\""), std::string::npos) << classic;
  EXPECT_NE(classic.find("fill-opacity=\"0.25\""), std::string::npos);
}

}  // namespace
}  // namespace psclip::geom
