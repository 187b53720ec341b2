#include "geom/svg.hpp"

#include <fstream>
#include <locale>
#include <sstream>

namespace psclip::geom {

void SvgWriter::add_layer(const PolygonSet& p, const std::string& fill,
                          const std::string& stroke, double fill_opacity) {
  layers_.push_back({p, fill, stroke, fill_opacity});
}

std::string SvgWriter::str() const {
  BBox bb;
  for (const auto& l : layers_) bb.expand(bounds(l.polys));
  if (bb.empty()) bb = {0, 0, 1, 1};
  const double pad = 0.02 * std::max(bb.width(), bb.height());
  bb.xmin -= pad;
  bb.ymin -= pad;
  bb.xmax += pad;
  bb.ymax += pad;
  const double scale = width_ / std::max(bb.width(), 1e-30);
  const int height =
      static_cast<int>(bb.height() * scale) + 1;

  std::ostringstream os;
  os.imbue(std::locale::classic());  // '.' decimals, no digit grouping
  os.precision(8);
  os << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << width_
     << "\" height=\"" << height << "\">\n";
  for (const auto& l : layers_) {
    os << "  <path fill-rule=\"evenodd\" fill=\"" << l.fill
       << "\" fill-opacity=\"" << l.opacity << "\" stroke=\"" << l.stroke
       << "\" stroke-width=\"1\" d=\"";
    for (const auto& c : l.polys.contours) {
      for (std::size_t i = 0; i < c.size(); ++i) {
        const double x = (c[i].x - bb.xmin) * scale;
        const double y = (bb.ymax - c[i].y) * scale;  // flip y for screen
        os << (i == 0 ? 'M' : 'L') << x << ' ' << y << ' ';
      }
      if (!c.empty()) os << "Z ";
    }
    os << "\"/>\n";
  }
  os << "</svg>\n";
  return os.str();
}

bool SvgWriter::save(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << str();
  return static_cast<bool>(f);
}

}  // namespace psclip::geom
