#include "geom/geojson.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <utility>

#include "geom/coord_text.hpp"
#include "geom/nesting.hpp"
#include "obs/trace.hpp"

namespace psclip::geom {
namespace {

void write_ring(std::string& out, const Contour& c) {
  const auto position = [&out](const Point& v) {
    out += '[';
    detail::append_coord(out, v.x);
    out += ',';
    detail::append_coord(out, v.y);
    out += ']';
  };
  out += '[';
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (i) out += ',';
    position(c[i]);
  }
  if (!c.empty()) {
    out += ',';
    position(c[0]);
  }
  out += ']';
}

/// Minimal recursive-descent parser for the geometry subset we emit.
/// Records the first failure with its byte offset so hostile input is
/// rejected with a position, not just "nullopt".
struct Cursor {
  std::string_view s;
  std::size_t pos = 0;
  bool failed = false;
  ErrorCode code = ErrorCode::kParse;
  std::string msg;
  std::size_t err_pos = 0;

  bool fail(ErrorCode c, std::string m, std::size_t at) {
    if (!failed) {
      failed = true;
      code = c;
      msg = std::move(m);
      err_pos = at;
    }
    return false;
  }
  bool fail(ErrorCode c, std::string m) { return fail(c, std::move(m), pos); }

  void ws() {
    while (pos < s.size() && std::isspace(static_cast<unsigned char>(s[pos])))
      ++pos;
  }
  bool eat(char c) {
    ws();
    if (pos < s.size() && s[pos] == c) {
      ++pos;
      return true;
    }
    return fail(ErrorCode::kParse, std::string("expected '") + c + "'");
  }
  bool peek(char c) {
    ws();
    return pos < s.size() && s[pos] == c;
  }
  /// `eat` without recording a failure — for optional separators.
  bool accept(char c) {
    ws();
    if (pos < s.size() && s[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  bool number(double& out) {
    ws();
    const std::size_t start = pos;
    const char* begin = s.data() + pos;
    auto [ptr, ec] = std::from_chars(begin, s.data() + s.size(), out);
    if (ec == std::errc::result_out_of_range)
      return fail(ErrorCode::kNonFinite, "coordinate overflows double", start);
    if (ec != std::errc{})
      return fail(ErrorCode::kParse, "expected number", start);
    pos += static_cast<std::size_t>(ptr - begin);
    // from_chars accepts "inf"/"nan" spellings; a clipper input must not
    // (JSON forbids them anyway, but the parser is the trust boundary).
    if (!std::isfinite(out))
      return fail(ErrorCode::kNonFinite, "non-finite coordinate", start);
    return true;
  }
  bool string_lit(std::string& out) {
    ws();
    if (!eat('"')) return false;
    out.clear();
    while (pos < s.size() && s[pos] != '"') out.push_back(s[pos++]);
    return eat('"');
  }
  /// Skip any JSON value (for members we don't care about).
  bool skip_value() {
    ws();
    if (pos >= s.size())
      return fail(ErrorCode::kParse, "truncated document");
    const char c = s[pos];
    if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      const std::size_t start = pos;
      ++pos;
      int depth = 1;
      bool in_str = false;
      while (pos < s.size() && depth > 0) {
        const char ch = s[pos++];
        if (in_str) {
          if (ch == '\\') ++pos;
          else if (ch == '"') in_str = false;
        } else if (ch == '"') {
          in_str = true;
        } else if (ch == c) {
          ++depth;
        } else if (ch == close) {
          --depth;
        }
      }
      if (depth != 0)
        return fail(ErrorCode::kParse, "unterminated value", start);
      return true;
    }
    if (c == '"') {
      std::string tmp;
      return string_lit(tmp);
    }
    // number / literal
    while (pos < s.size() && s[pos] != ',' && s[pos] != '}' && s[pos] != ']')
      ++pos;
    return true;
  }
};

bool parse_position(Cursor& c, Point& out) {
  if (!c.eat('[')) return false;
  if (!c.number(out.x)) return false;
  if (!c.eat(',')) return false;
  if (!c.number(out.y)) return false;
  // Optional altitude and beyond: skip extra members.
  while (c.accept(',')) {
    double z;
    if (!c.number(z)) return false;
  }
  return c.eat(']');
}

bool parse_ring(Cursor& c, Contour& ring) {
  const std::size_t start = c.pos;
  if (!c.eat('[')) return false;
  while (true) {
    Point p;
    if (!parse_position(c, p)) return false;
    ring.pts.push_back(p);
    if (c.accept(',')) continue;
    break;
  }
  if (!c.eat(']')) return false;
  if (ring.pts.size() > 1 && ring.pts.front() == ring.pts.back())
    ring.pts.pop_back();
  if (ring.pts.size() < 3)
    return c.fail(ErrorCode::kParse, "ring needs at least 3 distinct vertices",
                  start);
  return true;
}

bool parse_polygon_rings(Cursor& c, PolygonSet& out) {
  if (!c.eat('[')) return false;
  bool first = true;
  while (true) {
    Contour ring;
    if (!parse_ring(c, ring)) return false;
    ring.hole = !first;  // GeoJSON: first ring is the shell
    first = false;
    out.contours.push_back(std::move(ring));
    if (c.accept(',')) continue;
    break;
  }
  return c.eat(']');
}

std::optional<PolygonSet> report(Cursor& c, Error* err) {
  if (err) {
    if (!c.failed) c.fail(ErrorCode::kParse, "malformed GeoJSON");
    *err = Error(c.code, c.msg, c.err_pos);
  }
  return std::nullopt;
}

}  // namespace

std::string to_geojson(const PolygonSet& p) {
  obs::ScopedSpan span(obs::global_sink(), "serialize.geojson",
                       obs::Cat::kSerialize);
  const auto nested = nest_contours(p);
  // One allocation: every vertex (plus each ring's repeated first vertex)
  // takes at most "[x,y]" and ","; each ring and polygon adds "[", "]" and
  // ",", and there are at most as many polygons as rings.
  const std::size_t nc = p.num_contours();
  std::string out;
  out.reserve(40 + 6 * nc +
              (p.num_vertices() + nc) * (2 * detail::kMaxCoordChars + 4));
  out += R"({"type":"MultiPolygon","coordinates":[)";
  for (std::size_t i = 0; i < nested.size(); ++i) {
    if (i) out += ',';
    out += '[';
    write_ring(out, nested[i].shell);
    for (const auto& h : nested[i].holes) {
      out += ',';
      write_ring(out, h);
    }
    out += ']';
  }
  out += "]}";
  span.arg("bytes", static_cast<std::int64_t>(out.size()));
  return out;
}

std::optional<PolygonSet> from_geojson(std::string_view json, Error* err) {
  obs::ScopedSpan parse_span(obs::global_sink(), "parse.geojson",
                             obs::Cat::kParse);
  parse_span.arg("bytes", static_cast<std::int64_t>(json.size()));
  Cursor c{json};
  if (!c.eat('{')) return report(c, err);
  std::string type;
  bool have_coords = false;
  PolygonSet out;

  // First pass over members: remember type, parse coordinates when the
  // type is already known; otherwise remember where coordinates start.
  std::size_t coords_pos = std::string::npos;
  while (true) {
    std::string key;
    if (!c.string_lit(key)) return report(c, err);
    if (!c.eat(':')) return report(c, err);
    if (key == "type") {
      if (!c.string_lit(type)) return report(c, err);
    } else if (key == "coordinates") {
      coords_pos = c.pos;
      if (!c.skip_value()) return report(c, err);
      have_coords = true;
    } else {
      if (!c.skip_value()) return report(c, err);
    }
    if (c.accept(',')) continue;
    break;
  }
  if (!c.eat('}')) return report(c, err);
  // Reject trailing bytes after the object: a truncated or concatenated
  // document is hostile input, not a geometry.
  c.ws();
  if (c.pos != c.s.size()) {
    c.fail(ErrorCode::kParse, "trailing characters after geometry");
    return report(c, err);
  }
  if (!have_coords) {
    c.fail(ErrorCode::kParse, "missing \"coordinates\" member", 0);
    return report(c, err);
  }

  Cursor coords{json, coords_pos};
  if (type == "Polygon") {
    if (!parse_polygon_rings(coords, out)) return report(coords, err);
    return out;
  }
  if (type == "MultiPolygon") {
    if (!coords.eat('[')) return report(coords, err);
    if (coords.peek(']')) {  // empty MultiPolygon
      coords.accept(']');
      return out;
    }
    while (true) {
      if (!parse_polygon_rings(coords, out)) return report(coords, err);
      if (coords.accept(',')) continue;
      break;
    }
    if (!coords.eat(']')) return report(coords, err);
    return out;
  }
  c.fail(ErrorCode::kParse,
         "unsupported geometry type \"" + type + "\" (Polygon/MultiPolygon)",
         0);
  return report(c, err);
}

}  // namespace psclip::geom
