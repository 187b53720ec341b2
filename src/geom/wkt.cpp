#include "geom/wkt.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <utility>

#include "geom/coord_text.hpp"
#include "obs/trace.hpp"

namespace psclip::geom {

namespace {

std::string write_wkt(const PolygonSet& p) {
  if (p.empty()) return "MULTIPOLYGON EMPTY";
  // One allocation: every vertex (plus each ring's repeated first vertex)
  // takes at most two coordinates and ", " + " "; each ring adds "((", "))"
  // and ", ".
  const std::size_t nc = p.num_contours();
  std::string out;
  out.reserve(15 + 6 * nc +
              (p.num_vertices() + nc) * (2 * detail::kMaxCoordChars + 3));
  const auto vertex = [&out](const Point& v) {
    detail::append_coord(out, v.x);
    out += ' ';
    detail::append_coord(out, v.y);
  };
  out += "MULTIPOLYGON (";
  bool first_c = true;
  for (const auto& c : p.contours) {
    if (!first_c) out += ", ";
    first_c = false;
    out += "((";
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (i) out += ", ";
      vertex(c[i]);
    }
    // WKT rings repeat the first vertex at the end.
    if (!c.empty()) {
      out += ", ";
      vertex(c[0]);
    }
    out += "))";
  }
  out += ')';
  return out;
}

struct Cursor {
  std::string_view s;
  std::size_t pos = 0;
  // First failure, reported to the caller with its byte offset so hostile
  // or truncated input is rejected with a position, not just "nullopt".
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

  void skip_ws() {
    while (pos < s.size() && std::isspace(static_cast<unsigned char>(s[pos])))
      ++pos;
  }
  bool eat(char c) {
    skip_ws();
    if (pos < s.size() && s[pos] == c) {
      ++pos;
      return true;
    }
    return fail(ErrorCode::kParse, std::string("expected '") + c + "'");
  }
  bool peek(char c) {
    skip_ws();
    return pos < s.size() && s[pos] == c;
  }
  /// `eat` without recording a failure — for optional separators.
  bool accept(char c) {
    skip_ws();
    if (pos < s.size() && s[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  bool number(double& out) {
    skip_ws();
    const std::size_t start = pos;
    const char* begin = s.data() + pos;
    const char* end = s.data() + s.size();
    auto [ptr, ec] = std::from_chars(begin, end, out);
    if (ec == std::errc::result_out_of_range)
      return fail(ErrorCode::kNonFinite, "coordinate overflows double", start);
    if (ec != std::errc{})
      return fail(ErrorCode::kParse, "expected number", start);
    pos += static_cast<std::size_t>(ptr - begin);
    // from_chars accepts "inf"/"nan" spellings; a clipper input must not.
    if (!std::isfinite(out))
      return fail(ErrorCode::kNonFinite, "non-finite coordinate", start);
    return true;
  }
};

bool parse_ring(Cursor& c, Contour& out) {
  const std::size_t start = c.pos;
  if (!c.eat('(')) return false;
  while (true) {
    double x, y;
    if (!c.number(x) || !c.number(y)) return false;
    out.pts.push_back({x, y});
    if (c.accept(',')) continue;
    break;
  }
  if (!c.eat(')')) return false;
  if (out.pts.size() > 1 && out.pts.front() == out.pts.back())
    out.pts.pop_back();
  if (out.pts.size() < 3)
    return c.fail(ErrorCode::kParse, "ring needs at least 3 distinct vertices",
                  start);
  return true;
}

bool parse_polygon_body(Cursor& c, PolygonSet& out) {
  if (!c.eat('(')) return false;
  while (true) {
    Contour ring;
    if (!parse_ring(c, ring)) return false;
    out.contours.push_back(std::move(ring));
    if (c.accept(',')) continue;
    break;
  }
  return c.eat(')');
}

bool match_keyword(Cursor& c, std::string_view kw) {
  c.skip_ws();
  if (c.s.size() - c.pos < kw.size()) return false;
  for (std::size_t i = 0; i < kw.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(c.s[c.pos + i])) != kw[i])
      return false;
  }
  c.pos += kw.size();
  return true;
}

std::optional<PolygonSet> report(Cursor& c, Error* err) {
  if (err) {
    if (!c.failed) c.fail(ErrorCode::kParse, "malformed WKT");
    *err = Error(c.code, c.msg, c.err_pos);
  }
  return std::nullopt;
}

/// Success only if nothing but whitespace follows the geometry — trailing
/// bytes mean a truncated/concatenated/hostile document, not a geometry.
std::optional<PolygonSet> finish(Cursor& c, PolygonSet out, Error* err) {
  c.skip_ws();
  if (c.pos != c.s.size()) {
    c.fail(ErrorCode::kParse, "trailing characters after geometry");
    return report(c, err);
  }
  return out;
}

}  // namespace

std::string to_wkt(const PolygonSet& p) {
  obs::ScopedSpan span(obs::global_sink(), "serialize.wkt",
                       obs::Cat::kSerialize);
  std::string out = write_wkt(p);
  span.arg("bytes", static_cast<std::int64_t>(out.size()));
  return out;
}

std::optional<PolygonSet> from_wkt(std::string_view wkt, Error* err) {
  obs::ScopedSpan parse_span(obs::global_sink(), "parse.wkt",
                             obs::Cat::kParse);
  parse_span.arg("bytes", static_cast<std::int64_t>(wkt.size()));
  Cursor c{wkt};
  PolygonSet out;
  if (match_keyword(c, "MULTIPOLYGON")) {
    if (match_keyword(c, "EMPTY")) return finish(c, std::move(out), err);
    if (!c.eat('(')) return report(c, err);
    while (true) {
      if (!parse_polygon_body(c, out)) return report(c, err);
      if (c.accept(',')) continue;
      break;
    }
    if (!c.eat(')')) return report(c, err);
    return finish(c, std::move(out), err);
  }
  if (match_keyword(c, "POLYGON")) {
    if (match_keyword(c, "EMPTY")) return finish(c, std::move(out), err);
    if (!parse_polygon_body(c, out)) return report(c, err);
    return finish(c, std::move(out), err);
  }
  c.fail(ErrorCode::kParse, "expected POLYGON or MULTIPOLYGON", 0);
  return report(c, err);
}

}  // namespace psclip::geom
