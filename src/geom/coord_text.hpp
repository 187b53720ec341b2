#pragma once

// Internal: the one coordinate writer behind to_wkt and to_geojson.

#include <charconv>
#include <cstddef>
#include <string>

namespace psclip::geom::detail {

/// Longest rendering append_coord produces: sign, 17 significant digits,
/// decimal point and a three-digit exponent, as in
/// "-1.7976931348623157e+308" ("-inf" and "-nan" are shorter).
inline constexpr std::size_t kMaxCoordChars = 24;

/// Append `v` with 17 significant digits. std::to_chars with
/// chars_format::general and precision 17 is specified to produce the
/// bytes of printf("%.17g") in the "C" locale, so the text is independent
/// of the global locale and parses back to the same double.
inline void append_coord(std::string& out, double v) {
  char buf[kMaxCoordChars];
  const auto r = std::to_chars(buf, buf + sizeof buf, v,
                               std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

}  // namespace psclip::geom::detail
