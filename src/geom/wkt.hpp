#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "error.hpp"
#include "geom/polygon.hpp"

namespace psclip::geom {

/// Serialize a polygon set as WKT. Every contour becomes one single-ring
/// POLYGON inside a MULTIPOLYGON (hole nesting is not reconstructed; the
/// even-odd fill rule makes the flat form equivalent).
///
/// Each coordinate is written with 17 significant digits, byte-identical
/// to printf("%.17g") in the "C" locale, whatever the global C++ or C
/// locale is. from_wkt reads the text back to bit-identical doubles.
/// Records a `serialize.wkt` span (with a `bytes` arg) on the global sink.
std::string to_wkt(const PolygonSet& p);

/// Parse `POLYGON ((...), (...))` or `MULTIPOLYGON (((...)), ...)` text.
/// All rings (shells and holes alike) become contours.
///
/// Hardened against hostile input: non-finite coordinates ("inf"/"nan"
/// spellings, values that overflow double), truncated documents, rings with
/// fewer than 3 distinct vertices, and trailing bytes after the geometry
/// are all rejected — a successful parse never hands the clippers a
/// non-finite vertex. Returns nullopt on malformed input; when `err` is
/// non-null it receives a psclip::Error whose offset() is the byte position
/// of the first problem (code kParse for syntax, kNonFinite for coordinate
/// problems).
std::optional<PolygonSet> from_wkt(std::string_view wkt, Error* err = nullptr);

}  // namespace psclip::geom
