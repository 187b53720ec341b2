#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "error.hpp"
#include "geom/polygon.hpp"

namespace psclip::geom {

/// Serialize a polygon set as a GeoJSON MultiPolygon geometry. Contours
/// are first grouped into shell+holes polygons (see nesting.hpp), so the
/// output follows the GeoJSON winding convention (shells counter-
/// clockwise, holes clockwise, first position repeated at the end).
///
/// Each coordinate is written with 17 significant digits, byte-identical
/// to printf("%.17g") in the "C" locale, whatever the global C++ or C
/// locale is. from_geojson reads the text back to bit-identical doubles.
/// Records a `serialize.geojson` span (with a `bytes` arg) on the global
/// sink.
std::string to_geojson(const PolygonSet& p);

/// Parse a GeoJSON `Polygon` or `MultiPolygon` geometry object (the
/// subset used in GIS polygon layers — no Feature wrapper, no foreign
/// members required). All rings become contours; hole rings keep their
/// `hole` flag.
///
/// Hardened against hostile input: non-finite coordinates (including
/// "inf"/"nan" spellings and values that overflow double), truncated or
/// concatenated documents, rings with fewer than 3 distinct vertices, and
/// unknown geometry types are rejected — a successful parse never hands
/// the clippers a non-finite vertex. Returns nullopt on malformed input;
/// when `err` is non-null it receives a psclip::Error whose offset() is
/// the byte position of the first problem (kParse for syntax, kNonFinite
/// for coordinate problems).
std::optional<PolygonSet> from_geojson(std::string_view json,
                                       Error* err = nullptr);

}  // namespace psclip::geom
