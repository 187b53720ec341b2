#pragma once

#include "common.hpp"

namespace e2e {

/// One call per workload. Untraced runs fill Result with the end-to-end
/// metrics, traced runs with the per-layer metrics; both fill the
/// attempted/failed counts. A traced run also writes cfg.trace_out.
Result run_pair_large(const Config& cfg);
Result run_gis_overlay(const Config& cfg);
Result run_svc_overlay(const Config& cfg);

}  // namespace e2e
