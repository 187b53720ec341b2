// End-to-end benchmark harness for psclip.
//
//   psclip_e2e --workload <pair_large|gis_overlay|svc_overlay> --seed <n>
//              --seconds <s> --trace <0|1> [--trace-out <file>] [--smoke]
//              [--git-sha <sha>] [--src-digest <hex>]
//
// Prints a stamp line, then as its last line one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1 (see README.md).

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: psclip_e2e --workload <pair_large|gis_overlay|"
               "svc_overlay> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>] [--smoke] [--git-sha <sha>] "
               "[--src-digest <hex>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Config cfg;
  std::string git_sha = "unknown", src_digest = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--smoke") {
      cfg.smoke = true;
      continue;
    }
    if (!v) return usage();
    ++i;
    if (a == "--workload") cfg.workload = v;
    else if (a == "--seed") cfg.seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") cfg.seconds = std::atof(v);
    else if (a == "--trace") cfg.trace = std::atoi(v) != 0;
    else if (a == "--trace-out") cfg.trace_out = v;
    else if (a == "--git-sha") git_sha = v;
    else if (a == "--src-digest") src_digest = v;
    else return usage();
  }
  if (cfg.seconds <= 0) return usage();
  const unsigned hw = std::thread::hardware_concurrency();
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  cfg.threads = hw ? hw : 1;

  char stamp[1024];
  std::snprintf(stamp, sizeof stamp,
                "{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
                "\"trace\":%d,\"git_sha\":\"%s\",\"src_digest\":\"%s\","
                "\"nproc\":%ld,\"hw_threads\":%u,\"pool_threads\":%u,"
                "\"build_type\":\"%s\"}",
                cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
                cfg.seconds, cfg.trace ? 1 : 0, git_sha.c_str(),
                src_digest.c_str(), nproc, hw, cfg.threads,
                PSCLIP_E2E_BUILD_TYPE);
  cfg.stamp = stamp;

  e2e::Result r;
  try {
    if (cfg.workload == "pair_large") r = e2e::run_pair_large(cfg);
    else if (cfg.workload == "gis_overlay") r = e2e::run_gis_overlay(cfg);
    else if (cfg.workload == "svc_overlay") r = e2e::run_svc_overlay(cfg);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psclip_e2e: %s\n", e.what());
    return 1;
  }
  if (r.attempted == 0) {
    std::fprintf(stderr, "psclip_e2e: nothing was attempted\n");
    return 1;
  }
  if (cfg.trace) r.set("error_rate", r.error_rate());
  else r.set("success_rate", 1.0 - r.error_rate());

  std::string metrics;
  for (const e2e::MetricDef& m :
       cfg.trace ? e2e::per_layer_metrics() : e2e::end_to_end_metrics()) {
    const auto it = r.metrics.find(m.name);
    if (it == r.metrics.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "psclip_e2e: metric %s missing or not finite\n",
                   m.name);
      return 1;
    }
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\":{\"value\":%.10g,\"unit\":\"%s\"}",
                  metrics.empty() ? "" : ",", m.name, it->second, m.unit);
    metrics += buf;
  }
  std::printf("{\"stamp\":%s}\n", stamp);
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              r.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  return 0;
}
