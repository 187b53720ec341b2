// End-to-end test of the psclip_cli example binary: file I/O, format
// detection, engine selection and exit codes.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#ifndef PSCLIP_CLI_PATH
#define PSCLIP_CLI_PATH ""
#endif

namespace {

std::string run(const std::string& args, int* exit_code = nullptr) {
  const std::string cmd = std::string(PSCLIP_CLI_PATH) + " " + args + " 2>&1";
  std::array<char, 4096> buf{};
  std::string out;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (!pipe) return out;
  while (fgets(buf.data(), static_cast<int>(buf.size()), pipe))
    out += buf.data();
  const int rc = pclose(pipe);
  if (exit_code) *exit_code = WEXITSTATUS(rc);
  return out;
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (std::string(PSCLIP_CLI_PATH).empty())
      GTEST_SKIP() << "psclip_cli not built";
    // ctest runs each discovered case as its own process of this binary;
    // per-PID names keep concurrent cases from deleting each other's
    // fixtures mid-run.
    const std::string tag = std::to_string(getpid());
    a_path_ = testing::TempDir() + "/psclip_cli_" + tag + "_a.wkt";
    b_path_ = testing::TempDir() + "/psclip_cli_" + tag + "_b.json";
    std::ofstream(a_path_)
        << "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))";
    std::ofstream(b_path_)
        << R"({"type":"Polygon","coordinates":[[[5,5],[15,5],[15,15],[5,15],[5,5]]]})";
  }
  void TearDown() override {
    std::remove(a_path_.c_str());
    std::remove(b_path_.c_str());
  }
  std::string a_path_, b_path_;
};

TEST_F(CliTest, IntersectionArea) {
  int rc = -1;
  const std::string out =
      run("intersection " + a_path_ + " " + b_path_ + " --out=area", &rc);
  EXPECT_EQ(rc, 0);
  EXPECT_NEAR(std::stod(out), 25.0, 1e-3);
}

TEST_F(CliTest, EveryEngineComputesTheSameArea) {
  for (const char* engine :
       {"auto", "vatti", "martinez", "scanbeam", "slab"}) {
    int rc = -1;
    const std::string out = run("union " + a_path_ + " " + b_path_ +
                                    " --engine=" + engine + " --out=area",
                                &rc);
    EXPECT_EQ(rc, 0) << engine;
    EXPECT_NEAR(std::stod(out), 175.0, 1e-3) << engine;
  }
}

TEST_F(CliTest, WktAndGeoJsonOutputs) {
  int rc = -1;
  const std::string wkt =
      run("difference " + a_path_ + " " + b_path_, &rc);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(wkt.find("MULTIPOLYGON"), std::string::npos);
  const std::string gj = run("difference " + a_path_ + " " + b_path_ +
                                 " --out=geojson",
                             &rc);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(gj.find("\"MultiPolygon\""), std::string::npos);
}

TEST_F(CliTest, BadOperatorExitsWithUsage) {
  int rc = -1;
  const std::string out = run("frobnicate " + a_path_ + " " + b_path_, &rc);
  EXPECT_EQ(rc, 2);
  EXPECT_NE(out.find("usage:"), std::string::npos);
}

TEST_F(CliTest, MissingFileFails) {
  int rc = -1;
  run("union /nonexistent.wkt " + b_path_, &rc);
  EXPECT_EQ(rc, 1);
}

TEST_F(CliTest, MalformedInputReportsByteOffset) {
  const std::string bad = testing::TempDir() + "/psclip_cli_bad.wkt";
  std::ofstream(bad) << "POLYGON ((0 0, inf 0, 1 1))";
  int rc = -1;
  const std::string out = run("union " + bad + " " + b_path_, &rc);
  std::remove(bad.c_str());
  EXPECT_EQ(rc, 1);
  // Positioned, classified error: code name and byte offset on stderr.
  EXPECT_NE(out.find("non-finite-coordinate"), std::string::npos) << out;
  EXPECT_NE(out.find("byte 15"), std::string::npos) << out;
}

TEST_F(CliTest, SanitizeRepairsDefectiveInput) {
  // Parseable but defective: a consecutive duplicate vertex. Clipped as-is
  // without --sanitize; repaired (and reported) with it. Same area both
  // ways — sanitize only removes what contributes nothing.
  const std::string dup = testing::TempDir() + "/psclip_cli_dup.wkt";
  std::ofstream(dup) << "POLYGON ((0 0, 0 0, 10 0, 10 10, 0 10, 0 0))";
  int rc = -1;
  const std::string plain =
      run("intersection " + dup + " " + b_path_ + " --out=area", &rc);
  EXPECT_EQ(rc, 0);
  EXPECT_NEAR(std::stod(plain), 25.0, 1e-3);

  const std::string repaired = run(
      "intersection " + dup + " " + b_path_ + " --out=area --sanitize", &rc);
  std::remove(dup.c_str());
  EXPECT_EQ(rc, 0);
  EXPECT_NE(repaired.find("sanitized duplicate-vertex"), std::string::npos)
      << repaired;
  // Last line is the area (stderr repair notes precede it in merged output).
  const auto nl = repaired.find_last_not_of("\n");
  const auto line = repaired.rfind('\n', nl);
  EXPECT_NEAR(std::stod(repaired.substr(line == std::string::npos ? 0
                                                                  : line + 1)),
              25.0, 1e-3);
}

TEST_F(CliTest, TraceOutWritesLoadableChromeTrace) {
  const std::string trace = testing::TempDir() + "/psclip_cli_trace.json";
  int rc = -1;
  const std::string out =
      run("intersection " + a_path_ + " " + b_path_ +
              " --engine=slab --out=area --trace-out=" + trace,
          &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("trace written to"), std::string::npos) << out;

  std::ifstream f(trace);
  ASSERT_TRUE(f.good()) << trace;
  std::string doc((std::istreambuf_iterator<char>(f)),
                  std::istreambuf_iterator<char>());
  std::remove(trace.c_str());
  // chrome://tracing essentials plus the documented span hierarchy: the
  // facade request, the engine request/phases, per-slab spans, and the
  // parse spans recorded before clipping started.
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"psclip.clip\""), std::string::npos);
  EXPECT_NE(doc.find("\"alg2.slab_clip\""), std::string::npos);
  EXPECT_NE(doc.find("\"alg2.clip\""), std::string::npos);
  EXPECT_NE(doc.find("\"alg2.slab\""), std::string::npos);
  EXPECT_NE(doc.find("\"parse.wkt\""), std::string::npos);
  EXPECT_NE(doc.find("\"parse.geojson\""), std::string::npos);

  // Written output is traced too: one serialize span per writer, with the
  // byte count it produced.
  for (const char* fmt : {"wkt", "geojson"}) {
    const std::string out_trace =
        testing::TempDir() + "/psclip_cli_trace_" + fmt + ".json";
    const std::string written =
        run("intersection " + a_path_ + " " + b_path_ + " --out=" + fmt +
                " --trace-out=" + out_trace,
            &rc);
    EXPECT_EQ(rc, 0) << written;
    std::ifstream g(out_trace);
    ASSERT_TRUE(g.good()) << out_trace;
    const std::string serialized((std::istreambuf_iterator<char>(g)),
                                 std::istreambuf_iterator<char>());
    std::remove(out_trace.c_str());
    const std::string name = std::string("\"serialize.") + fmt + "\"";
    const auto at = serialized.find(name);
    ASSERT_NE(at, std::string::npos) << fmt;
    const std::string event =
        serialized.substr(at, serialized.find("}}", at) - at);
    EXPECT_NE(event.find("\"cat\":\"serialize\""), std::string::npos)
        << event;
    EXPECT_NE(event.find("\"bytes\":"), std::string::npos) << event;
  }
}

TEST_F(CliTest, MetricsPrintsSnapshot) {
  int rc = -1;
  const std::string out = run("intersection " + a_path_ + " " + b_path_ +
                                  " --engine=slab --out=area --metrics",
                              &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("alg2.requests"), std::string::npos) << out;
  EXPECT_NE(out.find("alg2.request_seconds"), std::string::npos) << out;
}

TEST_F(CliTest, ServeReplayServesTheFileFromConcurrentClients) {
  const std::string tag = std::to_string(getpid());
  const std::string replay =
      testing::TempDir() + "/psclip_cli_" + tag + "_replay.txt";
  std::ofstream(replay) << "# two requests over the shared layers\n"
                        << "intersection " << a_path_ << " " << b_path_
                        << "\n"
                        << "union " << a_path_ << " " << b_path_ << "\n";
  int rc = -1;
  const std::string out =
      run("--serve-replay=" + replay + " --clients=3 --engine=slab", &rc);
  EXPECT_EQ(rc, 0) << out;
  // Per-line areas from the first client (stdout)...
  EXPECT_NE(out.find("1: area=2"), std::string::npos) << out;   // ~25
  EXPECT_NE(out.find("2: area=1"), std::string::npos) << out;   // ~175
  // ...and the serving summary with cache meters (stderr).
  EXPECT_NE(out.find("served 6 requests from 3 client(s)"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("hits"), std::string::npos) << out;

  const std::string off = run(
      "--serve-replay=" + replay + " --clients=1 --no-cache", &rc);
  std::remove(replay.c_str());
  EXPECT_EQ(rc, 0) << off;
  EXPECT_NE(off.find("cache: off"), std::string::npos) << off;
}

TEST_F(CliTest, ServeReplayRejectsMalformedLines) {
  const std::string tag = std::to_string(getpid());
  const std::string replay =
      testing::TempDir() + "/psclip_cli_" + tag + "_badreplay.txt";
  std::ofstream(replay) << "frobnicate " << a_path_ << " " << b_path_ << "\n";
  int rc = -1;
  const std::string out = run("--serve-replay=" + replay, &rc);
  std::remove(replay.c_str());
  EXPECT_EQ(rc, 2);
  EXPECT_NE(out.find("expected '<op>"), std::string::npos) << out;
}

TEST_F(CliTest, EmptyTraceOutPathIsUsage) {
  int rc = -1;
  const std::string out =
      run("intersection " + a_path_ + " " + b_path_ + " --trace-out=", &rc);
  EXPECT_EQ(rc, 2);
  EXPECT_NE(out.find("usage:"), std::string::npos);
}

}  // namespace
