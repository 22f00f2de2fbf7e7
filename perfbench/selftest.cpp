//===- selftest.cpp - Tests of the benchmark's own helpers ----------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// The percentile rule with its sample counts, the serve frame parser, and
// the span self-time computation. Plain checks (no framework, no assert:
// the benchmark builds with NDEBUG); exits non-zero on the first failure
// count > 0. Run: `python3 perfbench/run.py --selftest`.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

using namespace perfbench;

namespace {

int Failures = 0;

void check(bool Cond, const char *What, int Line) {
  if (!Cond) {
    std::printf("FAIL line %d: %s\n", Line, What);
    ++Failures;
  }
}
#define CHECK(C) check((C), #C, __LINE__)

std::vector<double> iota(size_t N) {
  std::vector<double> V;
  for (size_t I = 0; I < N; ++I)
    V.push_back(static_cast<double>(N - I)); // unsorted on purpose
  return V;
}

void testPercentiles() {
  // 200 samples 1..200: p95 is the 190th, with exactly ten beyond it.
  Percentile P = percentile(iota(200), 95);
  CHECK(P.Ok && P.Value == 190 && P.N == 200 && P.Beyond == 10);
  CHECK(reportable(iota(200), 95));
  // 199 samples leave only nine beyond p95; the tail falls back to p90.
  CHECK(!reportable(iota(199), 95));
  Percentile T = tail(iota(199));
  CHECK(T.Ok && T.P == 90 && T.Value == 180 && T.Beyond == 19);
  // Median of 20 has ten beyond; of 19 it has nine, so no tail is valid.
  CHECK(tail(iota(20)).Ok && tail(iota(20)).P == 50);
  CHECK(!tail(iota(19)).Ok);
  CHECK(tail(iota(19)).N == 19);
  // Nearest rank never interpolates, and small sets are well defined.
  CHECK(percentile({5}, 50).Value == 5 && percentile({5}, 99).Value == 5);
  CHECK(percentile({1, 2}, 50).Value == 1);
  CHECK(median({3, 1, 2}) == 2);
  CHECK(!percentile({}, 50).Ok && percentile({}, 50).N == 0);
  CHECK(!percentile({1}, 0).Ok);
}

const std::string OkFrame =
    "{\"id\":\"a\",\"status\":\"ok\",\"cache\":\"hit\",\"bytes\":13}\n"
    "line 1\nline\n\n"
    "{\"id\":\"a\",\"elapsed_ms\":7}\n";
const std::string ErrFrame =
    "{\"id\":\"b\",\"status\":\"error\",\"error\":\"bad\",\"bytes\":0}\n"
    "{\"id\":\"b\",\"elapsed_ms\":0}\n";

void testFramesWhole() {
  FrameParser P;
  std::vector<Frame> Out;
  std::string Err;
  CHECK(P.feed(OkFrame + ErrFrame, Out, Err));
  CHECK(Out.size() == 2);
  if (Out.size() != 2)
    return;
  CHECK(Out[0].Body == "line 1\nline\n\n");
  CHECK(jsonString(Out[0].Header, "cache") == "hit");
  CHECK(jsonNumber(Out[0].Trailer, "elapsed_ms") == 7);
  CHECK(Out[1].Body.empty());
  CHECK(jsonString(Out[1].Header, "status") == "error");
  CHECK(jsonString(Out[1].Trailer, "id") == "b");
  CHECK(!P.midFrame());
}

void testFramesByteByByte() {
  FrameParser P;
  std::vector<Frame> Out;
  std::string Err, All = ErrFrame + OkFrame;
  for (size_t I = 0; I < All.size(); ++I) {
    CHECK(P.feed(All.substr(I, 1), Out, Err));
    // The ok frame's body ends in newlines that look like blank lines; it
    // must not complete before its trailer arrives.
    if (I + 1 < All.size())
      CHECK(Out.size() <= 1);
  }
  CHECK(Out.size() == 2);
  if (Out.size() == 2)
    CHECK(Out[1].Body == "line 1\nline\n\n");
  // A partial frame is reported as such.
  FrameParser Q;
  std::vector<Frame> None;
  CHECK(Q.feed(OkFrame.substr(0, 60), None, Err) && None.empty());
  CHECK(Q.midFrame());
}

void testFramesMalformed() {
  std::vector<Frame> Out;
  std::string Err;
  FrameParser A;
  CHECK(!A.feed("{\"id\":\"x\"}\n", Out, Err) && !Err.empty());
  FrameParser B;
  Err.clear();
  CHECK(!B.feed("not json\n", Out, Err) && !Err.empty());
  FrameParser C;
  Err.clear();
  CHECK(!C.feed("{\"bytes\":-1}\n", Out, Err));
}

void testSelfTime() {
  // Parent [0,10] with children [1,3] and [2,5] (overlapping: cover [1,5])
  // and [7,8], plus a child hanging past the parent's end, [9,12].
  std::vector<Span> S = {
      {"op", "bench", 0, 10, -1, 1},  {"a", "lang", 1, 3, 0, 1},
      {"b", "bmc", 2, 5, 0, 1},       {"c", "core", 7, 8, 0, 1},
      {"d", "core", 9, 12, 0, 1},     {"e", "core", 7.25, 7.75, 3, 1},
  };
  std::vector<double> Self = selfTimes(S);
  // 10 - (4 + 1 + 1) = 4: the grandchild e does not count for op.
  CHECK(std::fabs(Self[0] - 4) < 1e-9);
  CHECK(std::fabs(Self[1] - 2) < 1e-9);
  CHECK(std::fabs(Self[3] - 0.5) < 1e-9); // c minus its child e
  CHECK(std::fabs(Self[4] - 3) < 1e-9);
  std::map<std::string, double> ByLayer = selfTimeByLayer(S);
  CHECK(std::fabs(ByLayer["core"] - 4) < 1e-9); // 0.5 + 3 + 0.5
  CHECK(std::fabs(ByLayer["bench"] - 4) < 1e-9);

  // The recorder nests by call order and records nothing when off.
  Tracer Off(false);
  { Scope X(Off, "x", "lang"); }
  CHECK(Off.spans().empty());
  Tracer On(true);
  On.setQuery(7);
  {
    Scope X(On, "x", "bench");
    Scope Y(On, "y", "lang");
  }
  { Scope Z(On, "z", "bmc"); }
  CHECK(On.spans().size() == 3);
  if (On.spans().size() == 3) {
    CHECK(On.spans()[0].Parent == -1 && On.spans()[1].Parent == 0);
    CHECK(On.spans()[2].Parent == -1 && On.spans()[1].Query == 7);
    CHECK(On.spans()[1].EndMs <= On.spans()[0].EndMs);
  }
  CHECK(On.toJson().find("\"layer\":\"lang\"") != std::string::npos);
}

} // namespace

int main() {
  testPercentiles();
  testFramesWhole();
  testFramesByteByByte();
  testFramesMalformed();
  testSelfTime();
  std::printf("perfbench_selftest: %s (%d failure%s)\n",
              Failures ? "FAILED" : "ok", Failures, Failures == 1 ? "" : "s");
  return Failures ? 1 : 0;
}
