//===- Workloads.h - The benchmark's workloads and result record -*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload receives (RunConfig) and fills in (Results). The
/// metric names a workload may set are fixed in perfbench.cpp; README.md
/// says what each one means on each workload.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "BenchSupport.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Directory for the span file and the result record.
  std::string OutDir;
  /// The `bugassist` CLI binary (serve-mixed spawns its daemon).
  std::string CliPath;
};

struct Results {
  /// Operations attempted and those failed, refused, or whose output did
  /// not match the in-process reference (error_rate = Failed/Attempted).
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// name -> (value, unit); filled by the workload, printed by main.
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      Metrics;
  /// Human-readable lines printed before the result (percentile sample
  /// counts, per-width and per-step detail, failure notes).
  std::vector<std::string> Notes;
  Tracer Trace{false};

  void set(const std::string &Name, double Value, const char *Unit) {
    for (auto &M : Metrics)
      if (M.first == Name) {
        M.second = {Value, Unit};
        return;
      }
    Metrics.push_back({Name, {Value, Unit}});
  }
  void note(std::string Line) { Notes.push_back(std::move(Line)); }
  /// Records a failed operation with its reason (first 20 kept).
  void fail(const std::string &Why) {
    ++Failed;
    if (Failed <= 20)
      Notes.push_back("FAILED: " + Why);
  }
  /// Sets \p Name from a percentile and notes its sample count.
  void setPercentile(const std::string &Name, const Percentile &P,
                     const char *Unit);
};

/// Set-up timing. A workload sets up Reps times before it measures, keeping
/// the last set-up (Fn(true)), and Reps times after (Fn(false): results are
/// discarded). setup_s is the median of all of them, so it samples the host
/// at both ends of the run rather than in one moment.
template <typename F> struct SetupTimer {
  int Reps;
  F Fn;
  std::vector<double> Seconds;

  void run(bool KeepLast) {
    for (int I = 0; I < Reps; ++I) {
      double T0 = nowMs();
      Fn(KeepLast && I + 1 == Reps);
      Seconds.push_back((nowMs() - T0) / 1e3);
    }
  }
  double median() const { return perfbench::median(Seconds); }
};
template <typename F> SetupTimer<F> setupTimer(int Reps, F Fn) {
  return {Reps, std::move(Fn), {}};
}

/// Peak resident set size of this process, in MiB.
double selfPeakRssMb();
/// Peak resident set size of the largest waited-for child, in MiB.
double childPeakRssMb();

/// Fills the self_ms.<layer> metrics (per operation) and trace.overhead_ms.
void reportTrace(Results &R, double Ops, const std::vector<double> &TracedOp,
                 const std::vector<double> &UntracedOp);

void runTcasLocalize(const RunConfig &C, Results &R);
void runFuzzSweep(const RunConfig &C, Results &R);
void runServeMixed(const RunConfig &C, Results &R);
void runLargeLocalize(const RunConfig &C, Results &R);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
