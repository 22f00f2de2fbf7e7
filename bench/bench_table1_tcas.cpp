//===- bench_table1_tcas.cpp - Regenerates Table 1 ----------------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// Reproduces the paper's Table 1: for every faulty TCAS version, run
// BugAssist on its failing test cases (golden outputs from the correct
// version, Section 6.1 methodology) and report
//   TC#        number of failing tests in the 1600-test pool,
//   Error#     number of injected faults,
//   Detect#    runs whose report contains the injected fault line,
//   SizeReduc% average |suspect lines| / LOC,
//   RunTime    average seconds per localization,
//   Type       the Table 2 error type.
//
// By default each version replays at most 5 failing tests so the whole
// table regenerates in minutes; `--full` replays every failing test (the
// paper's 1440 runs), `--tests=N` picks another cap, `--threads N` races
// an N-worker portfolio per MaxSAT query (identical results, see
// maxsat/Portfolio.h), `--legend` prints Table 2.
//
//===----------------------------------------------------------------------===//

#include "BenchArgs.h"
#include "core/BugAssist.h"
#include "core/Pipeline.h"
#include "lang/Sema.h"
#include "programs/Tcas.h"
#include "programs/TcasMutants.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace bugassist;

namespace {

size_t countLines(const std::string &S) {
  size_t N = 1;
  for (char C : S)
    N += C == '\n';
  return N;
}

void printLegend() {
  std::printf("Table 2: Type of Error\n");
  std::printf("%-8s  %s\n", "Type", "Explanation");
  for (ErrorType T :
       {ErrorType::Op, ErrorType::Code, ErrorType::Assign, ErrorType::AddCode,
        ErrorType::Const, ErrorType::Init, ErrorType::Index,
        ErrorType::Branch})
    std::printf("%-8s  %s\n", errorTypeName(T), errorTypeDescription(T));
}

} // namespace

int main(int argc, char **argv) {
  size_t TestCap = 5;
  size_t Threads = 1;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--legend") == 0) {
      printLegend();
      return 0;
    }
    if (std::strcmp(argv[I], "--full") == 0)
      TestCap = SIZE_MAX;
    else if (std::strncmp(argv[I], "--tests=", 8) == 0)
      TestCap = static_cast<size_t>(std::atol(argv[I] + 8));
    else
      matchThreadsFlag(argc, argv, I, Threads);
  }

  DiagEngine Diags;
  auto Golden = parseAndAnalyze(tcasSource(), Diags);
  if (!Golden) {
    std::printf("golden TCAS failed to compile:\n%s", Diags.render().c_str());
    return 1;
  }
  auto Pool = tcasTestPool(1600);
  // Golden outputs once; every version screens against them.
  auto GoldenOut = goldenOutputs(*Golden, Pool, "main", tcasExecOptions());

  const size_t Loc = countLines(tcasSource()) - 1;
  std::printf("Table 1: BugAssist on the TCAS task (pool=1600, LOC=%zu, "
              "cap=%zu failing tests/version)\n\n",
              Loc, TestCap == SIZE_MAX ? 0 : TestCap);
  std::printf("%-5s %5s %7s %8s %10s %9s  %s\n", "Ver", "TC#", "Error#",
              "Detect#", "SizeReduc%", "RunTime", "Type");

  size_t TotalRuns = 0, TotalDetect = 0;
  for (const TcasMutant &M : tcasMutants()) {
    DiagEngine D2;
    auto Faulty = parseAndAnalyze(M.Source, D2);
    if (!Faulty) {
      std::printf("v%-4d failed to compile\n", M.Version);
      continue;
    }
    // Segregate failing tests against the golden outputs (Section 6.1).
    FailingTests Failing = segregateFailingTests(GoldenOut, *Faulty, Pool,
                                                 "main", tcasExecOptions());

    if (Failing.Inputs.empty()) {
      std::printf("v%-4d %5d %7d %8s %10s %9s  %s   (no failing tests; "
                  "omitted from the paper's table)\n",
                  M.Version, 0, M.ErrorCount, "-", "-", "-",
                  errorTypeName(M.Type));
      continue;
    }

    BugAssistDriver Driver(*Faulty, "main", tcasUnrollOptions());
    LocalizeOptions LO;
    LO.MaxDiagnoses = 24;
    LO.Threads = Threads; // >1: portfolio per MaxSAT query (same results)

    size_t Runs = std::min(TestCap, Failing.Inputs.size());
    size_t Detect = 0;
    double TotalTime = 0;
    double TotalSuspects = 0;
    for (size_t R = 0; R < Runs; ++R) {
      Spec S;
      S.CheckObligations = false;
      S.GoldenReturn = Failing.Goldens[R];
      Timer T;
      LocalizationReport Rep =
          localizeFault(Driver.formula(), Failing.Inputs[R], S, LO);
      TotalTime += T.seconds();
      TotalSuspects += static_cast<double>(Rep.AllLines.size());
      bool Hit = false;
      for (uint32_t L : M.BugLines)
        Hit |= std::find(Rep.AllLines.begin(), Rep.AllLines.end(), L) !=
               Rep.AllLines.end();
      Detect += Hit;
    }
    TotalRuns += Runs;
    TotalDetect += Detect;

    std::printf("v%-4d %5zu %7d %5zu/%-2zu %9.1f%% %8.3fs  %s\n", M.Version,
                Failing.Inputs.size(), M.ErrorCount, Detect, Runs,
                100.0 * TotalSuspects / (static_cast<double>(Runs) *
                                         static_cast<double>(Loc)),
                TotalTime / static_cast<double>(Runs),
                errorTypeName(M.Type));
  }

  std::printf("\nOverall: %zu/%zu runs pinpointed the injected fault line "
              "(%.0f%%; the paper reports 1367/1440 = 95%%)\n",
              TotalDetect, TotalRuns,
              TotalRuns ? 100.0 * static_cast<double>(TotalDetect) /
                              static_cast<double>(TotalRuns)
                        : 0.0);
  return 0;
}
