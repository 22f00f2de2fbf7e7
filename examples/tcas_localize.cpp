//===- tcas_localize.cpp - The Figure 2 case study ----------------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// Reproduces the Section 6.1 / Figure 2 workflow on TCAS v2 (the NOZCROSS
// constant fault): generate the golden outputs from the correct version,
// segregate failing tests, localize each failure, and rank the reported
// lines by frequency (Section 4.3).
//
// Run:  ./example_tcas_localize [version]     (default version: 2)
//
//===----------------------------------------------------------------------===//

#include "core/BugAssist.h"
#include "core/Pipeline.h"
#include "core/Ranking.h"
#include "lang/Sema.h"
#include "programs/Tcas.h"
#include "programs/TcasMutants.h"

#include <cstdio>
#include <cstdlib>

using namespace bugassist;

int main(int argc, char **argv) {
  int Version = argc > 1 ? std::atoi(argv[1]) : 2;
  if (Version < 1 || Version > 41) {
    std::printf("usage: %s [1..41]\n", argv[0]);
    return 1;
  }
  const TcasMutant &M = tcasMutants()[static_cast<size_t>(Version - 1)];
  std::printf("TCAS v%d (%s): %s\n", M.Version, errorTypeName(M.Type),
              M.Description.c_str());
  std::printf("ground-truth fault line(s):");
  for (uint32_t L : M.BugLines)
    std::printf(" %u", L);
  std::printf("\n\n");

  DiagEngine Diags;
  auto Golden = parseAndAnalyze(tcasSource(), Diags);
  auto Faulty = parseAndAnalyze(M.Source, Diags);
  if (!Golden || !Faulty) {
    std::printf("%s", Diags.render().c_str());
    return 1;
  }

  // Golden outputs + failing-test segregation (Section 6.1 methodology).
  std::vector<InputVector> Pool = tcasTestPool(1600);
  FailingTests Failing = segregateFailingTests(
      goldenOutputs(*Golden, Pool, "main", tcasExecOptions()), *Faulty, Pool,
      "main", tcasExecOptions());
  std::printf("failing tests: %zu of %zu\n", Failing.Inputs.size(),
              Failing.PoolSize);
  if (Failing.Inputs.empty()) {
    std::printf("this version is indistinguishable on the pool "
                "(v33/v38 are designed that way).\n");
    return 0;
  }

  // Localize a handful of failures and rank lines by frequency.
  size_t Runs = std::min<size_t>(Failing.Inputs.size(), 8);
  Failing.Inputs.resize(Runs);
  Failing.Goldens.resize(Runs);
  BugAssistDriver Driver(*Faulty, "main", tcasUnrollOptions());
  Spec S;
  S.CheckObligations = false;
  LocalizeOptions LO;
  LO.MaxDiagnoses = 24;
  RankingReport R = rankSuspects(Driver.formula(), Failing.Inputs, S,
                                 &Failing.Goldens, LO);

  std::printf("\nline  freq   (over %zu failing runs)\n", R.Runs);
  for (const RankedLine &RL : R.Ranked) {
    bool IsBug = false;
    for (uint32_t L : M.BugLines)
      IsBug |= RL.Line == L;
    std::printf("%4u  %4.0f%%  %s\n", RL.Line, RL.Frequency * 100,
                IsBug ? "<-- injected fault" : "");
  }
  return 0;
}
