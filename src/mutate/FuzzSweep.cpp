//===- FuzzSweep.cpp - Differential mutant sweep --------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "mutate/FuzzSweep.h"

#include "interp/Interpreter.h"
#include "support/WorkerPool.h"

#include <algorithm>
#include <atomic>
#include <mutex>

using namespace bugassist;

namespace {

/// The differential configurations every mutant is localized under.
/// Reports are canonical, so all of them must render byte-identically.
struct Config {
  const char *Name;
  size_t Threads;
  bool Preprocess;
};

/// What one mutant adds to the scorecard. Lanes judge mutants in any
/// order; the outcomes are merged in mutant order afterwards.
struct MutantOutcome {
  bool Failing = false;   ///< had a localizable failing test
  bool Localized = false; ///< localization produced >= 1 diagnosis
  bool Hit = false;       ///< ground-truth line among the suspects
  bool Repaired = false;  ///< a validated repair was found
  std::vector<std::string> MismatchNotes;
};

/// Judges one mutant. Lanes call this concurrently: everything but \p M
/// is shared and only read.
MutantOutcome judgeMutant(const FuzzSubject &Subject, const FuzzOptions &Opts,
                          const ExecOptions &EO,
                          const std::vector<int64_t> &GoldenOut,
                          const std::vector<Config> &Configs,
                          GeneratedMutant &M) {
  MutantOutcome Out;

  FailingTests FT =
      segregateFailingTests(GoldenOut, *M.Prog, Subject.Pool, Subject.Entry,
                            EO, Opts.MaxFailingTests, Opts.MaxPassingTests);
  if (FT.Inputs.empty())
    return Out; // behavior-preserving (or pool-invisible) mutant

  // Encode the mutant once; every config and the repair run share this
  // prepared driver -- the encode-once seam under test.
  PreparedProgram P;
  P.Prog = std::move(M.Prog);
  P.Driver = std::make_unique<BugAssistDriver>(*P.Prog, Subject.Entry,
                                               Subject.Unroll, Subject.Encode);

  // The segregator judges by return value; the pipeline's concrete
  // judge is stricter (trap statuses, obligations). Try the failing
  // tests in order until one localizes.
  PipelineRequest Base;
  Base.Entry = Subject.Entry;
  Base.Unroll = Subject.Unroll;
  Base.Encode = Subject.Encode;
  Base.CheckObligations = Subject.CheckObligations;
  Base.Localize.MaxDiagnoses = Opts.MaxDiagnoses;

  PipelineResult FirstRes;
  size_t UsedTest = SIZE_MAX;
  for (size_t T = 0; T < FT.Inputs.size(); ++T) {
    PipelineRequest R = Base;
    R.Input = FT.Inputs[T];
    R.GoldenReturn = FT.Goldens[T];
    R.Localize.Threads = Configs[0].Threads;
    R.Localize.Preprocess = Configs[0].Preprocess;
    PipelineResult PR = runLocalizePipeline(P, R);
    if (PR.Status == PipelineStatus::Localized) {
      FirstRes = std::move(PR);
      UsedTest = T;
      break;
    }
  }
  if (UsedTest == SIZE_MAX)
    return Out; // return-diff only visible outside the encoding bounds
  Out.Failing = true;

  // Differential: the remaining configs must reproduce config 0's
  // canonical report byte for byte.
  std::string FirstText = renderLocalizeOutput(FirstRes, /*Json=*/false);
  for (size_t C = 1; C < Configs.size(); ++C) {
    PipelineRequest R = Base;
    R.Input = FT.Inputs[UsedTest];
    R.GoldenReturn = FT.Goldens[UsedTest];
    R.Localize.Threads = Configs[C].Threads;
    R.Localize.Preprocess = Configs[C].Preprocess;
    PipelineResult PR = runLocalizePipeline(P, R);
    if (renderLocalizeOutput(PR, /*Json=*/false) != FirstText)
      Out.MismatchNotes.push_back(
          std::string(errorTypeName(M.Spec.Type)) + " mutant (" +
          M.Spec.Description + "): report at " + Configs[C].Name +
          " differs from " + Configs[0].Name);
  }

  Out.Localized = !FirstRes.Report.Diagnoses.empty();
  for (uint32_t L : FirstRes.Report.AllLines)
    Out.Hit = Out.Hit || L == M.Spec.Line;
  if (!Out.Hit || !Opts.TryRepair)
    return Out;

  // Candidate lines come from the differential report; the localized
  // test leads so the prescreen and the goldens stay aligned with it.
  std::vector<InputVector> Tests;
  std::vector<int64_t> Goldens;
  Tests.push_back(FT.Inputs[UsedTest]);
  Goldens.push_back(FT.Goldens[UsedTest]);
  for (size_t T = 0; T < FT.Inputs.size(); ++T) {
    if (T == UsedTest)
      continue;
    Tests.push_back(FT.Inputs[T]);
    Goldens.push_back(FT.Goldens[T]);
  }
  // Regression witnesses: a candidate must keep these passing, or it
  // "repairs" the failures by breaking correct behavior elsewhere.
  for (size_t T = 0; T < FT.PassingInputs.size(); ++T) {
    Tests.push_back(FT.PassingInputs[T]);
    Goldens.push_back(FT.PassingGoldens[T]);
  }
  RepairOptions RO;
  RO.Unroll = Subject.Unroll;
  RO.MaxCandidates = Opts.RepairMaxCandidates;
  RO.VerifyBudget = Opts.RepairVerifyBudget;
  RO.MaxInterpSteps = Opts.MaxInterpSteps;
  std::set<uint32_t> Seen;
  for (const Diagnosis &D : FirstRes.Report.Diagnoses)
    for (uint32_t L : D.Lines)
      if (Seen.insert(L).second)
        RO.CandidateLines.push_back(L);
  Spec S;
  S.CheckObligations = Subject.CheckObligations;
  Out.Repaired = repairProgram(*P.Prog, *P.Driver, Subject.Entry, Tests, S,
                               &Goldens, RO)
                     .Found;
  return Out;
}

} // namespace

FuzzResult bugassist::runFuzzSweep(const FuzzSubject &Subject,
                                   const FuzzOptions &Opts,
                                   const FuzzProgress &Progress) {
  FuzzResult Res;

  MutantGeneratorOptions GenOpts;
  GenOpts.Seed = Opts.Seed;
  GenOpts.Classes = Opts.Classes;
  GenOpts.ProtectedLines = Subject.ProtectedLines;
  MutantGenerator Gen(*Subject.Base, GenOpts);
  std::vector<GeneratedMutant> Mutants = Gen.generate(Opts.Count);
  Res.Generated = Mutants.size();

  // Pool judging runs encoder-aligned, exactly like the pipeline's
  // concrete judge, but with lowered fuel (runaway-loop mutants).
  ExecOptions EO;
  EO.BitWidth = Subject.Unroll.BitWidth;
  EO.CheckArrayBounds =
      Subject.Unroll.CheckArrayBounds && Subject.CheckObligations;
  EO.CheckDivByZero = Subject.CheckObligations;
  EO.MaxSteps = Opts.MaxInterpSteps;
  std::vector<int64_t> GoldenOut =
      goldenOutputs(*Subject.Base, Subject.Pool, Subject.Entry, EO);

  // At K = 1 the threads=K config would repeat config 0 exactly.
  const size_t K = Opts.Threads > 1 ? static_cast<size_t>(Opts.Threads) : 1;
  std::vector<Config> Configs = {{"threads=1", 1, true}};
  if (K > 1)
    Configs.push_back({"threads=K", K, true});
  Configs.push_back({"no-preprocess", 1, false});

  // Up to K mutants in flight: lane 0 is this thread, lanes 1..K-1 are
  // pool tasks. Between mutants a lane runs any queued pool work -- the
  // helpers of its neighbours' portfolio races -- so the sweep and the
  // races share K threads in all.
  std::vector<MutantOutcome> Outcomes(Mutants.size());
  std::atomic<size_t> Next{0};
  std::atomic<bool> Abort{false};
  std::mutex ProgressM;
  size_t Done = 0; // guarded by ProgressM
  WorkerPool &Pool = WorkerPool::global();
  auto Lane = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < Mutants.size() && !Abort;) {
      try {
        Outcomes[I] =
            judgeMutant(Subject, Opts, EO, GoldenOut, Configs, Mutants[I]);
        if (Progress) {
          std::lock_guard<std::mutex> G(ProgressM);
          Progress(++Done, Mutants.size());
        }
      } catch (...) {
        Abort = true; // the other lanes stop before their next mutant
        throw;
      }
      Pool.runPending();
    }
  };
  const size_t Lanes = std::min(K, Mutants.size());
  if (Lanes > 1)
    Pool.reserve(Lanes - 1);
  TaskGroup OtherLanes(Pool);
  for (size_t L = 1; L < Lanes; ++L)
    OtherLanes.fork(Lane);
  Lane();
  OtherLanes.wait();

  for (size_t I = 0; I < Mutants.size(); ++I) {
    const MutantOutcome &O = Outcomes[I];
    FuzzClassStats &Row =
        Res.PerClass[static_cast<size_t>(Mutants[I].Spec.Type)];
    ++Row.Mutants;
    Row.Failing += O.Failing;
    Row.Localized += O.Localized;
    Row.Hits += O.Hit;
    Row.Repaired += O.Repaired;
    if (!O.MismatchNotes.empty()) {
      ++Row.Mismatches;
      ++Res.TotalMismatches;
    }
    Res.MismatchNotes.insert(Res.MismatchNotes.end(), O.MismatchNotes.begin(),
                             O.MismatchNotes.end());
  }
  return Res;
}

std::string bugassist::renderFuzzScorecard(const FuzzSubject &Subject,
                                           const FuzzOptions &Opts,
                                           const FuzzResult &Res) {
  std::string Out = "{\n";
  Out += "  \"subject\": \"" + Subject.Name + "\",\n";
  Out += "  \"seed\": " + std::to_string(Opts.Seed) + ",\n";
  Out += "  \"requested\": " + std::to_string(Opts.Count) + ",\n";
  Out += "  \"generated\": " + std::to_string(Res.Generated) + ",\n";
  Out += "  \"pool\": " + std::to_string(Subject.Pool.size()) + ",\n";
  Out += "  \"threads\": " + std::to_string(Opts.Threads) + ",\n";
  Out += "  \"classes\": [";
  bool FirstRow = true;
  for (ErrorType T : AllErrorTypes) {
    const FuzzClassStats &Row = Res.PerClass[static_cast<size_t>(T)];
    if (Row.Mutants == 0)
      continue;
    Out += FirstRow ? "\n" : ",\n";
    FirstRow = false;
    Out += std::string("    {\"class\": \"") + errorTypeName(T) +
           "\", \"mutants\": " + std::to_string(Row.Mutants) +
           ", \"failing\": " + std::to_string(Row.Failing) +
           ", \"localized\": " + std::to_string(Row.Localized) +
           ", \"hits\": " + std::to_string(Row.Hits) +
           ", \"repaired\": " + std::to_string(Row.Repaired) +
           ", \"mismatches\": " + std::to_string(Row.Mismatches) + "}";
  }
  Out += FirstRow ? "],\n" : "\n  ],\n";
  FuzzClassStats Total;
  for (const FuzzClassStats &Row : Res.PerClass) {
    Total.Mutants += Row.Mutants;
    Total.Failing += Row.Failing;
    Total.Localized += Row.Localized;
    Total.Hits += Row.Hits;
    Total.Repaired += Row.Repaired;
    Total.Mismatches += Row.Mismatches;
  }
  Out += "  \"total\": {\"mutants\": " + std::to_string(Total.Mutants) +
         ", \"failing\": " + std::to_string(Total.Failing) +
         ", \"localized\": " + std::to_string(Total.Localized) +
         ", \"hits\": " + std::to_string(Total.Hits) +
         ", \"repaired\": " + std::to_string(Total.Repaired) +
         ", \"mismatches\": " + std::to_string(Total.Mismatches) + "}\n";
  Out += "}\n";
  return Out;
}
