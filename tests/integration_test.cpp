//===- integration_test.cpp - End-to-end pipeline tests ----------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// Exercises the full pipelines the benches rely on: the Table 3 programs
// with their reduction recipes, and the Program 2 / Program 3 studies.
//
//===----------------------------------------------------------------------===//

#include "core/BugAssist.h"
#include "core/LoopDiagnosis.h"
#include "core/Repair.h"
#include "lang/Sema.h"
#include "programs/LargeBenchmarks.h"
#include "programs/SmallDemos.h"
#include "reduce/Concretizer.h"
#include "reduce/DeltaDebug.h"
#include "reduce/Slicer.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace bugassist;

namespace {

std::unique_ptr<Program> compile(const std::string &Src) {
  DiagEngine Diags;
  auto P = parseAndAnalyze(Src, Diags);
  EXPECT_TRUE(P != nullptr) << Diags.render();
  return P;
}

ExecOptions execOpts(const LargeBenchmark &B) {
  ExecOptions O;
  O.BitWidth = 16;
  O.CheckDivByZero = false;
  (void)B;
  return O;
}

UnrollOptions unrollOpts(const LargeBenchmark &B, bool Trusted,
                         bool Concolic) {
  UnrollOptions O;
  O.BitWidth = 16;
  O.MaxLoopUnwind = B.MaxLoopUnwind;
  O.LoopUnwindByLine = B.LoopUnwindByLine;
  O.MaxInlineDepth = B.MaxInlineDepth;
  O.HardLines = B.HardLines;
  if (Trusted)
    O.TrustedFunctions = B.TrustedFunctions;
  if (Concolic)
    O.ConcreteInputs = B.FailingInput;
  return O;
}

} // namespace

TEST(LargeBenchmarks, FailingInputsActuallyFail) {
  for (const LargeBenchmark &B : largeBenchmarks()) {
    auto Good = compile(B.CorrectSource);
    auto Bad = compile(B.FaultySource);
    Interpreter GI(*Good, execOpts(B));
    Interpreter BI(*Bad, execOpts(B));
    ExecResult G = GI.run("main", B.FailingInput);
    ExecResult F = BI.run("main", B.FailingInput);
    ASSERT_EQ(G.Status, ExecStatus::Ok) << B.Name;
    ASSERT_EQ(F.Status, ExecStatus::Ok) << B.Name;
    EXPECT_NE(G.ReturnValue, F.ReturnValue)
        << B.Name << ": input does not distinguish the fault";
  }
}

TEST(LargeBenchmarks, TotInfoSlicedLocalization) {
  const LargeBenchmark &B = largeBenchmark("tot_info");
  auto Good = compile(B.CorrectSource);
  auto Bad = compile(B.FaultySource);
  Interpreter GI(*Good, execOpts(B));
  int64_t Golden = GI.run("main", B.FailingInput).ReturnValue;

  UnrolledProgram UP =
      unrollProgram(*Bad, "main", unrollOpts(B, false, false));
  SliceStats Stats;
  UnrolledProgram Sliced = sliceProgram(UP, &Stats);
  EXPECT_LE(Stats.DefsAfter, Stats.DefsBefore);

  EncodeOptions EO;
  EO.BitWidth = 16;
  TraceFormula TF(encodeProgram(Sliced, EO));
  Spec S;
  S.CheckObligations = false;
  S.GoldenReturn = Golden;

  // The injected fault is a valid correction (deterministic single call).
  EXPECT_TRUE(isValidCorrection(TF, B.FailingInput, S, B.BugLines))
      << "tot_info fault line is not a correction";

  // A short, budgeted enumeration produces only sound diagnoses.
  LocalizeOptions LO;
  LO.MaxDiagnoses = 3;
  LO.ConflictBudget = 400000;
  LocalizationReport R = localizeFault(TF, B.FailingInput, S, LO);
  ASSERT_FALSE(R.Diagnoses.empty());
  for (const Diagnosis &D : R.Diagnoses)
    EXPECT_TRUE(isValidCorrection(TF, B.FailingInput, S, D.Lines))
        << "reported CoMSS is not actually a correction";
}

TEST(LargeBenchmarks, PrintTokensConcretizedLocalization) {
  const LargeBenchmark &B = largeBenchmark("print_tokens");
  auto Good = compile(B.CorrectSource);
  auto Bad = compile(B.FaultySource);
  Interpreter GI(*Good, execOpts(B));
  int64_t Golden = GI.run("main", B.FailingInput).ReturnValue;

  UnrolledProgram UP = unrollProgram(*Bad, "main", unrollOpts(B, true, true));
  EXPECT_GT(countConcretizableDefs(UP), 0u);
  ReductionReport RR = measureConcretization(UP, EncodeOptions{16});
  EXPECT_LT(RR.ClausesAfter, RR.ClausesBefore / 2)
      << "concretization should collapse the recursive tokenizer";

  EncodeOptions EO;
  EO.BitWidth = 16;
  EO.ConcretizeTrusted = true;
  TraceFormula TF(encodeProgram(UP, EO));
  Spec S;
  S.CheckObligations = false;
  S.GoldenReturn = Golden;
  LocalizeOptions LO;
  LO.MaxDiagnoses = 24;
  LocalizationReport R = localizeFault(TF, B.FailingInput, S, LO);
  ASSERT_FALSE(R.Diagnoses.empty());
  bool Found = false;
  for (uint32_t L : B.BugLines)
    Found |= std::find(R.AllLines.begin(), R.AllLines.end(), L) !=
             R.AllLines.end();
  EXPECT_TRUE(Found) << "print_tokens fault line not reported";
}

TEST(LargeBenchmarks, ScheduleDdminPlusSliceLocalization) {
  const LargeBenchmark &B = largeBenchmark("schedule");
  auto Good = compile(B.CorrectSource);
  auto Bad = compile(B.FaultySource);
  Interpreter GI(*Good, execOpts(B));
  Interpreter BI(*Bad, execOpts(B));

  // D: minimize the failing input (failure = outputs differ).
  auto Fails = [&](const InputVector &In) {
    ExecResult G = GI.run("main", In);
    ExecResult F = BI.run("main", In);
    return G.Status == ExecStatus::Ok && F.Status == ExecStatus::Ok &&
           G.ReturnValue != F.ReturnValue;
  };
  ASSERT_TRUE(Fails(B.FailingInput));
  DdminStats DS;
  InputVector Min = minimizeFailingInput(B.FailingInput, Fails, &DS);
  EXPECT_LE(DS.AtomsAfter, DS.AtomsBefore);

  // S: slice the trace built for the minimized input.
  int64_t Golden = GI.run("main", Min).ReturnValue;
  UnrolledProgram UP = unrollProgram(*Bad, "main", unrollOpts(B, false, false));
  SliceStats SS;
  UnrolledProgram Sliced = sliceProgram(UP, &SS);

  EncodeOptions EO;
  EO.BitWidth = 16;
  TraceFormula TF(encodeProgram(Sliced, EO));
  Spec S;
  S.CheckObligations = false;
  S.GoldenReturn = Golden;

  // Deterministic check (enumeration order varies): the injected fault
  // line must be a valid correction, i.e. appear in SOME CoMSS.
  EXPECT_TRUE(isValidCorrection(TF, Min, S, B.BugLines))
      << "schedule fault line is not a correction";

  // And a short enumeration produces sound diagnoses.
  LocalizeOptions LO;
  LO.MaxDiagnoses = 4;
  LocalizationReport R = localizeFault(TF, Min, S, LO);
  ASSERT_FALSE(R.Diagnoses.empty());
  for (const Diagnosis &D : R.Diagnoses)
    EXPECT_TRUE(isValidCorrection(TF, Min, S, D.Lines))
        << "reported CoMSS is not actually a correction";
}

TEST(LargeBenchmarks, Schedule2SlicedLocalization) {
  const LargeBenchmark &B = largeBenchmark("schedule2");
  auto Good = compile(B.CorrectSource);
  auto Bad = compile(B.FaultySource);
  Interpreter GI(*Good, execOpts(B));
  int64_t Golden = GI.run("main", B.FailingInput).ReturnValue;

  UnrolledProgram UP = unrollProgram(*Bad, "main", unrollOpts(B, false, false));
  UnrolledProgram Sliced = sliceProgram(UP);
  EncodeOptions EO;
  EO.BitWidth = 16;
  TraceFormula TF(encodeProgram(Sliced, EO));
  Spec S;
  S.CheckObligations = false;
  S.GoldenReturn = Golden;
  EXPECT_TRUE(isValidCorrection(TF, B.FailingInput, S, B.BugLines))
      << "schedule2 fault line is not a correction";
  LocalizeOptions LO;
  LO.MaxDiagnoses = 4;
  LocalizationReport R = localizeFault(TF, B.FailingInput, S, LO);
  ASSERT_FALSE(R.Diagnoses.empty());
  for (const Diagnosis &D : R.Diagnoses)
    EXPECT_TRUE(isValidCorrection(TF, B.FailingInput, S, D.Lines))
        << "reported CoMSS is not actually a correction";
}

TEST(SmallDemos, Program1LocalizeAndRepair) {
  auto P = compile(program1Source());
  BugAssistDriver Driver(*P, "main");
  auto Cex = Driver.findCounterexample(Spec{});
  ASSERT_TRUE(Cex.has_value());
  LocalizationReport R = localizeFault(Driver.formula(), *Cex, Spec{});
  bool Found = std::find(R.AllLines.begin(), R.AllLines.end(),
                         program1BugLine()) != R.AllLines.end();
  EXPECT_TRUE(Found);
  RepairResult Fix = repairProgram(*P, "main", {*Cex}, Spec{});
  EXPECT_TRUE(Fix.Found);
}

TEST(SmallDemos, Program2StrncatStudy) {
  auto P = compile(program2Source());
  // All-nonzero source string: the library writes dest[8], out of bounds.
  InputVector Bad;
  for (int I = 0; I < 8; ++I)
    Bad.push_back(InputValue::scalar(I + 1));
  ExecOptions IO;
  IO.BitWidth = 16;
  Interpreter Interp(*P, IO);
  EXPECT_EQ(Interp.run("main", Bad).Status, ExecStatus::BoundsFail);

  // Localization with the library trusted blames the call site.
  UnrollOptions UO;
  UO.BitWidth = 16;
  UO.MaxLoopUnwind = 10;
  UO.TrustedFunctions.insert(program2LibraryFunction());
  UO.HardLines = program2HardLines();
  BugAssistDriver Driver(*P, "main", UO);
  LocalizationReport R = localizeFault(Driver.formula(), Bad, Spec{});
  ASSERT_FALSE(R.Diagnoses.empty());
  bool CallSiteBlamed = std::find(R.AllLines.begin(), R.AllLines.end(),
                                  program2BugLine()) != R.AllLines.end();
  EXPECT_TRUE(CallSiteBlamed);

  // The off-by-one repair turns 8 into 7.
  RepairOptions RO;
  RO.Unroll = UO;
  RO.OperatorSwap = false;
  RepairResult Fix = repairProgram(*P, "main", {Bad}, Spec{}, nullptr, RO);
  ASSERT_TRUE(Fix.Found);
  EXPECT_EQ(Fix.Suggestion.Line, program2BugLine());
  EXPECT_NE(Fix.Suggestion.Description.find("8 -> 7"), std::string::npos)
      << Fix.Suggestion.Description;
}

TEST(SmallDemos, Program3FixedVersionIsSafe) {
  auto Fixed = compile(program3FixedSource());
  UnrollOptions UO;
  UO.MaxLoopUnwind = 10;
  BugAssistDriver Driver(*Fixed, "main", UO);
  auto Cex = Driver.findCounterexample(Spec{});
  EXPECT_FALSE(Cex.has_value()) << "fixed squareroot must verify";
}

TEST(SmallDemos, Program3LoopDiagnosis) {
  auto P = compile(program3Source());
  LoopDiagnosisOptions Opts;
  Opts.Unroll.MaxLoopUnwind = 10;
  Opts.Localize.MaxDiagnoses = 8;
  LoopDiagnosisResult R = diagnoseLoopFault(*P, "main", {}, Spec{}, Opts);
  ASSERT_FALSE(R.First.empty());
  bool BugLineFirst = false;
  for (const IterationSuspect &IS : R.First)
    BugLineFirst |= IS.Line == program3BugLine();
  EXPECT_TRUE(BugLineFirst);
}
