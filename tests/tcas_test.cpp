//===- tcas_test.cpp - TCAS benchmark tests (Section 6.1) -------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "programs/TcasMutants.h"

#include "core/BugAssist.h"
#include "lang/Sema.h"
#include "programs/Tcas.h"

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

int64_t runTcas(const Program &P, const InputVector &In) {
  Interpreter I(P, tcasExecOptions());
  ExecResult R = I.run("main", In);
  EXPECT_EQ(R.Status, ExecStatus::Ok);
  return R.ReturnValue;
}

InputVector tcasInput(int64_t Cvs, int64_t Hc, int64_t Ttrv, int64_t Ota,
                      int64_t Otar, int64_t Otra, int64_t Alv, int64_t Us,
                      int64_t Ds, int64_t Orac, int64_t Ocap, int64_t Ci) {
  return {InputValue::scalar(Cvs),  InputValue::scalar(Hc),
          InputValue::scalar(Ttrv), InputValue::scalar(Ota),
          InputValue::scalar(Otar), InputValue::scalar(Otra),
          InputValue::scalar(Alv),  InputValue::scalar(Us),
          InputValue::scalar(Ds),   InputValue::scalar(Orac),
          InputValue::scalar(Ocap), InputValue::scalar(Ci)};
}

} // namespace

TEST(Tcas, CorrectVersionCompilesAndRuns) {
  auto P = compile(tcasSource());
  // Disabled system: not enabled -> UNRESOLVED.
  EXPECT_EQ(runTcas(*P, tcasInput(601, 0, 1, 2000, 100, 2500, 1, 500, 400,
                                  0, 2, 0)),
            0);
}

TEST(Tcas, UpwardAdvisoryScenario) {
  auto P = compile(tcasSource());
  // Own below threat, descend blocked: Down_Separation below ALIM(0)=400,
  // Up above; intruder not TCAS-equipped.
  int64_t Out = runTcas(
      *P, tcasInput(/*Cvs=*/800, /*Hc=*/1, /*Ttrv=*/1, /*Ota=*/2000,
                    /*Otar=*/100, /*Otra=*/2800, /*Alv=*/0, /*Us=*/700,
                    /*Ds=*/300, /*Orac=*/0, /*Ocap=*/2, /*Ci=*/0));
  EXPECT_EQ(Out, 1);
}

TEST(Tcas, DownwardAdvisoryScenario) {
  auto P = compile(tcasSource());
  // Own above threat; descend-side else branch fires with Up_Separation
  // comfortably above ALIM(0) = 400 and no upward preference.
  int64_t Out = runTcas(
      *P, tcasInput(/*Cvs=*/800, /*Hc=*/1, /*Ttrv=*/1, /*Ota=*/2800,
                    /*Otar=*/100, /*Otra=*/2000, /*Alv=*/0, /*Us=*/700,
                    /*Ds=*/700, /*Orac=*/0, /*Ocap=*/2, /*Ci=*/0));
  EXPECT_EQ(Out, 2);
}

TEST(Tcas, PoolIsDeterministic) {
  auto A = tcasTestPool(50, 7);
  auto B = tcasTestPool(50, 7);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_TRUE(A[I] == B[I]) << "test " << I;
  auto C = tcasTestPool(50, 8);
  bool AnyDiff = false;
  for (size_t I = 0; I < A.size(); ++I)
    AnyDiff |= !(A[I] == C[I]);
  EXPECT_TRUE(AnyDiff);
}

TEST(Tcas, AllMutantsCompile) {
  ASSERT_EQ(tcasMutants().size(), 41u);
  for (const TcasMutant &M : tcasMutants()) {
    DiagEngine Diags;
    auto P = parseAndAnalyze(M.Source, Diags);
    EXPECT_TRUE(P != nullptr)
        << "v" << M.Version << ": " << Diags.render();
    EXPECT_FALSE(M.BugLines.empty()) << "v" << M.Version;
    EXPECT_EQ(M.ErrorCount, static_cast<int>(M.BugLines.size()))
        << "v" << M.Version;
  }
}

TEST(Tcas, MutantsDifferFromBaseExceptNeutralOnes) {
  auto Golden = compile(tcasSource());
  auto Pool = tcasTestPool(1600); // the paper's pool size
  Interpreter GI(*Golden, tcasExecOptions());

  size_t VersionsWithFailures = 0;
  for (const TcasMutant &M : tcasMutants()) {
    auto P = compile(M.Source);
    Interpreter MI(*P, tcasExecOptions());
    size_t Failing = 0;
    for (const InputVector &In : Pool) {
      int64_t Want = GI.run("main", In).ReturnValue;
      int64_t Got = MI.run("main", In).ReturnValue;
      Failing += Want != Got;
    }
    if (M.Version == 33 || M.Version == 38) {
      EXPECT_EQ(Failing, 0u) << "v" << M.Version
                             << " is designed to be failure-free";
    }
    VersionsWithFailures += Failing > 0;
  }
  // The 39 Table 1 versions must all be distinguishable by the pool.
  EXPECT_EQ(VersionsWithFailures, 39u);
}

TEST(Tcas, LocalizationPinpointsFigure2Fault) {
  // v2 is the Figure 2 case study: constant 100 -> 300 on line 24.
  const TcasMutant &V2 = tcasMutants()[1];
  ASSERT_EQ(V2.Version, 2);
  ASSERT_EQ(V2.BugLines.size(), 1u);
  const uint32_t BugLine = V2.BugLines[0];

  auto Golden = compile(tcasSource());
  auto Faulty = compile(V2.Source);
  Interpreter GI(*Golden, tcasExecOptions());
  Interpreter FI(*Faulty, tcasExecOptions());

  // Find one failing test from the pool.
  InputVector Failing;
  int64_t Want = 0;
  for (const InputVector &In : tcasTestPool(600)) {
    int64_t G = GI.run("main", In).ReturnValue;
    if (FI.run("main", In).ReturnValue != G) {
      Failing = In;
      Want = G;
      break;
    }
  }
  ASSERT_FALSE(Failing.empty()) << "pool does not exercise v2";

  BugAssistDriver Driver(*Faulty, "main", tcasUnrollOptions());
  Spec S;
  S.CheckObligations = false;
  S.GoldenReturn = Want;
  LocalizeOptions LO;
  LO.MaxDiagnoses = 32;
  LocalizationReport R = localizeFault(Driver.formula(), Failing, S, LO);
  ASSERT_FALSE(R.Diagnoses.empty());
  EXPECT_TRUE(std::find(R.AllLines.begin(), R.AllLines.end(), BugLine) !=
              R.AllLines.end())
      << "line " << BugLine << " not among reported lines";
  // SizeReduc: suspect set is a small fraction of the ~100-line program.
  EXPECT_LT(R.AllLines.size(), 30u);
}

TEST(Tcas, LocalizationSampleAcrossVersions) {
  // Spot-check detection on a few structurally different versions.
  auto Golden = compile(tcasSource());
  Interpreter GI(*Golden, tcasExecOptions());
  auto Pool = tcasTestPool(600);

  for (int Version : {5, 12, 16, 28, 37}) {
    const TcasMutant &M = tcasMutants()[static_cast<size_t>(Version - 1)];
    ASSERT_EQ(M.Version, Version);
    auto Faulty = compile(M.Source);
    Interpreter FI(*Faulty, tcasExecOptions());

    InputVector Failing;
    int64_t Want = 0;
    for (const InputVector &In : Pool) {
      int64_t G = GI.run("main", In).ReturnValue;
      if (FI.run("main", In).ReturnValue != G) {
        Failing = In;
        Want = G;
        break;
      }
    }
    ASSERT_FALSE(Failing.empty()) << "v" << Version << " not exercised";

    BugAssistDriver Driver(*Faulty, "main", tcasUnrollOptions());
    Spec S;
    S.CheckObligations = false;
    S.GoldenReturn = Want;
    LocalizeOptions LO;
    LO.MaxDiagnoses = 32;
    LocalizationReport R = localizeFault(Driver.formula(), Failing, S, LO);
    ASSERT_FALSE(R.Diagnoses.empty()) << "v" << Version;
    bool Detected = false;
    for (uint32_t L : M.BugLines)
      Detected |= std::find(R.AllLines.begin(), R.AllLines.end(), L) !=
                  R.AllLines.end();
    EXPECT_TRUE(Detected) << "v" << Version << " bug line not reported";
  }
}
