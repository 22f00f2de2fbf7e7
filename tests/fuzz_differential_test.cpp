//===- fuzz_differential_test.cpp - Bounded differential fuzz sweep ----------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// Tier-1 bounded version of the `bugassist fuzz` campaign: ~100 fixed-seed
// mutants across TCAS v0 and two SmallDemos subjects. Every localized
// mutant is diagnosed under three configurations (threads=1, threads=K,
// preprocessing off) inside runFuzzSweep, which byte-compares the
// canonical reports; any mismatch is a test failure, not a warning. The
// scorecard must also be identical no matter which K is used (K is both
// the portfolio width and the number of mutants in flight), and repairs
// the sweep machinery accepts must re-verify clean under BMC.
//
//===----------------------------------------------------------------------===//

#include "mutate/FuzzSweep.h"

#include "core/Repair.h"
#include "lang/Sema.h"
#include "programs/SmallDemos.h"
#include "programs/Tcas.h"

#include <gtest/gtest.h>

using namespace bugassist;

namespace {

std::unique_ptr<Program> compile(std::string_view Src) {
  DiagEngine Diags;
  auto P = parseAndAnalyze(Src, Diags);
  EXPECT_TRUE(P != nullptr) << Diags.render();
  return P;
}

void expectNoMismatches(const FuzzResult &R) {
  EXPECT_EQ(R.TotalMismatches, 0u);
  for (const std::string &Note : R.MismatchNotes)
    ADD_FAILURE() << Note;
}

bool sameTallies(const FuzzResult &A, const FuzzResult &B) {
  for (size_t I = 0; I < NumErrorTypes; ++I) {
    const FuzzClassStats &X = A.PerClass[I], &Y = B.PerClass[I];
    if (X.Mutants != Y.Mutants || X.Failing != Y.Failing ||
        X.Localized != Y.Localized || X.Hits != Y.Hits ||
        X.Repaired != Y.Repaired || X.Mismatches != Y.Mismatches)
      return false;
  }
  return A.Generated == B.Generated;
}

FuzzSubject tcasSubject(const Program &Base, size_t PoolSize) {
  FuzzSubject Subject;
  Subject.Base = &Base;
  Subject.Name = "tcas";
  Subject.Unroll = tcasUnrollOptions();
  Subject.CheckObligations = false;
  Subject.Pool = tcasTestPool(PoolSize);
  Subject.ProtectedLines = Subject.Unroll.HardLines;
  return Subject;
}

/// The scorecard without its "threads" line, the one line K may change.
std::string scorecardBody(const FuzzSubject &Subject, const FuzzOptions &Opts,
                          const FuzzResult &R) {
  const std::string Threads = "  \"threads\": ";
  std::string Card = renderFuzzScorecard(Subject, Opts, R), Out;
  size_t Pos = 0;
  while (Pos < Card.size()) {
    size_t End = Card.find('\n', Pos);
    End = End == std::string::npos ? Card.size() : End + 1;
    if (Card.compare(Pos, Threads.size(), Threads) != 0)
      Out.append(Card, Pos, End - Pos);
    Pos = End;
  }
  return Out;
}

} // namespace

TEST(FuzzDifferential, TcasSweepIsMismatchFreeAndWidthInvariant) {
  auto Base = compile(tcasSource());
  FuzzSubject Subject = tcasSubject(*Base, 300);

  FuzzOptions Opts;
  Opts.Seed = 1;
  Opts.Count = 60;
  Opts.Threads = 4;
  // Up to four mutants are judged at once; progress still counts 1..N,
  // one call per mutant.
  std::vector<std::pair<size_t, size_t>> Calls;
  FuzzResult R4 = runFuzzSweep(Subject, Opts, [&](size_t Done, size_t Total) {
    Calls.emplace_back(Done, Total);
  });
  EXPECT_EQ(R4.Generated, 60u);
  expectNoMismatches(R4);
  ASSERT_EQ(Calls.size(), R4.Generated);
  for (size_t I = 0; I < Calls.size(); ++I) {
    EXPECT_EQ(Calls[I].first, I + 1);
    EXPECT_EQ(Calls[I].second, R4.Generated);
  }

  // Some mutants must actually exercise the full path, or the
  // differential is vacuous.
  size_t Failing = 0, Hits = 0;
  for (const FuzzClassStats &Row : R4.PerClass) {
    Failing += Row.Failing;
    Hits += Row.Hits;
  }
  EXPECT_GT(Failing, 10u);
  EXPECT_GT(Hits, 5u);

  // The scorecard is derived entirely from the threads=1 run and merged
  // in mutant order, so neither the width of the differential twin nor
  // the number of mutants in flight may change a byte of it (bar the
  // "threads" line) or the order of the mismatch notes.
  const std::string Card4 = scorecardBody(Subject, Opts, R4);
  for (int K : {2, 1}) {
    Opts.Threads = K;
    FuzzResult R = runFuzzSweep(Subject, Opts);
    expectNoMismatches(R);
    EXPECT_TRUE(sameTallies(R4, R)) << "tallies depend on width " << K;
    EXPECT_EQ(scorecardBody(Subject, Opts, R), Card4) << "width " << K;
    EXPECT_EQ(R.MismatchNotes, R4.MismatchNotes) << "width " << K;
  }

  // Same seed, same options => the sweep itself is deterministic.
  Opts.Threads = 2;
  FuzzResult R2 = runFuzzSweep(Subject, Opts);
  FuzzResult R2b = runFuzzSweep(Subject, Opts);
  EXPECT_TRUE(sameTallies(R2, R2b)) << "sweep is not deterministic";
}

TEST(FuzzDifferential, SingleMutantSweepsRaceAtFullWidth) {
  // With one mutant per sweep the other lanes are idle, so the width-4
  // config's helpers really start and the race is contested -- unlike a
  // full sweep, where busy lanes mostly leave worker 0 racing alone.
  auto Base = compile(tcasSource());
  FuzzSubject Subject = tcasSubject(*Base, 300);
  FuzzOptions Opts;
  Opts.Count = 1;
  Opts.Threads = 4;
  size_t Localized = 0;
  for (uint64_t Seed = 101; Seed <= 120; ++Seed) {
    Opts.Seed = Seed;
    FuzzResult R = runFuzzSweep(Subject, Opts);
    EXPECT_EQ(R.Generated, 1u) << "seed " << Seed;
    expectNoMismatches(R);
    for (const FuzzClassStats &Row : R.PerClass)
      Localized += Row.Failing;
  }
  EXPECT_GT(Localized, 5u) << "too few sweeps reached the differential";
}

TEST(FuzzDifferential, Program1SweepIsMismatchFree) {
  auto Base = compile(program1Source());
  FuzzSubject Subject;
  Subject.Base = Base.get();
  Subject.Name = "program1";
  Subject.Unroll.BitWidth = 16;
  Subject.CheckObligations = true;
  for (int64_t X = -6; X <= 6; ++X)
    Subject.Pool.push_back({InputValue::scalar(X)});

  FuzzOptions Opts;
  Opts.Seed = 2;
  Opts.Count = 24;
  Opts.Threads = 4;
  FuzzResult R = runFuzzSweep(Subject, Opts);
  EXPECT_EQ(R.Generated, 24u);
  expectNoMismatches(R);
}

TEST(FuzzDifferential, Program3FixedSweepIsMismatchFree) {
  // The squareroot demo, from its *fixed* source: mutants are judged
  // against a verified-correct golden, the paper's Table 1 setup.
  auto Base = compile(program3FixedSource());
  FuzzSubject Subject;
  Subject.Base = Base.get();
  Subject.Name = "program3";
  Subject.Unroll.BitWidth = 16;
  Subject.Unroll.MaxLoopUnwind = 10;
  Subject.CheckObligations = true;
  Subject.Pool.push_back({}); // main() takes no inputs

  FuzzOptions Opts;
  Opts.Seed = 3;
  Opts.Count = 16;
  Opts.Threads = 2;
  FuzzResult R = runFuzzSweep(Subject, Opts);
  EXPECT_EQ(R.Generated, 16u);
  expectNoMismatches(R);
}

TEST(FuzzDifferential, AcceptedRepairsReverifyCleanUnderBmc) {
  // Drive the same pooled repair path the sweep uses, but keep the fixed
  // programs and independently re-verify each: BMC on the accepted mutant
  // must find no counterexample within the encoding bounds.
  auto Base = compile(program1Source());
  UnrollOptions UO;
  UO.BitWidth = 16;

  MutantGeneratorOptions GenOpts;
  GenOpts.Seed = 4;
  MutantGenerator Gen(*Base, GenOpts);
  auto Mutants = Gen.generate(16);
  ASSERT_FALSE(Mutants.empty());

  size_t Accepted = 0;
  for (GeneratedMutant &M : Mutants) {
    // A failing input for this mutant, if one exists in bounds.
    BugAssistDriver Driver(*M.Prog, "main", UO);
    auto Cex = Driver.findCounterexample(Spec{});
    if (!Cex)
      continue;
    RepairOptions RO;
    RO.Unroll = UO;
    RO.MaxCandidates = 64;
    RO.MaxInterpSteps = 100000;
    RepairResult R =
        repairProgram(*M.Prog, Driver, "main", {*Cex}, Spec{}, nullptr, RO);
    if (!R.Found)
      continue;
    ++Accepted;
    BugAssistDriver Fixed(*R.Suggestion.FixedProgram, "main", UO);
    EXPECT_FALSE(Fixed.findCounterexample(Spec{}).has_value())
        << "accepted repair for '" << M.Spec.Description
        << "' still has a counterexample";
  }
  EXPECT_GT(Accepted, 0u) << "no repair was ever accepted; test is vacuous";
}
