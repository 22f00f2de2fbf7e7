//===- maxsat_test.cpp - Partial MaxSAT unit & property tests ----------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "maxsat/MaxSat.h"

#include "cnf/DimacsReader.h"
#include "core/BugAssist.h"
#include "interp/Interpreter.h"
#include "lang/Sema.h"
#include "maxsat/Cardinality.h"
#include "maxsat/ReferenceMaxSat.h"
#include "programs/Tcas.h"
#include "programs/TcasMutants.h"
#include "sat/Solver.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>

using namespace bugassist;

namespace {

/// Exhaustive weighted partial MaxSAT oracle for small NumVars.
/// \returns minimal falsified-soft weight over models of Hard, or
/// UINT64_MAX when Hard is unsatisfiable.
uint64_t bruteForceOptimum(const MaxSatInstance &Inst) {
  uint64_t Best = UINT64_MAX;
  for (uint64_t Mask = 0; Mask < (1ull << Inst.NumVars); ++Mask) {
    auto LitTrue = [&](Lit L) {
      bool V = (Mask >> L.var()) & 1;
      return V != L.negated();
    };
    bool HardOk = true;
    for (const Clause &C : Inst.Hard) {
      bool Sat = false;
      for (Lit L : C)
        if (LitTrue(L)) {
          Sat = true;
          break;
        }
      if (!Sat) {
        HardOk = false;
        break;
      }
    }
    if (!HardOk)
      continue;
    uint64_t Cost = 0;
    for (const SoftClause &S : Inst.Soft) {
      bool Sat = false;
      for (Lit L : S.Lits)
        if (LitTrue(L)) {
          Sat = true;
          break;
        }
      if (!Sat)
        Cost += S.Weight;
    }
    Best = std::min(Best, Cost);
  }
  return Best;
}

MaxSatInstance randomInstance(Rng &R, int NumVars, int NumHard, int NumSoft,
                              bool Weighted) {
  MaxSatInstance Inst;
  Inst.NumVars = NumVars;
  auto RandomClause = [&](int Len) {
    Clause C;
    std::set<Var> Used;
    while (static_cast<int>(C.size()) < Len) {
      Var V = static_cast<Var>(R.below(NumVars));
      if (!Used.insert(V).second)
        continue;
      C.push_back(mkLit(V, R.chance(1, 2)));
    }
    return C;
  };
  for (int I = 0; I < NumHard; ++I)
    Inst.Hard.push_back(RandomClause(static_cast<int>(R.range(1, 3))));
  for (int I = 0; I < NumSoft; ++I) {
    SoftClause S;
    S.Lits = RandomClause(static_cast<int>(R.range(1, 2)));
    S.Weight = Weighted ? static_cast<uint64_t>(R.range(1, 5)) : 1;
    Inst.Soft.push_back(std::move(S));
  }
  return Inst;
}

} // namespace

// --- cardinality encodings --------------------------------------------------

namespace {

/// Counts models of the clauses produced by an encoder, projected onto the
/// first NumVars variables, that satisfy a predicate.
template <typename Pred>
void forEachProjectedModel(int NumVars,
                           const std::vector<Clause> &EncoderClauses,
                           int TotalVars, Pred &&Check) {
  for (uint64_t Mask = 0; Mask < (1ull << NumVars); ++Mask) {
    // The encoding must be *satisfiable consistently with Mask* iff the
    // constraint holds for Mask. Use the solver with assumptions.
    Solver S;
    S.ensureVars(TotalVars);
    bool Ok = true;
    for (const Clause &C : EncoderClauses)
      Ok = Ok && S.addClause(C);
    std::vector<Lit> Assumps;
    for (int V = 0; V < NumVars; ++V)
      Assumps.push_back(mkLit(V, !((Mask >> V) & 1)));
    bool Sat = Ok && S.solve(Assumps) == LBool::True;
    Check(Mask, Sat);
  }
}

} // namespace

TEST(Cardinality, AtMostOnePairwise) {
  for (int N : {2, 3, 4, 5}) {
    std::vector<Clause> Out;
    int NextVar = N;
    ClauseSink Sink{[&Out](Clause C) { Out.push_back(std::move(C)); },
                    [&NextVar]() { return NextVar++; }};
    std::vector<Lit> Ls;
    for (int I = 0; I < N; ++I)
      Ls.push_back(mkLit(I));
    encodeAtMostOne(Ls, Sink);
    forEachProjectedModel(N, Out, NextVar, [&](uint64_t Mask, bool Sat) {
      EXPECT_EQ(Sat, __builtin_popcountll(Mask) <= 1)
          << "n=" << N << " mask=" << Mask;
    });
  }
}

TEST(Cardinality, AtMostOneLadder) {
  for (int N : {6, 8, 10}) {
    std::vector<Clause> Out;
    int NextVar = N;
    ClauseSink Sink{[&Out](Clause C) { Out.push_back(std::move(C)); },
                    [&NextVar]() { return NextVar++; }};
    std::vector<Lit> Ls;
    for (int I = 0; I < N; ++I)
      Ls.push_back(mkLit(I));
    encodeAtMostOne(Ls, Sink);
    forEachProjectedModel(N, Out, NextVar, [&](uint64_t Mask, bool Sat) {
      EXPECT_EQ(Sat, __builtin_popcountll(Mask) <= 1)
          << "n=" << N << " mask=" << Mask;
    });
  }
}

TEST(Cardinality, ExactlyOne) {
  for (int N : {1, 3, 7}) {
    std::vector<Clause> Out;
    int NextVar = N;
    ClauseSink Sink{[&Out](Clause C) { Out.push_back(std::move(C)); },
                    [&NextVar]() { return NextVar++; }};
    std::vector<Lit> Ls;
    for (int I = 0; I < N; ++I)
      Ls.push_back(mkLit(I));
    encodeExactlyOne(Ls, Sink);
    forEachProjectedModel(N, Out, NextVar, [&](uint64_t Mask, bool Sat) {
      EXPECT_EQ(Sat, __builtin_popcountll(Mask) == 1)
          << "n=" << N << " mask=" << Mask;
    });
  }
}

TEST(Cardinality, PbLeqUnitWeightsMatchesCardinality) {
  const int N = 6;
  for (uint64_t Bound : {0ull, 1ull, 2ull, 3ull, 5ull, 6ull}) {
    std::vector<Clause> Out;
    int NextVar = N;
    ClauseSink Sink{[&Out](Clause C) { Out.push_back(std::move(C)); },
                    [&NextVar]() { return NextVar++; }};
    std::vector<Lit> Ls;
    std::vector<uint64_t> Ws;
    for (int I = 0; I < N; ++I) {
      Ls.push_back(mkLit(I));
      Ws.push_back(1);
    }
    encodePbLeq(Ls, Ws, Bound, Sink);
    forEachProjectedModel(N, Out, NextVar, [&](uint64_t Mask, bool Sat) {
      EXPECT_EQ(Sat, static_cast<uint64_t>(__builtin_popcountll(Mask)) <=
                         Bound)
          << "bound=" << Bound << " mask=" << Mask;
    });
  }
}

TEST(Cardinality, PbLeqGeneralWeights) {
  // weights {3, 1, 4, 2, 5}, several bounds, exhaustive check.
  const std::vector<uint64_t> Ws = {3, 1, 4, 2, 5};
  const int N = static_cast<int>(Ws.size());
  for (uint64_t Bound : {0ull, 2ull, 4ull, 7ull, 10ull, 14ull, 15ull}) {
    std::vector<Clause> Out;
    int NextVar = N;
    ClauseSink Sink{[&Out](Clause C) { Out.push_back(std::move(C)); },
                    [&NextVar]() { return NextVar++; }};
    std::vector<Lit> Ls;
    for (int I = 0; I < N; ++I)
      Ls.push_back(mkLit(I));
    encodePbLeq(Ls, Ws, Bound, Sink);
    forEachProjectedModel(N, Out, NextVar, [&](uint64_t Mask, bool Sat) {
      uint64_t Sum = 0;
      for (int I = 0; I < N; ++I)
        if ((Mask >> I) & 1)
          Sum += Ws[I];
      EXPECT_EQ(Sat, Sum <= Bound) << "bound=" << Bound << " mask=" << Mask;
    });
  }
}

// --- MaxSAT solvers -----------------------------------------------------------

TEST(FuMalik, AllSoftSatisfiable) {
  MaxSatInstance Inst;
  Inst.NumVars = 2;
  Inst.Soft.push_back({{mkLit(0)}, 1});
  Inst.Soft.push_back({{mkLit(1)}, 1});
  auto R = solveFuMalik(Inst);
  ASSERT_EQ(R.Status, MaxSatStatus::Optimum);
  EXPECT_EQ(R.Cost, 0u);
  EXPECT_TRUE(R.FalsifiedSoft.empty());
}

TEST(FuMalik, TwoContradictorySoft) {
  MaxSatInstance Inst;
  Inst.NumVars = 1;
  Inst.Soft.push_back({{mkLit(0)}, 1});
  Inst.Soft.push_back({{~mkLit(0)}, 1});
  auto R = solveFuMalik(Inst);
  ASSERT_EQ(R.Status, MaxSatStatus::Optimum);
  EXPECT_EQ(R.Cost, 1u);
  EXPECT_EQ(R.FalsifiedSoft.size(), 1u);
}

TEST(FuMalik, HardUnsatDetected) {
  MaxSatInstance Inst;
  Inst.NumVars = 1;
  Inst.Hard.push_back({mkLit(0)});
  Inst.Hard.push_back({~mkLit(0)});
  Inst.Soft.push_back({{mkLit(0)}, 1});
  auto R = solveFuMalik(Inst);
  EXPECT_EQ(R.Status, MaxSatStatus::HardUnsat);
}

TEST(FuMalik, HardForcesSoftViolation) {
  // Hard: x. Soft: ~x, y, ~y. Optimum 2 (must falsify ~x and one of y/~y).
  MaxSatInstance Inst;
  Inst.NumVars = 2;
  Inst.Hard.push_back({mkLit(0)});
  Inst.Soft.push_back({{~mkLit(0)}, 1});
  Inst.Soft.push_back({{mkLit(1)}, 1});
  Inst.Soft.push_back({{~mkLit(1)}, 1});
  auto R = solveFuMalik(Inst);
  ASSERT_EQ(R.Status, MaxSatStatus::Optimum);
  EXPECT_EQ(R.Cost, 2u);
}

TEST(FuMalik, SelectorLocalizationShape) {
  // The BugAssist shape: hard statement clauses guarded by selectors,
  // contradictory data; MaxSAT must falsify exactly the "buggy" selector.
  // Statements: s1: x=1, s2: y=x+1 (as y=2), s3: assert y==3 (hard).
  // Encoded propositionally: sel1 -> x1, sel2 -> (x1 <-> y2false...)
  // Simplified Boolean model: hard: (y3), sel2 -> (y3 <-> x... )
  // Use: hard (a), soft sel1 with sel1->(b), soft sel2 with sel2->(b -> ~a).
  // Then sel1 & sel2 & a is UNSAT; dropping either selector fixes it; the
  // optimum cost is 1.
  MaxSatInstance Inst;
  Inst.NumVars = 4; // a=0 b=1 sel1=2 sel2=3
  Lit A = mkLit(0), B = mkLit(1), S1 = mkLit(2), S2 = mkLit(3);
  Inst.Hard.push_back({A});
  Inst.Hard.push_back({~S1, B});
  Inst.Hard.push_back({~S2, ~B, ~A});
  Inst.Soft.push_back({{S1}, 1});
  Inst.Soft.push_back({{S2}, 1});
  auto R = solveFuMalik(Inst);
  ASSERT_EQ(R.Status, MaxSatStatus::Optimum);
  EXPECT_EQ(R.Cost, 1u);
  ASSERT_EQ(R.FalsifiedSoft.size(), 1u);
}

TEST(LinearSearch, MatchesSmallOptimum) {
  MaxSatInstance Inst;
  Inst.NumVars = 2;
  Inst.Hard.push_back({mkLit(0)});
  Inst.Soft.push_back({{~mkLit(0)}, 7});
  Inst.Soft.push_back({{mkLit(1)}, 2});
  auto R = solveLinear(Inst);
  ASSERT_EQ(R.Status, MaxSatStatus::Optimum);
  EXPECT_EQ(R.Cost, 7u);
}

TEST(LinearSearch, WeightedPrefersCheaperViolation) {
  // x and ~x soft with weights 1 and 10: falsify the weight-1 clause.
  MaxSatInstance Inst;
  Inst.NumVars = 1;
  Inst.Soft.push_back({{mkLit(0)}, 1});
  Inst.Soft.push_back({{~mkLit(0)}, 10});
  auto R = solveLinear(Inst);
  ASSERT_EQ(R.Status, MaxSatStatus::Optimum);
  EXPECT_EQ(R.Cost, 1u);
  ASSERT_EQ(R.FalsifiedSoft.size(), 1u);
  EXPECT_EQ(R.FalsifiedSoft[0], 0u);
}

TEST(LinearSearch, HardUnsat) {
  MaxSatInstance Inst;
  Inst.NumVars = 1;
  Inst.Hard.push_back({mkLit(0)});
  Inst.Hard.push_back({~mkLit(0)});
  auto R = solveLinear(Inst);
  EXPECT_EQ(R.Status, MaxSatStatus::HardUnsat);
}

TEST(LinearSearch, LoopWeightShape) {
  // The Section 5.2 shape: iterations kappa=1..3 get weights
  // alpha+eta-kappa = 4,3,2 (alpha=2, eta=3). Hard constraints force at
  // least one iteration selector off; the solver must drop the *latest*
  // (cheapest) iteration.
  MaxSatInstance Inst;
  Inst.NumVars = 3;
  Inst.Hard.push_back({~mkLit(0), ~mkLit(1), ~mkLit(2)});
  Inst.Soft.push_back({{mkLit(0)}, 4});
  Inst.Soft.push_back({{mkLit(1)}, 3});
  Inst.Soft.push_back({{mkLit(2)}, 2});
  auto R = solveLinear(Inst);
  ASSERT_EQ(R.Status, MaxSatStatus::Optimum);
  EXPECT_EQ(R.Cost, 2u);
  ASSERT_EQ(R.FalsifiedSoft.size(), 1u);
  EXPECT_EQ(R.FalsifiedSoft[0], 2u);
}

// --- randomized differential properties -------------------------------------

struct MaxSatRandomCase {
  int NumVars;
  int NumHard;
  int NumSoft;
  bool Weighted;
  uint64_t Seed;
};

class MaxSatRandomTest : public ::testing::TestWithParam<MaxSatRandomCase> {};

TEST_P(MaxSatRandomTest, MatchesBruteForce) {
  const auto &P = GetParam();
  Rng R(P.Seed);
  for (int Round = 0; Round < 25; ++Round) {
    MaxSatInstance Inst =
        randomInstance(R, P.NumVars, P.NumHard, P.NumSoft, P.Weighted);
    uint64_t Expected = bruteForceOptimum(Inst);

    auto Lin = solveLinear(Inst);
    if (Expected == UINT64_MAX) {
      EXPECT_EQ(Lin.Status, MaxSatStatus::HardUnsat);
    } else {
      ASSERT_EQ(Lin.Status, MaxSatStatus::Optimum) << "round " << Round;
      EXPECT_EQ(Lin.Cost, Expected) << "linear, round " << Round;
    }

    if (!P.Weighted) {
      auto FM = solveFuMalik(Inst);
      if (Expected == UINT64_MAX) {
        EXPECT_EQ(FM.Status, MaxSatStatus::HardUnsat);
      } else {
        ASSERT_EQ(FM.Status, MaxSatStatus::Optimum) << "round " << Round;
        EXPECT_EQ(FM.Cost, Expected) << "fu-malik, round " << Round;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomSweep, MaxSatRandomTest,
    ::testing::Values(MaxSatRandomCase{5, 4, 6, false, 101},
                      MaxSatRandomCase{6, 8, 8, false, 102},
                      MaxSatRandomCase{7, 10, 10, false, 103},
                      MaxSatRandomCase{8, 12, 10, false, 104},
                      MaxSatRandomCase{5, 4, 6, true, 201},
                      MaxSatRandomCase{6, 8, 8, true, 202},
                      MaxSatRandomCase{7, 10, 10, true, 203},
                      MaxSatRandomCase{8, 12, 10, true, 204}));

// --- incremental engines vs. the seed (rebuild-per-round) semantics --------

TEST(Incremental, FuMalikMatchesSeedOnFixedInstances) {
  // Unique optimum: y is forced, so (~x \/ ~y) forces x false and the only
  // minimal CoMSS is soft clause 0.
  MaxSatInstance Inst;
  Inst.NumVars = 2;
  Inst.Hard.push_back({~mkLit(0), ~mkLit(1)});
  Inst.Hard.push_back({mkLit(1)});
  Inst.Soft.push_back({{mkLit(0)}, 1});
  Inst.Soft.push_back({{mkLit(1)}, 1});

  auto Inc = solveFuMalik(Inst);
  auto Ref = referenceSolveFuMalik(Inst);
  ASSERT_EQ(Inc.Status, MaxSatStatus::Optimum);
  ASSERT_EQ(Ref.Status, MaxSatStatus::Optimum);
  EXPECT_EQ(Inc.Cost, Ref.Cost);
  EXPECT_EQ(Inc.FalsifiedSoft, Ref.FalsifiedSoft);
  EXPECT_EQ(Inc.FalsifiedSoft, std::vector<size_t>{0});
}

TEST(Incremental, LinearMatchesSeedOnFixedInstances) {
  MaxSatInstance Inst;
  Inst.NumVars = 3;
  Inst.Hard.push_back({~mkLit(0), ~mkLit(1), ~mkLit(2)});
  Inst.Soft.push_back({{mkLit(0)}, 4});
  Inst.Soft.push_back({{mkLit(1)}, 3});
  Inst.Soft.push_back({{mkLit(2)}, 2});

  auto Inc = solveLinear(Inst);
  auto Ref = referenceSolveLinear(Inst);
  ASSERT_EQ(Inc.Status, MaxSatStatus::Optimum);
  ASSERT_EQ(Ref.Status, MaxSatStatus::Optimum);
  EXPECT_EQ(Inc.Cost, Ref.Cost);
  EXPECT_EQ(Inc.FalsifiedSoft, Ref.FalsifiedSoft);
}

TEST(Incremental, MatchesSeedCostOnRandomSweep) {
  Rng R(4242);
  for (int Round = 0; Round < 40; ++Round) {
    MaxSatInstance Inst = randomInstance(R, 7, 8, 9, Round % 2 == 1);
    auto RefL = referenceSolveLinear(Inst);
    auto IncL = solveLinear(Inst);
    ASSERT_EQ(IncL.Status, RefL.Status) << "round " << Round;
    if (RefL.Status == MaxSatStatus::Optimum) {
      EXPECT_EQ(IncL.Cost, RefL.Cost) << "linear, round " << Round;
    }
    if (Round % 2 == 0) {
      auto RefF = referenceSolveFuMalik(Inst);
      auto IncF = solveFuMalik(Inst);
      ASSERT_EQ(IncF.Status, RefF.Status) << "round " << Round;
      if (RefF.Status == MaxSatStatus::Optimum) {
        EXPECT_EQ(IncF.Cost, RefF.Cost) << "fu-malik, round " << Round;
      }
    }
  }
}

TEST(Incremental, SessionEnumerationMatchesRebuiltEnumeration) {
  // Drive one persistent session through blocked re-optimizations (the
  // CoMSS enumeration pattern) and check every step against the seed
  // engine re-run from scratch on the instance plus all blocking clauses.
  const int Length = 6;
  MaxSatInstance Inst;
  Inst.NumVars = (Length + 1) + Length;
  auto Y = [](int I) { return mkLit(I); };
  auto Sel = [](int I) { return mkLit(Length + I); };
  Inst.Hard.push_back({Y(0)});
  Inst.Hard.push_back({~Y(Length)});
  for (int I = 1; I <= Length; ++I) {
    Inst.Hard.push_back({~Sel(I), ~Y(I - 1), Y(I)});
    Inst.Hard.push_back({~Sel(I), Y(I - 1), ~Y(I)});
    Inst.Soft.push_back({{Sel(I)}, 1});
  }

  auto Session = makeFuMalikSession(Inst);
  MaxSatInstance Blocked = Inst; // accumulates beta for the reference
  for (int Step = 0; Step < Length + 1; ++Step) {
    MaxSatResult Inc = Session->solve();
    MaxSatResult Ref = referenceSolveFuMalik(Blocked);
    ASSERT_EQ(Inc.Status, Ref.Status) << "step " << Step;
    if (Inc.Status != MaxSatStatus::Optimum)
      break; // both exhausted together
    EXPECT_EQ(Inc.Cost, Ref.Cost) << "step " << Step;
    EXPECT_EQ(Inc.FalsifiedSoft.size(), Ref.FalsifiedSoft.size())
        << "step " << Step;
    ASSERT_FALSE(Inc.FalsifiedSoft.empty());
    Clause Beta;
    for (size_t I : Inc.FalsifiedSoft)
      Beta.push_back(Inst.Soft[I].Lits[0]);
    Session->addHardClause(Beta);
    Blocked.Hard.push_back(Beta);
  }
}

TEST(Incremental, LinearSessionSurvivesBlockingClauses) {
  // Weighted session: after each blocking clause the next-cheapest
  // violation must be found, with the bound re-tightened on the same
  // persistent counter (optima 1, then 5, then 9, then hard-UNSAT).
  MaxSatInstance Inst;
  Inst.NumVars = 3;
  Inst.Hard.push_back({~mkLit(0), ~mkLit(1), ~mkLit(2)});
  Inst.Soft.push_back({{mkLit(0)}, 1});
  Inst.Soft.push_back({{mkLit(1)}, 5});
  Inst.Soft.push_back({{mkLit(2)}, 9});

  auto Session = makeLinearSession(Inst);
  auto R1 = Session->solve();
  ASSERT_EQ(R1.Status, MaxSatStatus::Optimum);
  EXPECT_EQ(R1.Cost, 1u);
  ASSERT_EQ(R1.FalsifiedSoft, std::vector<size_t>{0});

  Session->addHardClause({mkLit(0)}); // beta: statement 0 stays enabled
  auto R2 = Session->solve();
  ASSERT_EQ(R2.Status, MaxSatStatus::Optimum);
  EXPECT_EQ(R2.Cost, 5u);
  ASSERT_EQ(R2.FalsifiedSoft, std::vector<size_t>{1});

  Session->addHardClause({mkLit(1)});
  auto R3 = Session->solve();
  ASSERT_EQ(R3.Status, MaxSatStatus::Optimum);
  EXPECT_EQ(R3.Cost, 9u);
  ASSERT_EQ(R3.FalsifiedSoft, std::vector<size_t>{2});

  Session->addHardClause({mkLit(2)});
  auto R4 = Session->solve();
  EXPECT_EQ(R4.Status, MaxSatStatus::HardUnsat);
}

// --- anytime bounds under resource budgets -----------------------------------

namespace {

/// Cost of \p Model on \p Inst: sum of soft weights the model falsifies.
uint64_t modelCost(const MaxSatInstance &Inst,
                   const std::vector<LBool> &Model) {
  uint64_t Cost = 0;
  for (const SoftClause &S : Inst.Soft)
    if (!clauseSatisfied(S.Lits, Model))
      Cost += S.Weight;
  return Cost;
}

/// N contradictory soft pairs (x_i) / (~x_i), all weight 1: every model
/// costs exactly N, so the optimum is N and Fu-Malik needs N rounds.
MaxSatInstance contradictoryPairs(int N) {
  MaxSatInstance Inst;
  Inst.NumVars = N;
  for (int I = 0; I < N; ++I) {
    Inst.Soft.push_back({{mkLit(I)}, 1});
    Inst.Soft.push_back({{~mkLit(I)}, 1});
  }
  return Inst;
}

/// Appends PHP(Holes + 1, Holes) with ALL clauses soft (weight 1) on fresh
/// variables: its minimal relaxation costs exactly 1, but finding the core
/// requires the full exponential pigeonhole refutation.
void appendSoftPigeonhole(MaxSatInstance &Inst, int Holes) {
  int Base = Inst.NumVars;
  int Pigeons = Holes + 1;
  auto VarOf = [&](int P, int H) { return Base + P * Holes + H; };
  Inst.NumVars += Pigeons * Holes;
  for (int P = 0; P < Pigeons; ++P) {
    Clause C;
    for (int H = 0; H < Holes; ++H)
      C.push_back(mkLit(VarOf(P, H)));
    Inst.Soft.push_back({std::move(C), 1});
  }
  for (int H = 0; H < Holes; ++H)
    for (int P1 = 0; P1 < Pigeons; ++P1)
      for (int P2 = P1 + 1; P2 < Pigeons; ++P2)
        Inst.Soft.push_back(
            {{~mkLit(VarOf(P1, H)), ~mkLit(VarOf(P2, H))}, 1});
}

} // namespace

TEST(Anytime, OptimumCarriesTightBoundsAndWitness) {
  Rng R(9001);
  for (int Round = 0; Round < 15; ++Round) {
    MaxSatInstance Inst = randomInstance(R, 7, 6, 9, Round % 2 == 1);
    auto Res = solveLinear(Inst);
    if (Res.Status == MaxSatStatus::HardUnsat) {
      EXPECT_EQ(Res.LowerBound, UINT64_MAX);
      EXPECT_EQ(Res.UpperBound, UINT64_MAX);
      continue;
    }
    ASSERT_EQ(Res.Status, MaxSatStatus::Optimum);
    EXPECT_EQ(Res.LowerBound, Res.Cost);
    EXPECT_EQ(Res.UpperBound, Res.Cost);
    EXPECT_EQ(Res.BestModel, Res.Model);
  }
}

TEST(Anytime, BudgetedFuMalikReturnsSoundBoundsAndRecovers) {
  // 12 contradictory pairs (each core found in a couple of propagations)
  // plus a soft pigeonhole whose single core needs the full exponential
  // refutation. With a 1-conflict cap the cheap pair rounds finish before
  // the amortized poll (every 1024 search iterations) first fires, then
  // the pigeonhole round blows well past it: the session must hand back
  // Unknown with a sound bracket and a hard-satisfying witness.
  const uint64_t Pairs = 12, Optimum = Pairs + 1;
  MaxSatInstance Inst = contradictoryPairs(static_cast<int>(Pairs));
  appendSoftPigeonhole(Inst, /*Holes=*/6);
  auto Session = makeFuMalikSession(Inst);
  Solver::Budget B;
  B.MaxConflicts = 1;
  Session->setBudget(B);
  MaxSatResult R = Session->solve();
  ASSERT_EQ(R.Status, MaxSatStatus::Unknown);
  EXPECT_GT(R.LowerBound, 0u) << "some rounds should complete before poll";
  EXPECT_LE(R.LowerBound, Optimum);
  ASSERT_NE(R.UpperBound, UINT64_MAX) << "harvest produced no witness";
  ASSERT_FALSE(R.BestModel.empty());
  EXPECT_EQ(modelCost(Inst, R.BestModel), R.UpperBound);
  EXPECT_GE(R.UpperBound, Optimum);

  // clearBudget re-arms the SAME session; it must then reach the optimum
  // inside the bracket it reported while budgeted.
  Session->clearBudget();
  MaxSatResult R2 = Session->solve();
  ASSERT_EQ(R2.Status, MaxSatStatus::Optimum);
  EXPECT_EQ(R2.Cost, Optimum);
  EXPECT_GE(R2.Cost, R.LowerBound);
  EXPECT_LE(R2.Cost, R.UpperBound);
}

TEST(Anytime, BudgetedBoundsBracketTheTrueOptimumOnRandomSweep) {
  // Soundness of the anytime contract against the brute-force oracle:
  // whatever a budget-starved session reports, the true optimum must lie
  // within [LowerBound, UpperBound] and BestModel must witness UpperBound.
  Rng R(777);
  int Exhausted = 0;
  for (int Round = 0; Round < 20; ++Round) {
    MaxSatInstance Inst = randomInstance(R, 7, 8, 9, Round % 2 == 1);
    uint64_t Expected = bruteForceOptimum(Inst);
    auto Session = makeMaxSatSession(Inst, /*Weighted=*/Round % 2 == 1);
    // An already-expired deadline: the optimizing search stops at its very
    // first poll, so only the harvest pass (which runs budget-free) can
    // contribute a witness.
    Solver::Budget B;
    B.setDeadlineIn(0.0);
    Session->setBudget(B);
    MaxSatResult Res = Session->solve();
    switch (Res.Status) {
    case MaxSatStatus::Optimum:
      EXPECT_EQ(Res.Cost, Expected) << "round " << Round;
      break;
    case MaxSatStatus::HardUnsat:
      EXPECT_EQ(Expected, UINT64_MAX) << "round " << Round;
      break;
    case MaxSatStatus::Unknown:
      ++Exhausted;
      EXPECT_LE(Res.LowerBound, Expected) << "round " << Round;
      EXPECT_GE(Res.UpperBound, Expected) << "round " << Round;
      if (Expected == UINT64_MAX) {
        // Hard part unsatisfiable: no witness can exist.
        EXPECT_EQ(Res.UpperBound, UINT64_MAX) << "round " << Round;
        EXPECT_TRUE(Res.BestModel.empty()) << "round " << Round;
      } else if (Res.UpperBound != UINT64_MAX) {
        ASSERT_FALSE(Res.BestModel.empty()) << "round " << Round;
        EXPECT_EQ(modelCost(Inst, Res.BestModel), Res.UpperBound)
            << "round " << Round;
      }
      break;
    }
  }
  // The sweep is only meaningful if the budget actually bit somewhere.
  EXPECT_GT(Exhausted, 0) << "no round exhausted its budget";
}

TEST(MaxSat, FalsifiedSoftConsistentWithCost) {
  Rng R(555);
  for (int Round = 0; Round < 20; ++Round) {
    MaxSatInstance Inst = randomInstance(R, 7, 6, 9, true);
    auto Res = solveLinear(Inst);
    if (Res.Status != MaxSatStatus::Optimum)
      continue;
    uint64_t Sum = 0;
    for (size_t I : Res.FalsifiedSoft)
      Sum += Inst.Soft[I].Weight;
    EXPECT_EQ(Sum, Res.Cost);
    // Every clause not reported falsified must be satisfied by the model.
    for (size_t I = 0; I < Inst.Soft.size(); ++I) {
      bool Reported = std::find(Res.FalsifiedSoft.begin(),
                                Res.FalsifiedSoft.end(),
                                I) != Res.FalsifiedSoft.end();
      EXPECT_EQ(!clauseSatisfied(Inst.Soft[I].Lits, Res.Model), Reported);
    }
  }
}

// --- the full model on request ---------------------------------------------

namespace {

/// Runs up to \p Rounds optimizations of Algorithm 1's enumeration (each
/// optimum blocked by "one of its falsified soft clauses holds") on two
/// sessions that differ only in MaxSatInstance::WantModel. Reading the
/// full model must not change the search or any reported figure, and the
/// full model must satisfy every hard clause.
void expectFullModelChangesNothing(MaxSatInstance Inst, bool Weighted,
                                   size_t Rounds, const std::string &What) {
  Inst.WantModel = false;
  std::unique_ptr<MaxSatSession> Lean = makeMaxSatSession(Inst, Weighted);
  MaxSatInstance Full = Inst;
  Full.WantModel = true;
  std::unique_ptr<MaxSatSession> Rich = makeMaxSatSession(Full, Weighted);
  std::vector<Clause> Hard = Inst.Hard;
  for (size_t Round = 0; Round < Rounds; ++Round) {
    MaxSatResult A = Lean->solve();
    MaxSatResult B = Rich->solve();
    std::string Where = What + " round " + std::to_string(Round);
    ASSERT_EQ(A.Status, B.Status) << Where;
    EXPECT_EQ(A.Cost, B.Cost) << Where;
    EXPECT_EQ(A.FalsifiedSoft, B.FalsifiedSoft) << Where;
    EXPECT_EQ(A.SatCalls, B.SatCalls) << Where;
    EXPECT_EQ(A.Search.Conflicts, B.Search.Conflicts) << Where;
    EXPECT_EQ(A.Search.Propagations, B.Search.Propagations) << Where;
    if (B.Status != MaxSatStatus::Optimum)
      return;
    ASSERT_EQ(B.Model.size(), static_cast<size_t>(Inst.NumVars)) << Where;
    for (size_t I = 0; I < Hard.size(); ++I)
      ASSERT_TRUE(clauseSatisfied(Hard[I], B.Model))
          << Where << ": hard clause " << I;
    if (A.FalsifiedSoft.empty())
      return;
    Clause Block;
    for (size_t I : A.FalsifiedSoft)
      Block.insert(Block.end(), Inst.Soft[I].Lits.begin(),
                   Inst.Soft[I].Lits.end());
    Hard.push_back(Block);
    Lean->addHardClause(Block);
    Rich->addHardClause(Block);
  }
}

} // namespace

TEST(ModelOnRequest, TcasLocalizationIsTheSameWithAndWithoutTheFullModel) {
  DiagEngine Diags;
  auto Golden = parseAndAnalyze(tcasSource(), Diags);
  ASSERT_NE(Golden, nullptr) << Diags.render();
  Interpreter GI(*Golden, tcasExecOptions());
  std::vector<InputVector> Pool = tcasTestPool(600);
  size_t Localized = 0;
  for (const TcasMutant &M : tcasMutants()) {
    auto Faulty = parseAndAnalyze(M.Source, Diags);
    ASSERT_NE(Faulty, nullptr) << "v" << M.Version << ": " << Diags.render();
    Interpreter FI(*Faulty, tcasExecOptions());
    for (const InputVector &In : Pool) {
      int64_t Want = GI.run("main", In).ReturnValue;
      if (FI.run("main", In).ReturnValue == Want)
        continue;
      BugAssistDriver Driver(*Faulty, "main", tcasUnrollOptions());
      Spec S;
      S.CheckObligations = false;
      S.GoldenReturn = Want;
      MaxSatInstance Inst = Driver.formula().localizationInstance(In, S);
      std::string What = "v" + std::to_string(M.Version);
      expectFullModelChangesNothing(Inst, /*Weighted=*/false, 8,
                                    What + " fumalik");
      expectFullModelChangesNothing(Inst, /*Weighted=*/true, 8,
                                    What + " linear");
      ++Localized;
      break;
    }
  }
  // Two versions are equivalent on the whole pool (Table 1's "no failing
  // test" rows); every other one was localized.
  EXPECT_EQ(Localized, 39u);
}

TEST(ModelOnRequest, CheckedInInstancesSolveTheSameWithAndWithoutTheModel) {
  size_t Files = 0;
  for (const auto &Entry :
       std::filesystem::directory_iterator(BUGASSIST_INSTANCE_DIR)) {
    std::string Ext = Entry.path().extension().string();
    if (!Entry.is_regular_file() || (Ext != ".cnf" && Ext != ".wcnf"))
      continue;
    DimacsParseError Err;
    auto D = readDimacsFile(Entry.path().string(), Err);
    ASSERT_TRUE(D.has_value()) << Err.render();
    MaxSatInstance Inst = toMaxSatInstance(std::move(*D));
    std::string What = Entry.path().filename().string();
    expectFullModelChangesNothing(Inst, /*Weighted=*/false, 4,
                                  What + " fumalik");
    expectFullModelChangesNothing(Inst, /*Weighted=*/true, 4,
                                  What + " linear");
    ++Files;
  }
  EXPECT_GE(Files, 8u);
}
