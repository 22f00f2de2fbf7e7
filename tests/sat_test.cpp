//===- sat_test.cpp - CDCL solver unit & property tests ----------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sat/Solver.h"

#include "cnf/Cnf.h"
#include "support/FaultInject.h"
#include "support/Rng.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <thread>

using namespace bugassist;

namespace {

/// Brute-force SAT check for <= 20 variables; the reference oracle for
/// property tests.
bool bruteForceSat(int NumVars, const std::vector<Clause> &Clauses) {
  for (uint64_t Mask = 0; Mask < (1ull << NumVars); ++Mask) {
    bool AllSat = true;
    for (const Clause &C : Clauses) {
      bool Sat = false;
      for (Lit L : C) {
        bool V = (Mask >> L.var()) & 1;
        if (V != L.negated()) {
          Sat = true;
          break;
        }
      }
      if (!Sat) {
        AllSat = false;
        break;
      }
    }
    if (AllSat)
      return true;
  }
  return false;
}

bool modelSatisfies(const Solver &S, const std::vector<Clause> &Clauses) {
  for (const Clause &C : Clauses) {
    bool Sat = false;
    for (Lit L : C)
      if (S.modelValue(L) == LBool::True) {
        Sat = true;
        break;
      }
    if (!Sat)
      return false;
  }
  return true;
}

std::vector<Clause> randomInstance(Rng &R, int NumVars, int NumClauses,
                                   int ClauseLen) {
  std::vector<Clause> Cs;
  for (int I = 0; I < NumClauses; ++I) {
    Clause C;
    std::set<Var> Used;
    while (static_cast<int>(C.size()) < ClauseLen) {
      Var V = static_cast<Var>(R.below(NumVars));
      if (!Used.insert(V).second)
        continue;
      C.push_back(mkLit(V, R.chance(1, 2)));
    }
    Cs.push_back(std::move(C));
  }
  return Cs;
}

} // namespace

TEST(Solver, EmptyFormulaIsSat) {
  Solver S;
  EXPECT_EQ(S.solve(), LBool::True);
}

TEST(Solver, SingleUnit) {
  Solver S;
  Var X = S.newVar();
  ASSERT_TRUE(S.addClause({mkLit(X)}));
  EXPECT_EQ(S.solve(), LBool::True);
  EXPECT_EQ(S.modelValue(X), LBool::True);
}

TEST(Solver, ContradictoryUnits) {
  Solver S;
  Var X = S.newVar();
  EXPECT_TRUE(S.addClause({mkLit(X)}));
  EXPECT_FALSE(S.addClause({~mkLit(X)}));
  EXPECT_FALSE(S.okay());
  EXPECT_EQ(S.solve(), LBool::False);
}

TEST(Solver, UnitPropagationChain) {
  // x1, x1->x2, x2->x3, ..., x9->x10; all become true.
  Solver S;
  S.ensureVars(10);
  ASSERT_TRUE(S.addClause({mkLit(0)}));
  for (Var V = 0; V < 9; ++V)
    ASSERT_TRUE(S.addClause({~mkLit(V), mkLit(V + 1)}));
  ASSERT_EQ(S.solve(), LBool::True);
  for (Var V = 0; V < 10; ++V)
    EXPECT_EQ(S.modelValue(V), LBool::True) << "var " << V;
}

TEST(Solver, TautologyDropped) {
  Solver S;
  Var X = S.newVar();
  ASSERT_TRUE(S.addClause({mkLit(X), ~mkLit(X)}));
  EXPECT_EQ(S.solve(), LBool::True);
}

TEST(Solver, DuplicateLiteralsMerged) {
  Solver S;
  Var X = S.newVar(), Y = S.newVar();
  ASSERT_TRUE(S.addClause({mkLit(X), mkLit(X), mkLit(Y)}));
  ASSERT_TRUE(S.addClause({~mkLit(Y)}));
  // Duplicate-merged (x \/ y) with ~y forces x; this clause then empties
  // under level-0 simplification and addClause reports UNSAT eagerly.
  EXPECT_FALSE(S.addClause({~mkLit(X), mkLit(Y)}));
  EXPECT_EQ(S.solve(), LBool::False);
}

TEST(Solver, SimpleUnsatTriangle) {
  // (a \/ b) (a \/ ~b) (~a \/ b) (~a \/ ~b) is UNSAT.
  Solver S;
  Var A = S.newVar(), B = S.newVar();
  S.addClause({mkLit(A), mkLit(B)});
  S.addClause({mkLit(A), ~mkLit(B)});
  S.addClause({~mkLit(A), mkLit(B)});
  S.addClause({~mkLit(A), ~mkLit(B)});
  EXPECT_EQ(S.solve(), LBool::False);
}

TEST(Solver, PigeonHole4Into3) {
  // PHP(4,3): 4 pigeons, 3 holes, UNSAT; forces real conflict analysis.
  Solver S;
  const int P = 4, H = 3;
  auto VarOf = [&](int Pi, int Hi) { return Pi * H + Hi; };
  S.ensureVars(P * H);
  for (int Pi = 0; Pi < P; ++Pi) {
    Clause C;
    for (int Hi = 0; Hi < H; ++Hi)
      C.push_back(mkLit(VarOf(Pi, Hi)));
    S.addClause(C);
  }
  for (int Hi = 0; Hi < H; ++Hi)
    for (int P1 = 0; P1 < P; ++P1)
      for (int P2 = P1 + 1; P2 < P; ++P2)
        S.addClause({~mkLit(VarOf(P1, Hi)), ~mkLit(VarOf(P2, Hi))});
  EXPECT_EQ(S.solve(), LBool::False);
  EXPECT_GT(S.stats().Conflicts, 0u);
}

TEST(Solver, PigeonHole5Into5IsSat) {
  Solver S;
  const int P = 5, H = 5;
  auto VarOf = [&](int Pi, int Hi) { return Pi * H + Hi; };
  S.ensureVars(P * H);
  std::vector<Clause> All;
  for (int Pi = 0; Pi < P; ++Pi) {
    Clause C;
    for (int Hi = 0; Hi < H; ++Hi)
      C.push_back(mkLit(VarOf(Pi, Hi)));
    All.push_back(C);
  }
  for (int Hi = 0; Hi < H; ++Hi)
    for (int P1 = 0; P1 < P; ++P1)
      for (int P2 = P1 + 1; P2 < P; ++P2)
        All.push_back({~mkLit(VarOf(P1, Hi)), ~mkLit(VarOf(P2, Hi))});
  for (const Clause &C : All)
    S.addClause(C);
  ASSERT_EQ(S.solve(), LBool::True);
  EXPECT_TRUE(modelSatisfies(S, All));
}

TEST(Solver, AssumptionsSatAndUnsat) {
  // Preprocessing off: b is assumed only in the *second* solve, and the
  // frozen-variable contract (tested in simplify_test) requires such
  // late-bound assumption variables to be frozen up front. This test is
  // about assumption handling, not the contract.
  Solver::Options O;
  O.Preprocess = false;
  Solver S{O};
  Var A = S.newVar(), B = S.newVar();
  S.addClause({~mkLit(A), mkLit(B)}); // a -> b
  EXPECT_EQ(S.solve({mkLit(A)}), LBool::True);
  EXPECT_EQ(S.modelValue(B), LBool::True);
  EXPECT_EQ(S.solve({mkLit(A), ~mkLit(B)}), LBool::False);
  // Solver state must survive for reuse.
  EXPECT_EQ(S.solve({mkLit(A)}), LBool::True);
  EXPECT_EQ(S.solve(), LBool::True);
}

TEST(Solver, ConflictCoreIsSubsetOfAssumptions) {
  Solver S;
  Var A = S.newVar(), B = S.newVar(), C = S.newVar(), D = S.newVar();
  S.addClause({~mkLit(A), ~mkLit(B)}); // a,b incompatible
  (void)D;
  std::vector<Lit> Assumps = {mkLit(A), mkLit(B), mkLit(C), mkLit(D)};
  ASSERT_EQ(S.solve(Assumps), LBool::False);
  const auto &Core = S.conflictCore();
  EXPECT_FALSE(Core.empty());
  for (Lit L : Core)
    EXPECT_TRUE(std::find(Assumps.begin(), Assumps.end(), L) != Assumps.end())
        << "core literal " << L.str() << " not among assumptions";
  // c and d are irrelevant; core must not mention them.
  for (Lit L : Core) {
    EXPECT_NE(L.var(), C);
    EXPECT_NE(L.var(), D);
  }
}

TEST(Solver, CoreFromChainedImplications) {
  // a -> x, x -> y, y -> ~b: assuming a and b is UNSAT; core = {a, b}.
  Solver S;
  Var A = S.newVar(), B = S.newVar(), X = S.newVar(), Y = S.newVar();
  S.addClause({~mkLit(A), mkLit(X)});
  S.addClause({~mkLit(X), mkLit(Y)});
  S.addClause({~mkLit(Y), ~mkLit(B)});
  ASSERT_EQ(S.solve({mkLit(A), mkLit(B)}), LBool::False);
  std::set<Var> CoreVars;
  for (Lit L : S.conflictCore())
    CoreVars.insert(L.var());
  EXPECT_TRUE(CoreVars.count(A));
  EXPECT_TRUE(CoreVars.count(B));
}

TEST(Solver, RedundantAssumptionHandled) {
  Solver S;
  Var A = S.newVar();
  S.addClause({mkLit(A)});
  // Assumption already implied at level 0.
  EXPECT_EQ(S.solve({mkLit(A)}), LBool::True);
  // Assumption contradicting a level-0 unit.
  EXPECT_EQ(S.solve({~mkLit(A)}), LBool::False);
}

TEST(Solver, ConflictBudgetReturnsUndef) {
  // A hard random instance with a budget of 1 conflict usually gives Undef;
  // at minimum it must not crash and must return a defined result when the
  // budget is lifted.
  Rng R(42);
  auto Cs = randomInstance(R, 30, 128, 3);
  Solver S;
  S.ensureVars(30);
  bool Ok = true;
  for (const Clause &C : Cs)
    Ok = Ok && S.addClause(C);
  if (Ok) {
    S.setConflictBudget(1);
    LBool First = S.solve();
    S.setConflictBudget(0);
    LBool Second = S.solve();
    EXPECT_NE(Second, LBool::Undef);
    if (First != LBool::Undef) {
      EXPECT_EQ(First, Second);
    }
  }
}

TEST(Solver, AddFormulaLoadsGroupsAsHard) {
  CnfFormula F;
  Var X = F.newVar();
  GroupId G = F.newGroup(1);
  F.addGroupedClause(G, {mkLit(X)});
  // The second solve assumes x, which the first solve's preprocessing pass
  // may eliminate (the frozen contract is simplify_test's subject, not
  // this test's): keep the pass off so group semantics stay the focus.
  Solver::Options O;
  O.Preprocess = false;
  Solver S{O};
  ASSERT_TRUE(S.addFormula(F));
  // With the selector asserted, x must hold.
  ASSERT_EQ(S.solve({F.selectorLit(G)}), LBool::True);
  EXPECT_EQ(S.modelValue(X), LBool::True);
  // With the selector negated the clause is disabled; ~x is fine.
  ASSERT_EQ(S.solve({~F.selectorLit(G), ~mkLit(X)}), LBool::True);
}

// Property test: solver agrees with brute force on hundreds of random
// instances around the 3-SAT phase transition (clause/var ~ 4.3).
struct RandomSatCase {
  int NumVars;
  int NumClauses;
  uint64_t Seed;
};

class SolverRandomTest : public ::testing::TestWithParam<RandomSatCase> {};

TEST_P(SolverRandomTest, AgreesWithBruteForce) {
  const auto &P = GetParam();
  Rng R(P.Seed);
  for (int Round = 0; Round < 30; ++Round) {
    auto Cs = randomInstance(R, P.NumVars, P.NumClauses, 3);
    Solver S;
    S.ensureVars(P.NumVars);
    bool Ok = true;
    for (const Clause &C : Cs)
      Ok = Ok && S.addClause(C);
    bool Expected = bruteForceSat(P.NumVars, Cs);
    if (!Ok) {
      EXPECT_FALSE(Expected);
      continue;
    }
    LBool Got = S.solve();
    ASSERT_NE(Got, LBool::Undef);
    EXPECT_EQ(Got == LBool::True, Expected)
        << "vars=" << P.NumVars << " clauses=" << P.NumClauses
        << " seed=" << P.Seed << " round=" << Round;
    if (Got == LBool::True) {
      EXPECT_TRUE(modelSatisfies(S, Cs));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PhaseTransitionSweep, SolverRandomTest,
    ::testing::Values(RandomSatCase{6, 20, 1}, RandomSatCase{6, 30, 2},
                      RandomSatCase{8, 34, 3}, RandomSatCase{8, 40, 4},
                      RandomSatCase{10, 42, 5}, RandomSatCase{10, 50, 6},
                      RandomSatCase{12, 51, 7}, RandomSatCase{12, 60, 8},
                      RandomSatCase{14, 60, 9}, RandomSatCase{14, 70, 10},
                      RandomSatCase{16, 68, 11}, RandomSatCase{16, 80, 12}));

// Property: under random assumptions, an UNSAT answer's core re-verifies
// as UNSAT when solved with exactly the core as assumptions.
TEST(Solver, CoreReverifies) {
  Rng R(777);
  for (int Round = 0; Round < 40; ++Round) {
    int NumVars = 10;
    auto Cs = randomInstance(R, NumVars, 30, 3);
    Solver S;
    S.ensureVars(NumVars);
    bool Ok = true;
    for (const Clause &C : Cs)
      Ok = Ok && S.addClause(C);
    if (!Ok)
      continue;
    std::vector<Lit> Assumps;
    for (Var V = 0; V < 5; ++V)
      Assumps.push_back(mkLit(V, R.chance(1, 2)));
    if (S.solve(Assumps) != LBool::False)
      continue;
    std::vector<Lit> Core = S.conflictCore();
    Solver S2;
    S2.ensureVars(NumVars);
    bool Ok2 = true;
    for (const Clause &C : Cs)
      Ok2 = Ok2 && S2.addClause(C);
    if (!Ok2)
      continue;
    EXPECT_EQ(S2.solve(Core), LBool::False)
        << "core failed to reverify (round " << Round << ")";
  }
}

TEST(Solver, StatsAreTracked) {
  Solver S;
  Var A = S.newVar(), B = S.newVar();
  S.addClause({mkLit(A), mkLit(B)});
  S.solve();
  EXPECT_GE(S.stats().Decisions, 1u);
}

TEST(Solver, PolarityHintRespectedWhenFree) {
  Solver S;
  Var A = S.newVar();
  Var B = S.newVar();
  S.addClause({mkLit(A), mkLit(B)});
  S.setPolarity(A, true);
  S.setPolarity(B, true);
  ASSERT_EQ(S.solve(), LBool::True);
  // Both saved phases point at true; at least the first decision follows.
  EXPECT_TRUE(S.modelValue(A) == LBool::True ||
              S.modelValue(B) == LBool::True);
}

TEST(Solver, IncrementalStatePersistsAcrossSolves) {
  // Pigeonhole (7 pigeons, 6 holes) with each pigeon's placement clause
  // guarded by an assumption literal: UNSAT under all guards, and hard
  // enough that the first refutation must learn clauses. The SAME solver
  // is solved repeatedly; learned clauses and stats must persist, making
  // later identical calls strictly cheaper -- the property the incremental
  // MaxSAT layer is built on.
  const int Holes = 6, Pigeons = Holes + 1;
  Solver S;
  S.ensureVars(Pigeons * Holes);
  auto VarOf = [](int P, int H) { return P * Holes + H; };
  std::vector<Lit> Assumps;
  for (int P = 0; P < Pigeons; ++P) {
    Clause C;
    for (int H = 0; H < Holes; ++H)
      C.push_back(mkLit(VarOf(P, H)));
    Var G = S.newVar();
    C.push_back(mkLit(G, /*Negated=*/true));
    ASSERT_TRUE(S.addClause(C));
    Assumps.push_back(mkLit(G));
  }
  for (int H = 0; H < Holes; ++H)
    for (int P1 = 0; P1 < Pigeons; ++P1)
      for (int P2 = P1 + 1; P2 < Pigeons; ++P2)
        ASSERT_TRUE(S.addClause({~mkLit(VarOf(P1, H)), ~mkLit(VarOf(P2, H))}));

  ASSERT_EQ(S.solve(Assumps), LBool::False);
  const uint64_t Conflicts1 = S.stats().Conflicts;
  const uint64_t Learned1 = S.stats().LearnedClauses;
  EXPECT_GT(Conflicts1, 0u);
  EXPECT_GT(Learned1, 0u) << "first refutation should learn clauses";

  ASSERT_EQ(S.solve(Assumps), LBool::False);
  const uint64_t Conflicts2 = S.stats().Conflicts - Conflicts1;
  // Stats are cumulative across calls ...
  EXPECT_GE(S.stats().Conflicts, Conflicts1);
  EXPECT_GE(S.stats().LearnedClauses, Learned1);
  // ... and the persisted learned clauses make the re-refutation cheaper.
  EXPECT_LT(Conflicts2, Conflicts1)
      << "second solve on the same instance should reuse learned clauses";

  // Dropping one guard makes the instance satisfiable: the persistent
  // solver must still answer positively after repeated UNSAT calls.
  Assumps.pop_back();
  EXPECT_EQ(S.solve(Assumps), LBool::True);
}

// --- the gated root scan -----------------------------------------------------

// solve() re-scans the clause database at the root only when a root fact
// was added or a clause freed since the last scan. A retired selector
// (releaseVar) and a unit clause are both new root facts: the clause the
// first satisfies must be removed, and the literal the second falsifies
// trimmed, at the very next solve.
TEST(SolverRootScan, ReleaseVarAndUnitsBetweenSolvesStillTriggerTheScan) {
  Solver::Options O;
  O.Preprocess = false; // isolate the root scan from inprocessing
  Solver S{O};
  const Var A = 0, B = 1, C = 2, D = 3, G = 4;
  S.ensureVars(5);
  ASSERT_TRUE(S.addClause({mkLit(A), mkLit(B), mkLit(C)}));
  ASSERT_TRUE(S.addClause({mkLit(B), mkLit(D)}));
  ASSERT_TRUE(S.addClause({mkLit(C), mkLit(D), mkLit(G, true)})); // guarded
  auto Sorted = [&] {
    std::vector<Clause> Cs = S.problemClauses();
    for (Clause &Cl : Cs)
      std::sort(Cl.begin(), Cl.end());
    std::sort(Cs.begin(), Cs.end());
    return Cs;
  };
  ASSERT_EQ(S.solve({mkLit(G)}), LBool::True);
  ASSERT_EQ(S.solve(), LBool::True); // nothing new: the database stands
  EXPECT_EQ(S.problemClauses().size(), 3u);
  uint64_t Removed = S.stats().ClausesRemoved;

  ASSERT_TRUE(S.releaseVar(mkLit(G, true))); // the guarded clause is now true
  ASSERT_EQ(S.solve(), LBool::True);
  EXPECT_EQ(S.stats().ClausesRemoved, Removed + 1);
  EXPECT_EQ(Sorted(), (std::vector<Clause>{{mkLit(A), mkLit(B), mkLit(C)},
                                           {mkLit(B), mkLit(D)}}));

  ASSERT_TRUE(S.addClause({mkLit(A, true)})); // falsifies a in (a b c)
  ASSERT_EQ(S.solve(), LBool::True);
  EXPECT_EQ(Sorted(), (std::vector<Clause>{{mkLit(B), mkLit(C)},
                                           {mkLit(B), mkLit(D)}}));
  EXPECT_EQ(S.modelValue(A), LBool::False);
}

// --- resource budgets --------------------------------------------------------

namespace {

/// Loads PHP(Holes + 1, Holes) -- hard enough that refutation needs real
/// search for Holes >= 6, far beyond any test deadline for Holes >= 9.
void loadPigeonhole(Solver &S, int Holes) {
  int Pigeons = Holes + 1;
  auto VarOf = [Holes](int P, int H) { return P * Holes + H; };
  S.ensureVars(Pigeons * Holes);
  for (int P = 0; P < Pigeons; ++P) {
    Clause C;
    for (int H = 0; H < Holes; ++H)
      C.push_back(mkLit(VarOf(P, H)));
    ASSERT_TRUE(S.addClause(C));
  }
  for (int H = 0; H < Holes; ++H)
    for (int P1 = 0; P1 < Pigeons; ++P1)
      for (int P2 = P1 + 1; P2 < Pigeons; ++P2)
        ASSERT_TRUE(S.addClause({~mkLit(VarOf(P1, H)), ~mkLit(VarOf(P2, H))}));
}

} // namespace

TEST(SolverBudget, ConflictCapReturnsUndefAndIsSticky) {
  Solver S;
  loadPigeonhole(S, 7);
  Solver::Budget B;
  B.MaxConflicts = 10;
  S.setBudget(B);
  EXPECT_EQ(S.solve(), LBool::Undef);
  EXPECT_TRUE(S.budgetExhausted());
  // Exhaustion is sticky: further solves return Undef immediately instead
  // of burning another 10 conflicts each.
  uint64_t ConflictsAfterFirst = S.stats().Conflicts;
  EXPECT_EQ(S.solve(), LBool::Undef);
  EXPECT_EQ(S.stats().Conflicts, ConflictsAfterFirst);
  // clearBudget re-arms the solver; the refutation then completes.
  S.clearBudget();
  EXPECT_FALSE(S.budgetExhausted());
  EXPECT_EQ(S.solve(), LBool::False);
}

TEST(SolverBudget, ReinstallingABudgetResetsTheBaseline) {
  Solver S;
  loadPigeonhole(S, 7);
  Solver::Budget B;
  B.MaxConflicts = 10;
  S.setBudget(B);
  EXPECT_EQ(S.solve(), LBool::Undef);
  // A fresh setBudget counts conflicts from now, not from construction:
  // the accumulated spend must not instantly re-exhaust it.
  Solver::Budget Big;
  Big.MaxConflicts = 1000000;
  S.setBudget(Big);
  EXPECT_FALSE(S.budgetExhausted());
  EXPECT_EQ(S.solve(), LBool::False);
}

TEST(SolverBudget, DeadlineStopsALongRefutationPromptly) {
  // PHP(10, 9) would run for a very long time; a 50 ms deadline must turn
  // that into a prompt Undef.
  Solver S;
  loadPigeonhole(S, 9);
  Solver::Budget B;
  B.setDeadlineIn(0.05);
  S.setBudget(B);
  Timer T;
  EXPECT_EQ(S.solve(), LBool::Undef);
  EXPECT_TRUE(S.budgetExhausted());
  EXPECT_LT(T.seconds(), 5.0) << "deadline was not honored promptly";
}

TEST(SolverBudget, PropagationCapReturnsUndef) {
  Solver S;
  loadPigeonhole(S, 7);
  Solver::Budget B;
  B.MaxPropagations = 100;
  S.setBudget(B);
  EXPECT_EQ(S.solve(), LBool::Undef);
  EXPECT_TRUE(S.budgetExhausted());
}

TEST(SolverBudget, ArenaCapDegradesToUnknownInsteadOfThrowing) {
  // A cap far below what the refutation's learnt clauses need: the solver
  // must hand back Undef (never throw, never wedge) once the arena would
  // outgrow it. PHP(7)'s problem clauses alone exceed 4 KiB, so the very
  // first learnt allocation trips the cap.
  Solver S;
  loadPigeonhole(S, 7);
  Solver::Budget B;
  B.MaxArenaBytes = 4096;
  S.setBudget(B);
  EXPECT_EQ(S.solve(), LBool::Undef);
  EXPECT_TRUE(S.budgetExhausted());
}

TEST(SolverBudget, UnlimitedBudgetIsANoOp) {
  Solver S;
  loadPigeonhole(S, 5);
  S.setBudget(Solver::Budget()); // all knobs zero: unlimited
  EXPECT_EQ(S.solve(), LBool::False);
  EXPECT_FALSE(S.budgetExhausted());
}

// --- interrupt edge cases ----------------------------------------------------

TEST(SolverInterrupt, InterruptBeforeSolveReturnsUndef) {
  Solver S;
  S.ensureVars(2);
  ASSERT_TRUE(S.addClause({mkLit(0), mkLit(1)}));
  S.interrupt();
  EXPECT_EQ(S.solve(), LBool::Undef);
  EXPECT_TRUE(S.interrupted());
  // The flag is sticky until cleared; afterwards the solver works again.
  EXPECT_EQ(S.solve(), LBool::Undef);
  S.clearInterrupt();
  EXPECT_EQ(S.solve(), LBool::True);
}

TEST(SolverInterrupt, InterruptDuringLongImplicationChainPropagation) {
  // A 30k-step binary implication chain hangs off a pigeonhole core. The
  // chain is propagated in full inside single search iterations (interrupt
  // polls sit between iterations, not inside propagate()), so the
  // interrupt must land cleanly with the trail mid-chain-consistent.
  const int ChainLen = 30000;
  const int Holes = 9;
  Solver S;
  loadPigeonhole(S, Holes);
  int Base = (Holes + 1) * Holes;
  S.ensureVars(Base + ChainLen);
  ASSERT_TRUE(S.addClause({mkLit(Base)}));
  for (int I = 0; I < ChainLen - 1; ++I)
    ASSERT_TRUE(S.addClause({~mkLit(Base + I), mkLit(Base + I + 1)}));

  LBool Result = LBool::True;
  std::thread Runner([&] { Result = S.solve(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  S.interrupt();
  Runner.join();
  EXPECT_EQ(Result, LBool::Undef);
  // The unit head forces the whole chain at level 0.
  EXPECT_GE(S.stats().Propagations, static_cast<uint64_t>(ChainLen));
}

TEST(SolverInterrupt, SolverReuseAfterInterruptKeepsSaneStats) {
  // interrupt -> solve -> clear -> solve -> solve on ONE solver: the
  // post-interrupt solve must decide correctly and cumulative stats must
  // stay monotone across the whole sequence.
  Solver S;
  loadPigeonhole(S, 6);
  S.interrupt();
  EXPECT_EQ(S.solve(), LBool::Undef);
  SolverStats After1 = S.stats();

  S.clearInterrupt();
  EXPECT_FALSE(S.interrupted());
  EXPECT_EQ(S.solve(), LBool::False);
  SolverStats After2 = S.stats();
  EXPECT_GE(After2.Conflicts, After1.Conflicts);
  EXPECT_GE(After2.Propagations, After1.Propagations);
  EXPECT_GT(After2.Decisions, After1.Decisions);

  // Root-level UNSAT is cached: a third solve answers instantly and the
  // counters never move backwards.
  EXPECT_EQ(S.solve(), LBool::False);
  EXPECT_GE(S.stats().Conflicts, After2.Conflicts);
  EXPECT_GE(S.stats().Propagations, After2.Propagations);
}

// --- fault injection (test-only hook) ----------------------------------------

TEST(SolverFaultInject, SpuriousInterruptAtNthAllocationStopsSolve) {
  Solver S;
  loadPigeonhole(S, 7);
  // The refutation must learn clauses, so allocation events are
  // guaranteed; the injected fault converts the 3rd one into an interrupt.
  LBool R;
  {
    faultinject::ScopedFault Fault(faultinject::Event::Allocation,
                                   faultinject::Fault::Interrupt, 3);
    R = S.solve();
  }
  EXPECT_EQ(R, LBool::Undef);
  EXPECT_TRUE(S.interrupted());
  S.clearInterrupt();
  EXPECT_EQ(S.solve(), LBool::False);
}

TEST(SolverFaultInject, InjectedBadAllocPropagatesOutOfSolve) {
  // Single solver, no portfolio: the exception must escape solve() (the
  // thread-boundary isolation lives in the portfolio, not here).
  Solver S;
  loadPigeonhole(S, 7);
  faultinject::ScopedFault Fault(faultinject::Event::Allocation,
                                 faultinject::Fault::BadAlloc, 1);
  EXPECT_THROW(S.solve(), std::bad_alloc);
}
