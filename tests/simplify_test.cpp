//===- simplify_test.cpp - inprocessing unit & differential tests ------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// Covers the SatELite-style simplifier (sat/Simplifier.h): hand-checked
// bounded variable elimination and backward subsumption, model
// reconstruction round-trips (every model of the reduced formula extends
// to a model of the original), the frozen-variable contract (eliminating
// a frozen variable is a hard error, talking about an eliminated variable
// is a hard error, releaseVar unfreezes), a brute-force differential on
// random instances, and CLI differentials: every checked-in instance
// answers identically with and without --no-preprocess, and the TCAS
// localization report is byte-identical at --threads 1/2/4 both with and
// without preprocessing.
//
//===----------------------------------------------------------------------===//

#include "sat/Solver.h"

#include "cnf/Cnf.h"
#include "support/Rng.h"

#include "CliTestUtils.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

using namespace bugassist;
using namespace bugassist::clitest;

namespace {

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

/// A satisfiable instance with long watch lists: every clause holds one
/// literal of a few hub variables, so elimination and subsumption free
/// many clauses watched from the same handful of lists. The first
/// NumFrozen variables (the hubs among them) are frozen so clauses over
/// them may be added after preprocessing.
struct HubInstance {
  int NumVars;
  int NumFrozen;
  std::vector<Clause> Clauses;
};

HubInstance hubInstance(Rng &R) {
  HubInstance I;
  I.NumVars = 16 + static_cast<int>(R.below(4));
  I.NumFrozen = 6;
  const int Hubs = 3;
  std::vector<bool> Hidden(I.NumVars);
  for (int V = 0; V < I.NumVars; ++V)
    Hidden[V] = R.chance(1, 2);
  while (I.Clauses.size() < 5u * static_cast<size_t>(I.NumVars)) {
    Clause C = {mkLit(static_cast<Var>(R.below(Hubs)), R.chance(1, 2))};
    size_t Len = R.chance(1, 4) ? 2 : 3;
    while (C.size() < Len) {
      Var V = static_cast<Var>(Hubs + R.below(I.NumVars - Hubs));
      if (std::none_of(C.begin(), C.end(),
                       [V](Lit L) { return L.var() == V; }))
        C.push_back(mkLit(V, R.chance(1, 2)));
    }
    // Plant a model so the instance stays satisfiable at this density.
    if (std::any_of(C.begin(), C.end(), [&](Lit L) {
          return Hidden[L.var()] != L.negated();
        }))
      I.Clauses.push_back(std::move(C));
  }
  return I;
}

/// Loads \p I into \p S with its frozen prefix.
void loadHubInstance(Solver &S, const HubInstance &I) {
  S.ensureVars(I.NumVars);
  for (Var V = 0; V < I.NumFrozen; ++V)
    S.setFrozen(V, true);
  for (const Clause &C : I.Clauses)
    ASSERT_TRUE(S.addClause(C));
}

/// A clause over the frozen prefix that the current model of \p S
/// falsifies, so the next solve must move away from it.
Clause blockingClause(Rng &R, const Solver &S, int NumFrozen) {
  Clause C;
  while (C.size() < 3) {
    Var V = static_cast<Var>(R.below(NumFrozen));
    if (std::none_of(C.begin(), C.end(), [V](Lit L) { return L.var() == V; }))
      C.push_back(mkLit(V, S.modelValue(V) == LBool::True));
  }
  return C;
}

} // namespace

// --- hand-checked transformations --------------------------------------------

// x has one positive occurrence (a \/ x) and one negative (~x \/ b): the
// single resolvent is (a \/ b), the clause count does not grow, and x is
// gone. Any model of the residue must extend to one of the original.
TEST(Simplify, HandCheckedEliminationProducesTheResolvent) {
  Solver S;
  Var A = S.newVar(), B = S.newVar(), X = S.newVar();
  ASSERT_TRUE(S.addClause({mkLit(A), mkLit(X)}));
  ASSERT_TRUE(S.addClause({~mkLit(X), mkLit(B)}));

  ASSERT_TRUE(S.eliminateVar(X));
  EXPECT_TRUE(S.isEliminated(X));
  EXPECT_EQ(S.stats().VarsEliminated, 1u);
  EXPECT_GT(S.stats().ReconstructBytes, 0u);

  // Push the residue off the trivial model: force ~a, so (a \/ b) demands
  // b, and the reconstruction must pick x = true to satisfy (a \/ x).
  ASSERT_TRUE(S.addClause({~mkLit(A)}));
  ASSERT_EQ(S.solve(), LBool::True);
  EXPECT_EQ(S.modelValue(B), LBool::True);
  EXPECT_TRUE(modelSatisfies(
      S, {{mkLit(A), mkLit(X)}, {~mkLit(X), mkLit(B)}, {~mkLit(A)}}))
      << "extendModel must restore the eliminated variable";
  EXPECT_EQ(S.modelValue(X), LBool::True);
}

// A pure-side variable (only positive occurrences) eliminates with zero
// resolvents; reconstruction alone must satisfy its clauses.
TEST(Simplify, PureLiteralEliminatesWithNoResolvents) {
  Solver S;
  Var A = S.newVar(), B = S.newVar(), X = S.newVar();
  ASSERT_TRUE(S.addClause({mkLit(X), mkLit(A)}));
  ASSERT_TRUE(S.addClause({mkLit(X), mkLit(B)}));
  ASSERT_TRUE(S.eliminateVar(X));
  ASSERT_TRUE(S.isEliminated(X));
  ASSERT_TRUE(S.addClause({~mkLit(A)}));
  ASSERT_TRUE(S.addClause({~mkLit(B)}));
  ASSERT_EQ(S.solve(), LBool::True);
  EXPECT_EQ(S.modelValue(X), LBool::True)
      << "only x = true satisfies the stored clauses under ~a, ~b";
}

TEST(Simplify, BackwardSubsumptionRemovesTheSuperset) {
  Solver::Options O;
  O.PreprocessMinClauses = 0; // tiny hand-built formula
  Solver S{O};
  Var A = S.newVar(), B = S.newVar(), C = S.newVar();
  ASSERT_TRUE(S.addClause({mkLit(A), mkLit(B)}));
  ASSERT_TRUE(S.addClause({mkLit(A), mkLit(B), mkLit(C)})); // subsumed
  ASSERT_TRUE(S.preprocess());
  EXPECT_GE(S.stats().ClausesSubsumed, 1u);
  EXPECT_EQ(S.solve(), LBool::True);
}

TEST(Simplify, SelfSubsumingResolutionStrengthens) {
  Solver::Options O;
  O.PreprocessMinClauses = 0; // tiny hand-built formula
  Solver S{O};
  Var A = S.newVar(), B = S.newVar(), C = S.newVar(), D = S.newVar();
  // (a \/ b) resolved with (~a \/ b \/ c \/ d) on a strengthens the long
  // clause to (b \/ c \/ d). The extra literal d keeps the pair from
  // colliding with the variable-elimination sweep's clause-count bound in
  // an order-dependent way; the strengthening itself is what we assert.
  ASSERT_TRUE(S.addClause({mkLit(A), mkLit(B)}));
  ASSERT_TRUE(S.addClause({~mkLit(A), mkLit(B), mkLit(C), mkLit(D)}));
  ASSERT_TRUE(S.preprocess());
  EXPECT_GE(S.stats().LitsSelfSubsumed, 1u);
  EXPECT_EQ(S.solve(), LBool::True);
}

// --- model reconstruction ----------------------------------------------------

// Chains y0 -> y1 -> ... -> yN with the interior unconstrained from
// outside: preprocessing eliminates interior variables, and the extended
// model must still satisfy every original clause.
TEST(Simplify, ReconstructionRoundTripsOnAChain) {
  const int N = 50;
  Solver S;
  S.ensureVars(N + 1);
  std::vector<Clause> Original;
  Original.push_back({mkLit(0)});
  for (Var V = 0; V < N; ++V)
    Original.push_back({~mkLit(V), mkLit(V + 1)});
  for (const Clause &C : Original)
    ASSERT_TRUE(S.addClause(C));
  ASSERT_TRUE(S.preprocess());
  ASSERT_EQ(S.solve(), LBool::True);
  EXPECT_TRUE(modelSatisfies(S, Original));
}

TEST(Simplify, RandomDifferentialAgainstBruteForce) {
  // 80 random instances around the phase transition; preprocessing-on
  // answers must match brute force, and SAT models (after extendModel)
  // must satisfy the ORIGINAL clauses.
  for (uint64_t Seed = 1; Seed <= 80; ++Seed) {
    Rng R(Seed);
    int NumVars = 8 + static_cast<int>(R.below(6));
    auto Cs = randomInstance(R, NumVars, NumVars * 4, 3);
    Solver S;
    S.ensureVars(NumVars);
    bool Ok = true;
    for (const Clause &C : Cs)
      Ok = Ok && S.addClause(C);
    LBool Res = Ok ? S.solve() : LBool::False;
    bool Expected = bruteForceSat(NumVars, Cs);
    ASSERT_EQ(Res == LBool::True, Expected) << "seed " << Seed;
    if (Res == LBool::True) {
      ASSERT_TRUE(modelSatisfies(S, Cs)) << "seed " << Seed;
    }
  }
}

// Long watch lists under lazy detachment: preprocessing frees many
// clauses watched from the hub lists, then clauses are added and solved in
// turn. Every answer must match brute force, and every model must satisfy
// the original clauses plus everything added so far.
TEST(Simplify, LongWatchListsSurviveInterleavedSolving) {
  for (uint64_t Seed = 1; Seed <= 30; ++Seed) {
    Rng R(Seed);
    HubInstance I = hubInstance(R);
    Solver S;
    loadHubInstance(S, I);
    ASSERT_TRUE(S.preprocess()) << "seed " << Seed;
    std::vector<Clause> All = I.Clauses;
    for (int Round = 0; Round < 12; ++Round) {
      LBool Res = S.solve();
      ASSERT_EQ(Res == LBool::True, bruteForceSat(I.NumVars, All))
          << "seed " << Seed << " round " << Round;
      if (Res != LBool::True)
        break;
      ASSERT_TRUE(modelSatisfies(S, All))
          << "seed " << Seed << " round " << Round;
      All.push_back(blockingClause(R, S, I.NumFrozen));
      if (!S.addClause(All.back())) {
        ASSERT_FALSE(bruteForceSat(I.NumVars, All)) << "seed " << Seed;
        break;
      }
    }
  }
}

// A copy taken right after preprocess() (the serve FormulaCache clone
// path) continues exactly where the original stood: under the same
// clause additions both give the same answers and the same models.
TEST(Simplify, CloneAfterPreprocessAnswersLikeTheOriginal) {
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    Rng R(Seed);
    HubInstance I = hubInstance(R);
    Solver S;
    loadHubInstance(S, I);
    ASSERT_TRUE(S.preprocess());
    Solver Copy = S;
    for (int Round = 0; Round < 8; ++Round) {
      LBool Res = S.solve();
      ASSERT_EQ(Copy.solve(), Res) << "seed " << Seed << " round " << Round;
      if (Res != LBool::True)
        break;
      for (Var V = 0; V < I.NumVars; ++V)
        ASSERT_EQ(Copy.modelValue(V), S.modelValue(V))
            << "seed " << Seed << " round " << Round << " var " << V;
      Clause Block = blockingClause(R, S, I.NumFrozen);
      if (S.addClause(Block) != Copy.addClause(Block))
        FAIL() << "seed " << Seed << ": addClause disagrees";
    }
  }
}

// Solver copies (the portfolio / serve clone path) must carry the
// reconstruction stack: a clone of a preprocessed solver extends models
// exactly like the original.
TEST(Simplify, CloneInheritsReconstructionStack) {
  Solver S;
  Var A = S.newVar(), B = S.newVar(), X = S.newVar();
  ASSERT_TRUE(S.addClause({mkLit(A), mkLit(X)}));
  ASSERT_TRUE(S.addClause({~mkLit(X), mkLit(B)}));
  ASSERT_TRUE(S.eliminateVar(X));

  Solver Copy = S; // member-wise deep copy
  ASSERT_TRUE(Copy.addClause({~mkLit(A)}));
  ASSERT_EQ(Copy.solve(), LBool::True);
  EXPECT_TRUE(Copy.isEliminated(X));
  EXPECT_TRUE(modelSatisfies(
      Copy, {{mkLit(A), mkLit(X)}, {~mkLit(X), mkLit(B)}, {~mkLit(A)}}));
}

// --- lazy model extension ----------------------------------------------------

namespace {

/// A satisfiable CNF over \p NumVars variables: random 2- and 3-literal
/// clauses, each kept only if a hidden assignment satisfies it.
std::vector<Clause> plantedInstance(Rng &R, int NumVars, int NumClauses) {
  std::vector<bool> Hidden(NumVars);
  for (int V = 0; V < NumVars; ++V)
    Hidden[V] = R.chance(1, 2);
  std::vector<Clause> Cs;
  while (static_cast<int>(Cs.size()) < NumClauses) {
    Clause C = randomInstance(R, NumVars, 1, R.chance(1, 3) ? 2 : 3).front();
    if (std::any_of(C.begin(), C.end(), [&](Lit L) {
          return Hidden[L.var()] != L.negated();
        }))
      Cs.push_back(std::move(C));
  }
  return Cs;
}

std::vector<LBool> readModel(const Solver &S, int NumVars) {
  std::vector<LBool> M;
  for (Var V = 0; V < NumVars; ++V)
    M.push_back(S.modelValue(V));
  return M;
}

} // namespace

// Eliminated variables are reconstructed on the first model read, from
// the reconstruction-stack prefix of the True result. A read deferred past
// later clause additions and a further inprocessing pass (which grows the
// stack) must return exactly the model an immediate read returns, and
// that model must satisfy every original clause.
TEST(SimplifyLazyModel, DeferredReadEqualsImmediateRead) {
  int WithEliminations = 0;
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    Rng R(Seed);
    const int NumVars = 12 + static_cast<int>(R.below(9)); // <= 20
    const int NumFrozen = 4;
    std::vector<Clause> Cs = plantedInstance(R, NumVars, 3 * NumVars);
    Solver S;
    S.ensureVars(NumVars);
    for (Var V = 0; V < NumFrozen; ++V)
      S.setFrozen(V, true);
    for (const Clause &C : Cs)
      ASSERT_TRUE(S.addClause(C)) << "seed " << Seed;
    ASSERT_EQ(S.solve(), LBool::True) << "seed " << Seed;
    WithEliminations += S.stats().VarsEliminated > 0;

    Solver Deferred = S; // copies the pending, unreconstructed model
    std::vector<LBool> Immediate = readModel(S, NumVars);
    ASSERT_TRUE(modelSatisfies(S, Cs)) << "seed " << Seed;

    // Move the solver on before reading: a clause over the frozen prefix
    // that the model falsifies, then another inprocessing pass.
    Clause Block;
    for (Var V = 0; V < NumFrozen; ++V)
      Block.push_back(mkLit(V, Immediate[V] == LBool::True));
    Deferred.addClause(Block);
    Deferred.preprocess();
    EXPECT_EQ(readModel(Deferred, NumVars), Immediate) << "seed " << Seed;

    // The next solve answers like brute force and its model, read after
    // the pass, satisfies everything so far.
    std::vector<Clause> All = Cs;
    All.push_back(Block);
    LBool Next = Deferred.solve();
    ASSERT_EQ(Next == LBool::True, bruteForceSat(NumVars, All))
        << "seed " << Seed;
    if (Next == LBool::True) {
      EXPECT_TRUE(modelSatisfies(Deferred, All)) << "seed " << Seed;
    }
  }
  EXPECT_GE(WithEliminations, 30) << "too few instances exercise elimination";
}

// --- resolvents against a naive reference -------------------------------------

namespace {

/// The resolvent of \p P (holding V) and \p N (holding ~V), computed
/// naively: concatenate, drop the pivots and root-false literals, sort,
/// dedupe. Empty optional when it is tautological or root-satisfied.
std::optional<Clause> naiveResolvent(const Clause &P, const Clause &N, Var V,
                                     const std::vector<LBool> &Root = {}) {
  auto RootValue = [&](Lit L) {
    if (L.var() >= static_cast<Var>(Root.size()))
      return LBool::Undef;
    LBool B = Root[L.var()];
    return L.negated() ? lboolNeg(B) : B;
  };
  Clause Out;
  for (const Clause *C : {&P, &N})
    for (Lit L : *C) {
      if (L.var() == V || RootValue(L) == LBool::False)
        continue;
      if (RootValue(L) == LBool::True)
        return std::nullopt;
      Out.push_back(L);
    }
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  for (size_t I = 1; I < Out.size(); ++I)
    if (Out[I] == ~Out[I - 1])
      return std::nullopt;
  return Out;
}

/// \p Clauses as a sorted list of sorted clauses (a multiset key).
std::vector<Clause> normalized(std::vector<Clause> Clauses) {
  for (Clause &C : Clauses)
    std::sort(C.begin(), C.end());
  std::sort(Clauses.begin(), Clauses.end());
  return Clauses;
}

} // namespace

TEST(SimplifyResolvent, EdgeCasesMatchTheNaiveResolvent) {
  const Var X = 0, A = 1, B = 2, C = 3, D = 4, F = 5;
  auto P = [](Var V) { return mkLit(V); };
  auto N = [](Var V) { return mkLit(V, true); };
  std::vector<LBool> RootFalseF(6, LBool::Undef), RootTrueF(6, LBool::Undef);
  RootFalseF[F] = LBool::False;
  RootTrueF[F] = LBool::True;
  struct Case {
    const char *Name;
    std::vector<Clause> Clauses; ///< every clause mentions X
    Lit Unit;                    ///< root fact added before elimination
    std::vector<LBool> Root;
  };
  std::vector<Case> Cases = {
      {"duplicate across the sides",
       {{P(X), P(A), P(B)}, {N(X), P(A), P(C)}}, NullLit, {}},
      {"tautology seen only on the second side",
       {{P(X), P(A), P(B)}, {N(X), N(A), P(C)}, {N(X), P(D)}}, NullLit, {}},
      {"root-false literal", {{P(X), P(A), P(B)}, {N(X), P(C), P(F)}},
       N(F), RootFalseF},
      {"root-true literal",
       {{P(X), P(A), P(B)}, {N(X), P(C), P(F)}, {N(X), P(D)}}, P(F),
       RootTrueF},
  };
  for (const Case &K : Cases) {
    Solver S;
    S.ensureVars(6);
    for (const Clause &Cl : K.Clauses)
      ASSERT_TRUE(S.addClause(Cl)) << K.Name;
    if (K.Unit != NullLit) {
      ASSERT_TRUE(S.addClause({K.Unit})) << K.Name;
    }
    ASSERT_TRUE(S.eliminateVar(X)) << K.Name;
    std::vector<Clause> Expected;
    for (const Clause &Pos : K.Clauses)
      for (const Clause &Neg : K.Clauses)
        if (std::count(Pos.begin(), Pos.end(), P(X)) &&
            std::count(Neg.begin(), Neg.end(), N(X)))
          if (auto R = naiveResolvent(Pos, Neg, X, K.Root))
            Expected.push_back(*R);
    EXPECT_EQ(normalized(S.problemClauses()), normalized(Expected)) << K.Name;
  }
}

// A literal falsified in the middle of a pass (by a unit that
// self-subsumption derived) must be dropped from the resolvents built
// later in the same pass.
TEST(SimplifyResolvent, InPassRootFalseLiteralIsDropped) {
  Solver::Options O;
  O.PreprocessMinClauses = 0; // tiny hand-built formula
  Solver S{O};
  const Var X = 0, A = 1, B = 2, C = 3, D = 4;
  S.ensureVars(5);
  for (Var V : {A, B, C, D})
    S.setFrozen(V, true); // only X may go
  Clause Pos = {mkLit(X), mkLit(A, true), mkLit(C)};
  Clause Neg = {mkLit(X, true), mkLit(D)};
  // (a \/ b) strengthens (a \/ ~b) to the unit a, falsifying ~a in Pos.
  for (const Clause &Cl : {Clause{mkLit(A), mkLit(B)},
                           Clause{mkLit(A), mkLit(B, true)}, Pos, Neg})
    ASSERT_TRUE(S.addClause(Cl));
  ASSERT_TRUE(S.preprocess());
  ASSERT_TRUE(S.isEliminated(X));
  std::vector<LBool> Root(5, LBool::Undef);
  Root[A] = LBool::True;
  std::optional<Clause> R = naiveResolvent(Pos, Neg, X, Root);
  ASSERT_TRUE(R.has_value());
  std::vector<Clause> Live = normalized(S.problemClauses());
  EXPECT_NE(std::find(Live.begin(), Live.end(), *R), Live.end())
      << "expected the resolvent (c \\/ d)";
  for (const Clause &Cl : Live)
    EXPECT_EQ(std::count(Cl.begin(), Cl.end(), mkLit(A, true)), 0)
        << "a clause kept the root-false literal ~a";
}

// Forced eliminations on random formulas: the clause database afterwards
// is exactly the untouched clauses plus the naive resolvents.
TEST(SimplifyResolvent, RandomEliminationsMatchTheNaiveResolvents) {
  int Checked = 0;
  for (uint64_t Seed = 1; Seed <= 80; ++Seed) {
    Rng R(Seed);
    const int NumVars = 7;
    Solver S;
    S.ensureVars(NumVars);
    bool Ok = true;
    for (int I = 0; I < 14 && Ok; ++I)
      Ok = S.addClause(
          randomInstance(R, NumVars, 1, 2 + static_cast<int>(R.below(3)))
              .front());
    if (!Ok)
      continue;
    Var V = static_cast<Var>(R.below(NumVars));
    std::vector<Clause> Before = S.problemClauses(), Expected, Pos, Neg;
    for (const Clause &Cl : Before) {
      if (std::count(Cl.begin(), Cl.end(), mkLit(V)))
        Pos.push_back(Cl);
      else if (std::count(Cl.begin(), Cl.end(), mkLit(V, true)))
        Neg.push_back(Cl);
      else
        Expected.push_back(Cl);
    }
    bool HasUnit = false;
    for (const Clause &PC : Pos)
      for (const Clause &NC : Neg)
        if (auto Res = naiveResolvent(PC, NC, V)) {
          HasUnit |= Res->size() <= 1; // would propagate, not be stored
          Expected.push_back(*Res);
        }
    if (HasUnit)
      continue;
    ASSERT_TRUE(S.eliminateVar(V)) << "seed " << Seed;
    EXPECT_EQ(normalized(S.problemClauses()), normalized(Expected))
        << "seed " << Seed;
    ++Checked;
  }
  EXPECT_GE(Checked, 40);
}

// --- the frozen-variable contract --------------------------------------------

TEST(SimplifyFrozen, EliminatingAFrozenVariableIsAHardError) {
  Solver S;
  Var A = S.newVar(), X = S.newVar();
  ASSERT_TRUE(S.addClause({mkLit(A), mkLit(X)}));
  ASSERT_TRUE(S.addClause({~mkLit(X), ~mkLit(A)}));
  S.setFrozen(X, true);
  EXPECT_TRUE(S.isFrozen(X));
  EXPECT_THROW(S.eliminateVar(X), std::logic_error);
  EXPECT_FALSE(S.isEliminated(X));
}

TEST(SimplifyFrozen, PreprocessSkipsFrozenVariables) {
  Solver::Options O;
  O.PreprocessMinClauses = 0; // tiny hand-built formula
  Solver S{O};
  Var A = S.newVar(), B = S.newVar(), X = S.newVar();
  ASSERT_TRUE(S.addClause({mkLit(A), mkLit(X)}));
  ASSERT_TRUE(S.addClause({~mkLit(X), mkLit(B)}));
  S.setFrozen(X, true);
  ASSERT_TRUE(S.preprocess());
  EXPECT_FALSE(S.isEliminated(X))
      << "a full pass must silently skip frozen variables, not throw";
  // The frozen variable is still legal to talk about afterwards. (A and B
  // were fair game for elimination, so pair X with a fresh variable.)
  EXPECT_EQ(S.solve({mkLit(X)}), LBool::True);
  Var C = S.newVar();
  EXPECT_TRUE(S.addClause({mkLit(X), mkLit(C)}));
}

TEST(SimplifyFrozen, MentioningAnEliminatedVariableIsAHardError) {
  Solver S;
  Var A = S.newVar(), B = S.newVar(), X = S.newVar();
  ASSERT_TRUE(S.addClause({mkLit(A), mkLit(X)}));
  ASSERT_TRUE(S.addClause({~mkLit(X), mkLit(B)}));
  ASSERT_TRUE(S.eliminateVar(X));
  EXPECT_THROW(S.addClause({mkLit(X)}), std::logic_error);
  EXPECT_THROW((void)S.solve({mkLit(X)}), std::logic_error);
}

TEST(SimplifyFrozen, ReleaseVarUnfreezes) {
  Solver S;
  Var A = S.newVar();
  Var G = S.newVar();
  ASSERT_TRUE(S.addClause({mkLit(A), ~mkLit(G)}));
  S.setFrozen(G, true);
  ASSERT_TRUE(S.isFrozen(G));
  // Retiring the guard (the Fu-Malik relaxation path) must lift the
  // freeze: the variable is root-fixed afterwards and fair game.
  ASSERT_TRUE(S.releaseVar(~mkLit(G)));
  EXPECT_FALSE(S.isFrozen(G));
  EXPECT_EQ(S.solve(), LBool::True);
}

// --- CLI differentials -------------------------------------------------------

namespace {

/// Top-level *.cnf / *.wcnf files under the checked-in instance dir.
std::vector<std::string> instanceFiles(const char *Suffix) {
  std::vector<std::string> Files;
  DIR *D = opendir(Instances.c_str());
  EXPECT_NE(D, nullptr);
  if (!D)
    return Files;
  size_t SufLen = std::strlen(Suffix);
  while (dirent *E = readdir(D)) {
    std::string Name = E->d_name;
    if (Name.size() > SufLen &&
        Name.compare(Name.size() - SufLen, SufLen, Suffix) == 0)
      Files.push_back(Instances + "/" + Name);
  }
  closedir(D);
  std::sort(Files.begin(), Files.end());
  EXPECT_FALSE(Files.empty());
  return Files;
}

/// The answer lines (s/o) of a CLI run; everything else (c comments,
/// models, stats) is timing- or reconstruction-dependent.
std::string answerLines(const std::string &Out) {
  std::string Answers;
  size_t Pos = 0;
  while (Pos < Out.size()) {
    size_t Nl = Out.find('\n', Pos);
    if (Nl == std::string::npos)
      Nl = Out.size();
    if (Out.compare(Pos, 2, "s ") == 0 || Out.compare(Pos, 2, "o ") == 0)
      Answers.append(Out, Pos, Nl - Pos + 1);
    Pos = Nl + 1;
  }
  return Answers;
}

} // namespace

TEST(SimplifyCliDifferential, EveryInstanceAnswersIdenticallyWithoutPreprocess) {
  for (const std::string &F : instanceFiles(".cnf")) {
    int E1 = 0, E2 = 0;
    std::string On = runCommand(Cli + " sat " + F + " --no-model", E1);
    std::string Off =
        runCommand(Cli + " sat " + F + " --no-model --no-preprocess", E2);
    EXPECT_EQ(exitStatus(E1), exitStatus(E2)) << F;
    EXPECT_EQ(answerLines(On), answerLines(Off)) << F;
  }
  for (const std::string &F : instanceFiles(".wcnf")) {
    int E1 = 0, E2 = 0;
    std::string On = runCommand(Cli + " maxsat " + F + " --no-model", E1);
    std::string Off =
        runCommand(Cli + " maxsat " + F + " --no-model --no-preprocess", E2);
    EXPECT_EQ(exitStatus(E1), exitStatus(E2)) << F;
    EXPECT_EQ(answerLines(On), answerLines(Off)) << F;
  }
}

TEST(SimplifyCliDifferential, TcasLocalizationIsByteIdenticalAcrossWidths) {
  // TCAS v2 with the same deterministic failing input the CI smoke uses.
  // One canonical report at every (threads, preprocessing) combination:
  // canonicalized optima make the diagnosis sequence independent of both
  // the portfolio width and the per-worker eliminations.
  int Exit = 0;
  std::string Source = runCommand(Cli + " dump-tcas 2", Exit);
  ASSERT_EQ(exitStatus(Exit), 0);
  std::string Path = "/tmp/bugassist_simplify_tcas2.ba";
  std::FILE *F = std::fopen(Path.c_str(), "w");
  ASSERT_NE(F, nullptr);
  std::fwrite(Source.data(), 1, Source.size(), F);
  std::fclose(F);

  std::string Base =
      Cli + " localize " + Path +
      " --input \"1052,1,0,6677,118,1329,0,790,890,0,2,1\" --golden 2"
      " --no-obligations --no-bounds --bitwidth 16 --hard-lines 69-84"
      " --max-diagnoses 24";
  std::string First;
  for (size_t Threads : {1u, 2u, 4u}) {
    for (const char *Extra : {"", " --no-preprocess"}) {
      std::string Out = runCommand(
          Base + " --threads " + std::to_string(Threads) + Extra, Exit);
      ASSERT_EQ(exitStatus(Exit), 0) << "threads " << Threads << Extra;
      ASSERT_NE(Out.find("diagnosis 1 "), std::string::npos);
      if (First.empty())
        First = Out;
      else
        EXPECT_EQ(Out, First)
            << "report diverged at --threads " << Threads << Extra;
    }
  }
  std::remove(Path.c_str());
}

// Preprocessing must actually fire on the checked-in pigeonhole instance --
// the --stats counters prove the sweep is not a no-op.
TEST(SimplifyCliDifferential, StatsReportEliminations) {
  int Exit = 0;
  std::string Out = runCommand(Cli + " maxsat " + Instances +
                                   "/php_soft8.wcnf --no-model --stats",
                               Exit);
  ASSERT_EQ(exitStatus(Exit), 0);
  size_t Pos = Out.find("vars_eliminated=");
  ASSERT_NE(Pos, std::string::npos) << Out;
  EXPECT_NE(Out.substr(Pos), "vars_eliminated=0 ")
      << "expected eliminations on the buffered pigeonhole:\n" << Out;
  uint64_t Count =
      std::strtoull(Out.c_str() + Pos + std::strlen("vars_eliminated="),
                    nullptr, 10);
  EXPECT_GT(Count, 0u) << Out;
}
