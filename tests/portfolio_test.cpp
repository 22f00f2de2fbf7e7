//===- portfolio_test.cpp - Parallel portfolio MaxSAT tests ------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// Covers the portfolio subsystem end to end: ClauseExchange delivery
// semantics, the diversification recipe, cooperative interruption of a
// long refutation, the shared-clause import differential (an importing
// solver refutes with fewer conflicts than an isolated twin), raced
// plain-SAT agreement with the single solver, and -- the headline -- TCAS
// localization parity: costs and diagnosis sets are byte-identical to the
// single-threaded session at 1, 2, and 4 workers, whether the shared
// worker pool has idle lanes for the helpers or none at all.
//
// This suite is also the ThreadSanitizer target in CI: every racy path
// (exchange, interrupt flags, winner protocol) is exercised here.
//
//===----------------------------------------------------------------------===//

#include "maxsat/Portfolio.h"

#include "core/BugAssist.h"
#include "core/Pipeline.h"
#include "lang/Sema.h"
#include "programs/Tcas.h"
#include "programs/TcasMutants.h"
#include "support/FaultInject.h"
#include "support/Rng.h"
#include "support/Timer.h"
#include "support/WorkerPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>

using namespace bugassist;

namespace {

std::vector<Clause> pigeonholeClauses(int Holes) {
  int Pigeons = Holes + 1;
  auto VarOf = [Holes](int P, int H) { return P * Holes + H; };
  std::vector<Clause> Cs;
  for (int P = 0; P < Pigeons; ++P) {
    Clause C;
    for (int H = 0; H < Holes; ++H)
      C.push_back(mkLit(VarOf(P, H)));
    Cs.push_back(std::move(C));
  }
  for (int H = 0; H < Holes; ++H)
    for (int P1 = 0; P1 < Pigeons; ++P1)
      for (int P2 = P1 + 1; P2 < Pigeons; ++P2)
        Cs.push_back({~mkLit(VarOf(P1, H)), ~mkLit(VarOf(P2, H))});
  return Cs;
}

void loadClauses(Solver &S, const std::vector<Clause> &Cs, int NumVars) {
  S.ensureVars(NumVars);
  for (const Clause &C : Cs)
    ASSERT_TRUE(S.addClause(C));
}

std::vector<Clause> random3Sat(Rng &R, int Vars, int Clauses) {
  std::vector<Clause> Cs;
  for (int I = 0; I < Clauses; ++I) {
    Clause C;
    std::set<Var> Used;
    while (C.size() < 3) {
      Var V = static_cast<Var>(R.below(static_cast<uint64_t>(Vars)));
      if (!Used.insert(V).second)
        continue;
      C.push_back(mkLit(V, R.chance(1, 2)));
    }
    Cs.push_back(std::move(C));
  }
  return Cs;
}

/// The localization-shaped chain instance from bench_solvers: optimum 1,
/// many distinct CoMSSes, so enumeration order is really exercised.
MaxSatInstance selectorChain(int Length) {
  MaxSatInstance Inst;
  Inst.NumVars = (Length + 1) + Length;
  auto Y = [](int I) { return mkLit(I); };
  auto Sel = [Length](int I) { return mkLit(Length + I); };
  Inst.Hard.push_back({Y(0)});
  Inst.Hard.push_back({~Y(Length)});
  for (int I = 1; I <= Length; ++I) {
    Inst.Hard.push_back({~Sel(I), ~Y(I - 1), Y(I)});
    Inst.Hard.push_back({~Sel(I), Y(I - 1), ~Y(I)});
    Inst.Soft.push_back({{Sel(I)}, 1});
  }
  return Inst;
}

} // namespace

// --- ClauseExchange ---------------------------------------------------------

TEST(ClauseExchange, DeliversToEveryoneButTheSource) {
  ClauseExchange Ex(3);
  Ex.publish(0, {mkLit(1), mkLit(2)}, 2);
  Ex.publish(1, {mkLit(3)}, 1);

  std::vector<Lit> C;
  uint32_t Lbd = 0;
  // Worker 0 sees only worker 1's clause.
  ASSERT_TRUE(Ex.fetch(0, C, Lbd));
  EXPECT_EQ(C, std::vector<Lit>{mkLit(3)});
  EXPECT_EQ(Lbd, 1u);
  EXPECT_FALSE(Ex.fetch(0, C, Lbd));
  // Worker 2 sees both, in publication order.
  ASSERT_TRUE(Ex.fetch(2, C, Lbd));
  EXPECT_EQ(C, (std::vector<Lit>{mkLit(1), mkLit(2)}));
  ASSERT_TRUE(Ex.fetch(2, C, Lbd));
  EXPECT_EQ(C, std::vector<Lit>{mkLit(3)});
  EXPECT_FALSE(Ex.fetch(2, C, Lbd));
  // Worker 1 sees only worker 0's clause; each entry is delivered once.
  ASSERT_TRUE(Ex.fetch(1, C, Lbd));
  EXPECT_EQ(C, (std::vector<Lit>{mkLit(1), mkLit(2)}));
  EXPECT_FALSE(Ex.fetch(1, C, Lbd));
  EXPECT_EQ(Ex.published(), 2u);
  EXPECT_EQ(Ex.dropped(), 0u);
}

TEST(ClauseExchange, BoundedBufferDropsOldest) {
  ClauseExchange Ex(2, /*Capacity=*/4);
  for (int I = 0; I < 10; ++I)
    Ex.publish(0, {mkLit(I)}, 1);
  EXPECT_EQ(Ex.published(), 10u);
  EXPECT_EQ(Ex.dropped(), 6u);
  // A late reader only sees the surviving tail (clauses 6..9).
  std::vector<Lit> C;
  uint32_t Lbd = 0;
  std::vector<Lit> Seen;
  while (Ex.fetch(1, C, Lbd))
    Seen.push_back(C[0]);
  EXPECT_EQ(Seen, (std::vector<Lit>{mkLit(6), mkLit(7), mkLit(8), mkLit(9)}));
}

// --- diversification --------------------------------------------------------

TEST(Portfolio, DiversificationRecipeIsDeterministicAnchoredAtBase) {
  Solver::Options Base;
  // Worker 0 is bit-for-bit the base configuration.
  Solver::Options W0 = diversifiedOptions(Base, 0);
  EXPECT_EQ(W0.RandSeed, Base.RandSeed);
  EXPECT_EQ(W0.Restart, Base.Restart);
  EXPECT_EQ(W0.Retention, Base.Retention);
  EXPECT_EQ(W0.InitPhase, Base.InitPhase);
  EXPECT_EQ(W0.RandomBranchFreq, Base.RandomBranchFreq);

  // Workers 1..7 all differ from the anchor in seed, and the recipe is a
  // pure function of (base, id).
  for (size_t Id = 1; Id < 8; ++Id) {
    Solver::Options A = diversifiedOptions(Base, Id);
    Solver::Options B = diversifiedOptions(Base, Id);
    EXPECT_NE(A.RandSeed, Base.RandSeed) << "worker " << Id;
    EXPECT_EQ(A.RandSeed, B.RandSeed) << "worker " << Id;
    EXPECT_EQ(static_cast<int>(A.Restart), static_cast<int>(B.Restart));
    EXPECT_EQ(static_cast<int>(A.InitPhase), static_cast<int>(B.InitPhase));
  }
  // The recipe actually varies policies across the cycle.
  EXPECT_EQ(diversifiedOptions(Base, 7).Retention,
            Solver::Options::RetentionPolicy::ActivityHalving);
  EXPECT_EQ(diversifiedOptions(Base, 2).Restart,
            Solver::Options::RestartPolicy::Luby);
}

// --- cooperative interruption ----------------------------------------------

TEST(Portfolio, InterruptStopsALongRefutationPromptly) {
  // PHP(10, 9) takes far longer than this test is allowed to: without the
  // interrupt the solve would effectively hang.
  Solver S;
  loadClauses(S, pigeonholeClauses(9), 10 * 9);

  Timer Total;
  LBool Result = LBool::True;
  std::thread Runner([&] { Result = S.solve(); });
  // Give the search a moment to get going, then cancel it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  S.interrupt();
  Runner.join();

  EXPECT_EQ(Result, LBool::Undef);
  EXPECT_TRUE(S.interrupted());
  // "Promptly": seconds, not the hours the full refutation would need.
  EXPECT_LT(Total.seconds(), 10.0);

  // A sticky flag also stops a solve that starts after the interrupt.
  EXPECT_EQ(S.solve(), LBool::Undef);

  // clearInterrupt re-arms the solver for real work.
  S.clearInterrupt();
  Solver Small;
  loadClauses(Small, pigeonholeClauses(4), 5 * 4);
  EXPECT_EQ(Small.solve(), LBool::False);
}

// --- shared-clause import differential --------------------------------------

TEST(Portfolio, ImportedGlueShortensTheProof) {
  // Worker A refutes PHP(8, 7) and publishes its low-LBD lemmas; worker B
  // imports them before solving the same instance and must finish with
  // fewer conflicts than an isolated twin C (identical configuration,
  // no imports).
  const int Holes = 7;
  const int NumVars = (Holes + 1) * Holes;
  auto Cs = pigeonholeClauses(Holes);

  ClauseExchange Ex(2);
  Solver::Options ExportOpts;
  ExportOpts.ShareLbdMax = 6; // pigeonhole glue is mid-LBD; widen the tap
  Solver A{ExportOpts};
  loadClauses(A, Cs, NumVars);
  A.setShareHooks(
      [&Ex](const std::vector<Lit> &L, uint32_t Lbd) { Ex.publish(0, L, Lbd); },
      [&Ex](std::vector<Lit> &L, uint32_t &Lbd) { return Ex.fetch(0, L, Lbd); },
      NumVars);
  ASSERT_EQ(A.solve(), LBool::False);
  ASSERT_GT(A.stats().ClausesExported, 0u);

  Solver B;
  loadClauses(B, Cs, NumVars);
  B.setShareHooks(
      [&Ex](const std::vector<Lit> &L, uint32_t Lbd) { Ex.publish(1, L, Lbd); },
      [&Ex](std::vector<Lit> &L, uint32_t &Lbd) { return Ex.fetch(1, L, Lbd); },
      NumVars);
  ASSERT_EQ(B.solve(), LBool::False);
  EXPECT_GT(B.stats().ClausesImported, 0u);

  Solver C2; // isolated twin of B
  loadClauses(C2, Cs, NumVars);
  ASSERT_EQ(C2.solve(), LBool::False);

  EXPECT_LT(B.stats().Conflicts, C2.stats().Conflicts)
      << "imported glue clauses did not shorten the refutation";
}

// --- raced plain SAT --------------------------------------------------------

TEST(Portfolio, RacedSatAgreesWithSingleSolverOnRandomSweep) {
  Rng R(7777);
  for (int Round = 0; Round < 12; ++Round) {
    int Vars = 40;
    auto Cs = random3Sat(R, Vars, static_cast<int>(Vars * 4.26));
    SatRaceResult Single = racePortfolioSat(Cs, Vars, 1);
    SatRaceResult Raced = racePortfolioSat(Cs, Vars, 3);
    ASSERT_NE(Single.Result, LBool::Undef);
    ASSERT_NE(Raced.Result, LBool::Undef);
    EXPECT_EQ(Raced.Result, Single.Result) << "round " << Round;
    EXPECT_GE(Raced.Winner, 0);
    EXPECT_EQ(Raced.PerWorker.size(), 3u);
  }
}

TEST(Portfolio, RacedRefutationIsUnsat) {
  auto Cs = pigeonholeClauses(6);
  SatRaceResult Race = racePortfolioSat(Cs, 7 * 6, 4);
  EXPECT_EQ(Race.Result, LBool::False);
  ASSERT_GE(Race.Winner, 0);
  EXPECT_LT(Race.Winner, 4);
}

// --- portfolio MaxSAT sessions ----------------------------------------------

TEST(Portfolio, EnumerationMatchesSingleThreadedSessionOnChains) {
  // Drive the full Algorithm 1 loop (solve, block, re-solve ... to
  // exhaustion) at several thread counts; every step must report the same
  // cost and falsified set as the single-threaded canonical session.
  for (bool Weighted : {false, true}) {
    MaxSatInstance Inst = selectorChain(8);
    auto Reference = makeMaxSatSession(Inst, Weighted);
    std::vector<MaxSatResult> Want;
    for (;;) {
      MaxSatResult R = Reference->solve();
      Want.push_back(R);
      if (R.Status != MaxSatStatus::Optimum || R.FalsifiedSoft.empty())
        break;
      Clause Beta;
      for (size_t I : R.FalsifiedSoft)
        Beta.push_back(Inst.Soft[I].Lits[0]);
      if (!Reference->addHardClause(Beta))
        break;
    }
    ASSERT_GT(Want.size(), 2u);

    for (size_t Threads : {1u, 2u, 4u}) {
      // Built directly so Threads == 1 still races a one-worker portfolio.
      auto Portfolio =
          std::make_unique<PortfolioSession>(Inst, Weighted, Threads);
      for (size_t Step = 0; Step < Want.size(); ++Step) {
        MaxSatResult R = Portfolio->solve();
        ASSERT_EQ(R.Status, Want[Step].Status)
            << "threads " << Threads << " step " << Step;
        if (R.Status != MaxSatStatus::Optimum)
          break;
        EXPECT_EQ(R.Cost, Want[Step].Cost)
            << "threads " << Threads << " step " << Step;
        EXPECT_EQ(R.FalsifiedSoft, Want[Step].FalsifiedSoft)
            << "threads " << Threads << " step " << Step;
        if (R.FalsifiedSoft.empty())
          break;
        Clause Beta;
        for (size_t I : R.FalsifiedSoft)
          Beta.push_back(Inst.Soft[I].Lits[0]);
        if (!Portfolio->addHardClause(Beta))
          break;
      }
      // Every decided race has a recorded winner.
      const PortfolioStats &PS = Portfolio->portfolioStats();
      uint64_t Wins = 0;
      for (uint64_t W : PS.WinsByWorker)
        Wins += W;
      EXPECT_GT(Wins, 0u);
    }
  }
}

// --- TCAS localization parity (the acceptance workload) ---------------------

namespace {

/// One localization query: a TCAS mutant, its driver, and a failing test.
struct TcasQuery {
  int Version = 0;
  std::unique_ptr<Program> Faulty;
  std::unique_ptr<BugAssistDriver> Driver;
  InputVector Input;
  Spec S;

  LocalizationReport localize(size_t Threads) const {
    LocalizeOptions LO;
    LO.MaxDiagnoses = 8;
    LO.Threads = Threads;
    return localizeFault(Driver->formula(), Input, S, LO);
  }
};

/// The first \p Max TCAS mutants with a failing test in the seeded pool.
std::vector<TcasQuery> failingTcasQueries(size_t Max) {
  DiagEngine Diags;
  auto Golden = parseAndAnalyze(tcasSource(), Diags);
  EXPECT_TRUE(Golden != nullptr) << Diags.render();
  Interpreter GI(*Golden, tcasExecOptions());
  auto Pool = tcasTestPool(300);
  std::vector<int64_t> GoldenOut;
  GoldenOut.reserve(Pool.size());
  for (const InputVector &In : Pool)
    GoldenOut.push_back(GI.run("main", In).ReturnValue);

  std::vector<TcasQuery> Queries;
  for (const TcasMutant &M : tcasMutants()) {
    if (Queries.size() >= Max)
      break;
    DiagEngine D2;
    TcasQuery Q;
    Q.Faulty = parseAndAnalyze(M.Source, D2);
    if (!Q.Faulty)
      continue;
    Interpreter FI(*Q.Faulty, tcasExecOptions());
    size_t FailingIdx = Pool.size();
    for (size_t I = 0; I < Pool.size(); ++I)
      if (FI.run("main", Pool[I]).ReturnValue != GoldenOut[I]) {
        FailingIdx = I;
        break;
      }
    if (FailingIdx == Pool.size())
      continue;
    Q.Version = M.Version;
    Q.Driver = std::make_unique<BugAssistDriver>(*Q.Faulty, "main",
                                                 tcasUnrollOptions());
    Q.Input = Pool[FailingIdx];
    Q.S.CheckObligations = false;
    Q.S.GoldenReturn = GoldenOut[FailingIdx];
    Queries.push_back(std::move(Q));
  }
  return Queries;
}

} // namespace

TEST(Portfolio, TcasLocalizationIdenticalAtEveryThreadCount) {
  std::vector<TcasQuery> Queries = failingTcasQueries(2);
  ASSERT_EQ(Queries.size(), 2u) << "TCAS suite lost its failing mutants";
  for (const TcasQuery &Q : Queries) {
    LocalizationReport Single = Q.localize(1);
    ASSERT_FALSE(Single.Diagnoses.empty()) << "v" << Q.Version;

    for (size_t Threads : {1u, 2u, 4u}) {
      LocalizationReport Ported = Q.localize(Threads);
      EXPECT_EQ(Ported.Exhausted, Single.Exhausted)
          << "v" << Q.Version << " threads " << Threads;
      EXPECT_EQ(Ported.AllLines, Single.AllLines)
          << "v" << Q.Version << " threads " << Threads;
      ASSERT_EQ(Ported.Diagnoses.size(), Single.Diagnoses.size())
          << "v" << Q.Version << " threads " << Threads;
      for (size_t D = 0; D < Single.Diagnoses.size(); ++D) {
        EXPECT_EQ(Ported.Diagnoses[D].Lines, Single.Diagnoses[D].Lines)
            << "v" << Q.Version << " threads " << Threads << " diag " << D;
        EXPECT_EQ(Ported.Diagnoses[D].Unwindings,
                  Single.Diagnoses[D].Unwindings)
            << "v" << Q.Version << " threads " << Threads << " diag " << D;
        EXPECT_EQ(Ported.Diagnoses[D].Cost, Single.Diagnoses[D].Cost)
            << "v" << Q.Version << " threads " << Threads << " diag " << D;
      }
      if (Threads > 1) {
        EXPECT_EQ(Ported.PortfolioWins.size(), Threads);
        // Each round every helper either solved or was skipped.
        EXPECT_EQ((Ported.HelpersStarted + Ported.HelpersSkipped) %
                      (Threads - 1),
                  0u);
      }
    }
  }
}

// --- racing on the shared worker pool ----------------------------------------

namespace {

/// Occupies every lane of the global pool (grown to at least \p Lanes)
/// with blocked tasks until release(), so a race forked meanwhile finds
/// no free lane for its helpers.
class HeldLanes {
public:
  explicit HeldLanes(size_t Lanes) {
    WorkerPool &Pool = WorkerPool::global();
    Pool.reserve(Lanes);
    size_t N = Pool.size();
    for (size_t I = 0; I < N; ++I)
      Blockers.fork([this] {
        std::unique_lock<std::mutex> L(M);
        ++Started;
        Changed.notify_all();
        Changed.wait(L, [this] { return Released; });
      });
    std::unique_lock<std::mutex> L(M);
    Changed.wait(L, [&] { return Started == N; });
  }
  ~HeldLanes() { release(); }

  void release() {
    {
      std::lock_guard<std::mutex> G(M);
      Released = true;
    }
    Changed.notify_all();
    Blockers.wait();
  }

private:
  std::mutex M;
  std::condition_variable Changed;
  size_t Started = 0;
  bool Released = false;
  TaskGroup Blockers; // declared last: joined before M and Changed go
};

} // namespace

TEST(PortfolioPool, IdleLanesStartHelpersAndTheReportMatchesWidthOne) {
  std::vector<TcasQuery> Queries = failingTcasQueries(1);
  ASSERT_EQ(Queries.size(), 1u);
  const TcasQuery &Q = Queries[0];
  LocalizationReport Single = Q.localize(1);
  LocalizationReport Raced = Q.localize(4);
  EXPECT_EQ(renderLocalizationReport(Raced), renderLocalizationReport(Single));
  EXPECT_GT(Raced.HelpersStarted, 0u) << "an idle pool never raced";
  EXPECT_EQ((Raced.HelpersStarted + Raced.HelpersSkipped) % 3, 0u);
}

TEST(PortfolioPool, HeldLanesSkipEveryHelperAndTheReportMatchesWidthOne) {
  std::vector<TcasQuery> Queries = failingTcasQueries(1);
  ASSERT_EQ(Queries.size(), 1u);
  const TcasQuery &Q = Queries[0];
  LocalizationReport Single = Q.localize(1);
  LocalizationReport Raced;
  {
    HeldLanes Held(3);
    Raced = Q.localize(4);
  }
  EXPECT_EQ(renderLocalizationReport(Raced), renderLocalizationReport(Single));
  EXPECT_EQ(Raced.HelpersStarted, 0u);
  EXPECT_GT(Raced.HelpersSkipped, 0u);
  EXPECT_EQ(Raced.HelpersSkipped % 3, 0u);
}

TEST(PortfolioPool, TheRoundAfterASkippedRoundStillRaces) {
  // Round 1 runs with every lane held, so worker 0 decides alone and the
  // three helpers are skipped before their first step. Round 2, with the
  // lanes free, must race all four sessions -- including the skipped ones,
  // which resume from the consistent state they were left in -- and agree
  // with the single-threaded reference at every step.
  MaxSatInstance Inst = selectorChain(8);
  auto Reference = makeMaxSatSession(Inst, /*Weighted=*/false);
  PortfolioSession Portfolio(Inst, /*Weighted=*/false, 4);
  auto Step = [&](MaxSatSession &S) {
    MaxSatResult R = S.solve();
    Clause Beta;
    for (size_t I : R.FalsifiedSoft)
      Beta.push_back(Inst.Soft[I].Lits[0]);
    if (R.Status == MaxSatStatus::Optimum && !Beta.empty())
      S.addHardClause(Beta);
    return R;
  };

  MaxSatResult Want = Step(*Reference);
  MaxSatResult Got;
  {
    HeldLanes Held(3);
    Got = Step(Portfolio);
  }
  ASSERT_EQ(Got.Status, Want.Status);
  EXPECT_EQ(Got.FalsifiedSoft, Want.FalsifiedSoft);
  EXPECT_EQ(Portfolio.portfolioStats().HelpersStarted, 0u);
  EXPECT_EQ(Portfolio.portfolioStats().HelpersSkipped, 3u);

  size_t Rounds = 1;
  while (Want.Status == MaxSatStatus::Optimum && !Want.FalsifiedSoft.empty()) {
    Want = Step(*Reference);
    Got = Step(Portfolio);
    ++Rounds;
    ASSERT_EQ(Got.Status, Want.Status) << "round " << Rounds;
    EXPECT_EQ(Got.Cost, Want.Cost) << "round " << Rounds;
    EXPECT_EQ(Got.FalsifiedSoft, Want.FalsifiedSoft) << "round " << Rounds;
  }
  ASSERT_GT(Rounds, 2u);
  const PortfolioStats &PS = Portfolio.portfolioStats();
  EXPECT_EQ(PS.HelpersStarted + PS.HelpersSkipped, 3 * Rounds);
  uint64_t Wins = 0;
  for (uint64_t W : PS.WinsByWorker)
    Wins += W;
  EXPECT_EQ(Wins, Rounds);
}

TEST(PortfolioPool, RaceFromInsideEveryBusyLaneNeverDeadlocks) {
  // Every pool lane runs a width-4 localization at once, so each race's
  // helpers find no free lane and are either run by their own forker or
  // skipped. All must finish with the width-1 report.
  std::vector<TcasQuery> Queries = failingTcasQueries(1);
  ASSERT_EQ(Queries.size(), 1u);
  const TcasQuery &Q = Queries[0];
  const std::string Want = renderLocalizationReport(Q.localize(1));
  WorkerPool &Pool = WorkerPool::global();
  Pool.reserve(3);
  const size_t Lanes = Pool.size();
  std::atomic<size_t> Started{0};
  std::vector<std::string> Got(Lanes);
  TaskGroup G;
  for (size_t I = 0; I < Lanes; ++I)
    G.fork([&, I] {
      ++Started;
      while (Started < Lanes)
        std::this_thread::yield();
      Got[I] = renderLocalizationReport(Q.localize(4));
    });
  G.wait();
  for (size_t I = 0; I < Lanes; ++I)
    EXPECT_EQ(Got[I], Want) << "lane " << I;
}

// --- fault isolation ---------------------------------------------------------

namespace {

/// PHP(Holes + 1, Holes) with EVERY clause soft (weight 1): optimum 1, but
/// the first Fu-Malik core requires the full exponential refutation, so
/// every worker is guaranteed to allocate learnt clauses while solving.
MaxSatInstance softPigeonhole(int Holes) {
  MaxSatInstance Inst;
  Inst.NumVars = (Holes + 1) * Holes;
  for (Clause &C : pigeonholeClauses(Holes))
    Inst.Soft.push_back({std::move(C), 1});
  return Inst;
}

} // namespace

TEST(PortfolioFaults, WorkerBadAllocIsIsolatedAndDiagnosisUnchanged) {
  // Reference: the canonical single-threaded session.
  MaxSatInstance Inst = softPigeonhole(5);
  auto Ref = makeMaxSatSession(Inst, /*Weighted=*/false);
  MaxSatResult Want = Ref->solve();
  ASSERT_EQ(Want.Status, MaxSatStatus::Optimum);
  ASSERT_EQ(Want.Cost, 1u);

  // Portfolio of four; one worker dies of bad_alloc at its first learnt
  // allocation. The race must finish on the survivors with the same
  // canonical diagnosis.
  auto Portfolio =
      std::make_unique<PortfolioSession>(Inst, /*Weighted=*/false, 4);
  MaxSatResult Got;
  {
    faultinject::ScopedFault Fault(faultinject::Event::Allocation,
                                   faultinject::Fault::BadAlloc, /*Nth=*/1);
    Got = Portfolio->solve();
  }

  ASSERT_EQ(Got.Status, MaxSatStatus::Optimum);
  EXPECT_EQ(Got.Cost, Want.Cost);
  EXPECT_EQ(Got.FalsifiedSoft, Want.FalsifiedSoft);
  EXPECT_EQ(Portfolio->portfolioStats().WorkerFaults, 1u);
  EXPECT_EQ(Portfolio->aliveWorkers(), 3u); // the casualty sits this round out

  // Enumeration continues in lockstep with the reference -- and the next
  // solve() respawns the casualty first, so the pool self-heals back to
  // full width instead of shrinking for the session's lifetime.
  Clause Beta;
  for (size_t I : Got.FalsifiedSoft)
    Beta.push_back(Inst.Soft[I].Lits[0]);
  ASSERT_TRUE(Portfolio->addHardClause(Beta));
  ASSERT_TRUE(Ref->addHardClause(Beta));
  MaxSatResult Want2 = Ref->solve();
  MaxSatResult Got2 = Portfolio->solve();
  ASSERT_EQ(Got2.Status, Want2.Status);
  if (Want2.Status == MaxSatStatus::Optimum) {
    EXPECT_EQ(Got2.Cost, Want2.Cost);
    EXPECT_EQ(Got2.FalsifiedSoft, Want2.FalsifiedSoft);
  }
  EXPECT_EQ(Portfolio->portfolioStats().WorkerRespawns, 1u);
  EXPECT_EQ(Portfolio->aliveWorkers(), 4u); // back to full strength
}

TEST(PortfolioFaults, RacedSatSurvivesWorkerCrash) {
  // The PHP(7, 6) refutation restarts many times, so the armed fault is
  // guaranteed to kill exactly one racer mid-proof; the answer must still
  // be UNSAT. (Restart events, unlike allocations, only ever happen on
  // worker threads -- racePortfolioSat builds its solvers on the caller's
  // thread, which must NOT be the one to die.)
  auto Cs = pigeonholeClauses(6);
  // Variable elimination shrinks this refutation enough that a worker can
  // finish before anyone restarts (scheduling-dependent); keep the pass
  // off so the armed restart event reliably fires. Fault isolation is this
  // test's subject, preprocessing is simplify_test's.
  Solver::Options NoPre;
  NoPre.Preprocess = false;
  faultinject::ScopedFault Fault(faultinject::Event::Restart,
                                 faultinject::Fault::BadAlloc, /*Nth=*/1);
  SatRaceResult Race = racePortfolioSat(Cs, 7 * 6, 4, NoPre);
  EXPECT_EQ(Race.Result, LBool::False);
  EXPECT_EQ(Race.Faults, 1u);
  ASSERT_GE(Race.Winner, 0);
}

// --- budgets across thread widths (ISSUE acceptance) -------------------------

TEST(PortfolioBudget, SoftPigeonholeDeadlineIsAnytimeAtEveryWidth) {
  // soft-PHP(10, 9): the first core needs a PHP(10, 9) refutation -- far
  // beyond any test budget -- but the hard part is empty, so the harvest
  // model is instant. A 50 ms deadline must yield Unknown with a finite
  // upper bound and a witness, well under a second, at every width.
  MaxSatInstance Inst = softPigeonhole(9);
  for (size_t Threads : {1u, 2u, 4u}) {
    std::unique_ptr<MaxSatSession> Session =
        makeMaxSatSession(Inst, /*Weighted=*/false, Threads);
    Solver::Budget B;
    B.setDeadlineIn(0.05);
    Session->setBudget(B);
    Timer T;
    MaxSatResult R = Session->solve();
    double Elapsed = T.seconds();
    ASSERT_EQ(R.Status, MaxSatStatus::Unknown) << "threads " << Threads;
    EXPECT_NE(R.UpperBound, UINT64_MAX) << "threads " << Threads;
    ASSERT_FALSE(R.BestModel.empty()) << "threads " << Threads;
    EXPECT_GE(R.UpperBound, 1u) << "threads " << Threads; // optimum is 1
    EXPECT_LT(Elapsed, 1.0) << "threads " << Threads
                            << ": deadline not honored promptly";
  }
}
