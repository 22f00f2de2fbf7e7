//===- Portfolio.cpp - Parallel portfolio MaxSAT / SAT -----------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// Racing protocol: every worker runs on its own thread; the first thread
// whose session produces a decided result (not Unknown) takes the win
// under the race mutex and interrupts everyone else. Losers return
// promptly (Solver::interrupt is polled once per search iteration), their
// sessions stay internally consistent, and all threads are joined before
// solve() returns -- so between rounds the portfolio is single-threaded
// and the exchange cursors, stats, and session state can be read freely.
//
// A decided loser result is impossible by construction: a worker is only
// interrupted after the winner claimed the race, so any later-finishing
// worker's result is discarded. Unknown results never claim the win; when
// every surviving worker exhausts its budget the survivors' anytime
// bounds are merged deterministically (see PortfolioSession::solve).
//
// Fault isolation and self-healing: an exception escaping a worker's
// solve() is caught at the thread boundary. The crashed worker is retired
// -- its engine state is indeterminate mid-solve -- and the round
// continues on the survivors. The *next* solve() rebuilds every retired
// worker from the stored construction inputs plus the addHardClause
// broadcasts so far (respawnRetired), so a transient fault costs one
// round of parallelism, not the session's lifetime.
//
//===----------------------------------------------------------------------===//

#include "maxsat/Portfolio.h"

#include "sat/Solver.h"

#include <algorithm>
#include <cassert>
#include <thread>

using namespace bugassist;

// --- ClauseExchange ---------------------------------------------------------

ClauseExchange::ClauseExchange(size_t NumWorkers, size_t Capacity)
    : Cursor(NumWorkers, 0), Capacity(Capacity ? Capacity : 1) {}

void ClauseExchange::publish(size_t Worker, const std::vector<Lit> &Lits,
                             uint32_t Lbd) {
  std::lock_guard<std::mutex> G(M);
  assert(Worker < Cursor.size() && "unknown worker");
  Buf.push_back({Lits, Lbd, Worker});
  ++Published;
  while (Buf.size() > Capacity) {
    Buf.pop_front();
    ++BaseSeq;
    ++Dropped;
  }
}

bool ClauseExchange::fetch(size_t Worker, std::vector<Lit> &Lits,
                           uint32_t &Lbd) {
  std::lock_guard<std::mutex> G(M);
  assert(Worker < Cursor.size() && "unknown worker");
  uint64_t Seq = std::max(Cursor[Worker], BaseSeq); // dropped entries skipped
  uint64_t EndSeq = BaseSeq + Buf.size();
  while (Seq < EndSeq) {
    const Entry &E = Buf[static_cast<size_t>(Seq - BaseSeq)];
    ++Seq;
    if (E.Source == Worker)
      continue; // never hand a worker its own clause back
    Lits = E.Lits;
    Lbd = E.Lbd;
    Cursor[Worker] = Seq;
    return true;
  }
  Cursor[Worker] = Seq;
  return false;
}

uint64_t ClauseExchange::published() const {
  std::lock_guard<std::mutex> G(M);
  return Published;
}

uint64_t ClauseExchange::dropped() const {
  std::lock_guard<std::mutex> G(M);
  return Dropped;
}

// --- diversification --------------------------------------------------------

Solver::Options bugassist::diversifiedOptions(const Solver::Options &Base,
                                              size_t WorkerId) {
  Solver::Options O = Base;
  if (WorkerId == 0)
    return O; // the anchor: exactly the base configuration
  // Distinct seeds decorrelate the random decisions and random phases even
  // between workers that share a policy mix.
  O.RandSeed = Base.RandSeed + 0x9e3779b97f4a7c15ull * WorkerId;
  switch (WorkerId % 8) {
  case 1: // model-hunter: positive phases, eager EMA restarts
    O.InitPhase = Solver::Options::PhaseInit::True;
    O.RestartMargin = 1.1;
    break;
  case 2: // Luby fast restarts with extra random branching
    O.Restart = Solver::Options::RestartPolicy::Luby;
    O.LubyUnit = 100;
    O.RandomBranchFreq = 0.05;
    break;
  case 3: // the seed retention policy under EMA restarts, random phases
    O.Retention = Solver::Options::RetentionPolicy::ActivityHalving;
    O.InitPhase = Solver::Options::PhaseInit::Random;
    break;
  case 4: // wide tiers, heavy randomization
    O.RandomBranchFreq = 0.1;
    O.CoreLbdCut = 4;
    O.MidLbdCut = 8;
    break;
  case 5: // Luby slow restarts, positive phases (deep SAT dives)
    O.Restart = Solver::Options::RestartPolicy::Luby;
    O.LubyUnit = 512;
    O.InitPhase = Solver::Options::PhaseInit::True;
    break;
  case 6: // conservative EMA restarts, random phases
    O.RestartMargin = 1.4;
    O.BlockMargin = 1.2;
    O.InitPhase = Solver::Options::PhaseInit::Random;
    O.RandomBranchFreq = 0.05;
    break;
  case 7: // the full seed-policy solver (Luby + activity halving)
    O.Restart = Solver::Options::RestartPolicy::Luby;
    O.Retention = Solver::Options::RetentionPolicy::ActivityHalving;
    break;
  default: // 0 mod 8 beyond the anchor: base policies, fresh seed
    break;
  }
  return O;
}

namespace {

/// Wires one worker's solver into the exchange. The exchange must outlive
/// the solver: the installed lambdas hold a reference to it.
void installShareHooks(Solver &S, ClauseExchange &Ex, size_t Id,
                       Var ShareVarLimit) {
  S.setShareHooks(
      [&Ex, Id](const std::vector<Lit> &L, uint32_t Lbd) {
        Ex.publish(Id, L, Lbd);
      },
      [&Ex, Id](std::vector<Lit> &L, uint32_t &Lbd) {
        return Ex.fetch(Id, L, Lbd);
      },
      ShareVarLimit);
}

} // namespace

// --- plain-SAT racing -------------------------------------------------------

SatRaceResult bugassist::racePortfolioSat(const std::vector<Clause> &Clauses,
                                          int NumVars, size_t Threads,
                                          const Solver::Options &Base,
                                          const Solver::Budget &Bud) {
  SatRaceResult Race;
  size_t N = Threads ? Threads : 1;

  ClauseExchange Exchange(N); // declared first: the hooks reference it

  // Load the clauses and run the simplification pass ONCE, on a prototype
  // with the anchor's options, then copy-construct every worker from it.
  // Two birds: the race does not pay N times for loading + preprocessing,
  // and elimination runs before any exchange hooks exist -- with hooks
  // installed, every variable below ShareVarLimit is structurally frozen
  // and bounded variable elimination cannot fire at all. Soundness of
  // sharing afterwards: all workers inherit the same eliminated set and a
  // learnt clause can only mention variables occurring in its worker's
  // clause database, so exchanged clauses never touch an eliminated
  // variable.
  Solver Proto{diversifiedOptions(Base, 0)};
  Proto.ensureVars(NumVars);
  for (const Clause &C : Clauses)
    if (!Proto.addClause(C))
      break; // root-level UNSAT: solve() will report False immediately
  if (!Bud.unlimited())
    Proto.setBudget(Bud); // the pass counts against the query's budget too
  Proto.preprocess();     // self-gated on Options::Preprocess

  std::vector<std::unique_ptr<Solver>> Solvers;
  Solvers.reserve(N);
  for (size_t Id = 0; Id < N; ++Id) {
    auto S = std::make_unique<Solver>(Proto);
    if (Id > 0) {
      S->adoptOptions(diversifiedOptions(Base, Id));
      S->clearStats(); // the shared pass is counted once, on worker 0
    }
    if (N > 1)
      installShareHooks(*S, Exchange, Id, /*ShareVarLimit=*/NumVars);
    if (!Bud.unlimited())
      S->setBudget(Bud);
    Solvers.push_back(std::move(S));
  }

  if (N == 1) {
    Race.Result = Solvers[0]->solve();
    Race.Winner = Race.Result == LBool::Undef ? -1 : 0;
  } else {
    std::mutex RaceM;
    int Winner = -1;
    auto Body = [&](size_t Id) {
      LBool R = LBool::Undef;
      try {
        R = Solvers[Id]->solve();
      } catch (...) {
        // Fault isolation: the crashed worker is retired and the race
        // continues on the survivors. Its solver may be mid-search; only
        // its plain stats counters are read after the join.
        std::lock_guard<std::mutex> G(RaceM);
        ++Race.Faults;
        return;
      }
      std::lock_guard<std::mutex> G(RaceM);
      if (R != LBool::Undef && Winner < 0) {
        Winner = static_cast<int>(Id);
        Race.Result = R;
        for (size_t J = 0; J < N; ++J)
          if (J != Id)
            Solvers[J]->interrupt();
      }
    };
    std::vector<std::thread> Pool;
    Pool.reserve(N);
    for (size_t Id = 0; Id < N; ++Id)
      Pool.emplace_back(Body, Id);
    for (std::thread &T : Pool)
      T.join();
    Race.Winner = Winner;
  }

  // All threads are joined: reading the winner's model is race-free.
  if (Race.Result == LBool::True && Race.Winner >= 0) {
    const Solver &W = *Solvers[static_cast<size_t>(Race.Winner)];
    Race.Model.reserve(static_cast<size_t>(NumVars));
    for (Var V = 0; V < NumVars; ++V)
      Race.Model.push_back(W.modelValue(V));
  }

  for (auto &S : Solvers) {
    S->clearInterrupt();
    Race.PerWorker.push_back(S->stats());
    Race.Aggregate += S->stats();
  }
  return Race;
}

// --- PortfolioSession -------------------------------------------------------

PortfolioSession::PortfolioSession(const MaxSatInstance &Inst, bool Weighted,
                                   size_t Threads, uint64_t ConflictBudget,
                                   const Solver::Options &Base)
    : Inst(Inst), Weighted(Weighted), ConflictBudget(ConflictBudget),
      Base(Base) {
  size_t N = Threads ? Threads : 1;
  Exchange = std::make_unique<ClauseExchange>(N);
  PStats.WinsByWorker.assign(N, 0);
  Retired.assign(N, 0);
  Workers.reserve(N);
  // Worker 0 is built once and preprocessed before any exchange hooks
  // exist (hooks structurally freeze every variable below ShareVarLimit,
  // which would block elimination entirely); the other workers are clones
  // that inherit the shrunken clause database and the reconstruction
  // stack, then re-diversify via adoptOptions. Sharing stays sound: all
  // workers descend from the same preprocessed base, so an exchanged
  // clause can never mention a variable some worker eliminated.
  for (size_t Id = 0; Id < N; ++Id) {
    std::unique_ptr<MaxSatSession> Sess;
    if (Id == 0) {
      // Every worker canonicalizes, so the race winner's diagnosis is the
      // same set any other worker would have reported.
      Sess = makeMaxSatSession(Inst, Weighted, /*Threads=*/1, ConflictBudget,
                               diversifiedOptions(Base, 0));
      Sess->solver().preprocess(); // self-gated on Options::Preprocess
    } else {
      Sess = Workers[0]->clone();
      Sess->solver().adoptOptions(diversifiedOptions(Base, Id));
      Sess->solver().clearStats(); // the shared pass is counted on worker 0
    }
    if (N > 1) {
      // Only clauses over the original variables travel between workers:
      // every session's auxiliary encoding is a conservative extension of
      // the shared hard clauses, so these clauses are implied by the hard
      // clauses alone and sound everywhere.
      installShareHooks(Sess->solver(), *Exchange, Id,
                        /*ShareVarLimit=*/Inst.NumVars);
    }
    Workers.push_back(std::move(Sess));
  }
}

PortfolioSession::~PortfolioSession() = default;

void PortfolioSession::respawnRetired() {
  for (size_t Id = 0; Id < Workers.size(); ++Id) {
    if (!Retired[Id])
      continue;
    // A retired worker cannot be rebuilt as a clone: clone() is only
    // valid on never-solved sessions, and worker 0 (or its replacement)
    // has solved. Rebuild from the stored instance instead, then replay
    // every addHardClause broadcast so the replacement optimizes exactly
    // the formula the survivors hold.
    std::unique_ptr<MaxSatSession> Sess =
        makeMaxSatSession(Inst, Weighted, /*Threads=*/1, ConflictBudget,
                          diversifiedOptions(Base, Id));
    if (Workers.size() > 1) {
      // Hooks go in *before* any solving and the replacement never runs
      // its own preprocess: with hooks installed every variable below
      // ShareVarLimit is structurally frozen, and an independent
      // elimination pass would give this worker a different eliminated
      // set than the clone family descended from worker 0. Sharing stays
      // sound without one: exchanged clauses are implied by the hard
      // clauses alone, and a survivor importing a replacement's clause
      // over a variable *it* eliminated drops it defensively
      // (Solver::addImportedClause).
      installShareHooks(Sess->solver(), *Exchange, Id,
                        /*ShareVarLimit=*/Inst.NumVars);
    } else {
      Sess->solver().preprocess(); // single worker: no sharing to respect
    }
    for (const Clause &C : AddedHard)
      Sess->addHardClause(C);
    if (CurBudget)
      Sess->setBudget(*CurBudget);
    Workers[Id] = std::move(Sess);
    Retired[Id] = 0;
    ++PStats.WorkerRespawns;
  }
}

MaxSatResult PortfolioSession::solve() {
  respawnRetired();
  MaxSatResult Winning;
  if (Workers.size() == 1) {
    Winning = Workers[0]->solve();
    PStats.LastWinner = Winning.Status == MaxSatStatus::Unknown ? -1 : 0;
    if (PStats.LastWinner == 0)
      ++PStats.WinsByWorker[0];
  } else {
    for (size_t Id = 0; Id < Workers.size(); ++Id)
      if (!Retired[Id])
        Workers[Id]->solver().clearInterrupt();

    std::mutex RaceM;
    int Winner = -1;
    // Per-worker round results, kept so the bounds of every survivor can
    // be merged deterministically when nobody decides.
    std::vector<MaxSatResult> Round(Workers.size());
    std::vector<char> HaveResult(Workers.size(), 0);
    auto Body = [&](size_t Id) {
      MaxSatResult R;
      try {
        R = Workers[Id]->solve();
      } catch (...) {
        // Fault isolation: an escaped exception (std::bad_alloc, an
        // injected fault) retires this worker permanently -- its engine
        // state is indeterminate mid-solve -- and the race continues on
        // the survivors.
        std::lock_guard<std::mutex> G(RaceM);
        Retired[Id] = 1;
        ++PStats.WorkerFaults;
        return;
      }
      std::lock_guard<std::mutex> G(RaceM);
      // First *fully decided* answer wins; anyone interrupted after this
      // point returns Unknown and is discarded, so a stale (pre-interrupt)
      // decided result can never leak out of a loser. A budget-truncated
      // canonicalization never wins either -- which worker ran out of
      // budget mid-canonicalization is timing-dependent, and letting it
      // win would make the reported diagnosis timing-dependent too.
      if (R.Status != MaxSatStatus::Unknown && !R.CanonicalTruncated &&
          Winner < 0) {
        Winner = static_cast<int>(Id);
        Winning = std::move(R);
        for (size_t J = 0; J < Workers.size(); ++J)
          if (J != Id && !Retired[J])
            Workers[J]->solver().interrupt();
      } else {
        Round[Id] = std::move(R);
        HaveResult[Id] = 1;
      }
    };
    std::vector<std::thread> Pool;
    Pool.reserve(Workers.size());
    for (size_t Id = 0; Id < Workers.size(); ++Id)
      if (!Retired[Id])
        Pool.emplace_back(Body, Id);
    for (std::thread &T : Pool)
      T.join();

    for (size_t Id = 0; Id < Workers.size(); ++Id)
      if (!Retired[Id])
        Workers[Id]->solver().clearInterrupt();
    PStats.LastWinner = Winner;
    if (Winner >= 0) {
      ++PStats.WinsByWorker[static_cast<size_t>(Winner)];
    } else {
      // Nobody decided (every survivor truncated or exhausted its budget,
      // or crashed). Fall back to the lowest-id survivor with a decided
      // (necessarily truncated-canonicalization) answer -- a proven
      // optimum beats any Unknown; otherwise merge the survivors' anytime
      // bounds: tightest proven lower bound, cheapest witnessed upper
      // bound, the witness taken from the lowest-id worker attaining it
      // so ties break deterministically.
      bool Decided = false;
      for (size_t Id = 0; Id < Workers.size() && !Decided; ++Id)
        if (HaveResult[Id] && Round[Id].decided()) {
          Winning = std::move(Round[Id]);
          Decided = true;
        }
      if (!Decided) {
        for (size_t Id = 0; Id < Workers.size(); ++Id) {
          if (!HaveResult[Id])
            continue;
          const MaxSatResult &R = Round[Id];
          Winning.LowerBound = std::max(Winning.LowerBound, R.LowerBound);
          if (R.UpperBound < Winning.UpperBound) {
            Winning.UpperBound = R.UpperBound;
            Winning.BestModel = R.BestModel;
          }
          Winning.SatCalls += R.SatCalls;
        }
      }
    }
  }
  PStats.ClausesPublished = Exchange->published();
  PStats.ClausesDropped = Exchange->dropped();
  Winning.Search = stats(); // surface the whole fleet's work
  return Winning;
}

bool PortfolioSession::addHardClause(const Clause &C) {
  // Recorded before broadcasting: a worker respawned later must replay
  // every clause the survivors received, including this one.
  AddedHard.push_back(C);
  bool Ok = true;
  for (size_t Id = 0; Id < Workers.size(); ++Id)
    if (!Retired[Id])
      Ok = Workers[Id]->addHardClause(C) && Ok;
  return Ok;
}

const SolverStats &PortfolioSession::stats() const {
  // Retired workers are included: their counters record real work done
  // before the crash and are plain structs, safe to read after the join.
  Agg = SolverStats{};
  for (const auto &W : Workers)
    Agg += W->stats();
  return Agg;
}

Solver &PortfolioSession::solver() { return Workers[0]->solver(); }

void PortfolioSession::setBudget(const Solver::Budget &B) {
  CurBudget = B; // respawns inherit the budget in force
  for (size_t Id = 0; Id < Workers.size(); ++Id)
    if (!Retired[Id])
      Workers[Id]->setBudget(B);
}

void PortfolioSession::clearBudget() {
  CurBudget.reset();
  for (size_t Id = 0; Id < Workers.size(); ++Id)
    if (!Retired[Id])
      Workers[Id]->clearBudget();
}

size_t PortfolioSession::aliveWorkers() const {
  size_t N = 0;
  for (char R : Retired)
    N += R == 0;
  return N;
}

std::unique_ptr<MaxSatSession>
bugassist::makeMaxSatSession(const MaxSatInstance &Inst, bool Weighted,
                             size_t Threads, uint64_t ConflictBudget,
                             const Solver::Options &SolverOpts) {
  if (Threads > 1)
    return std::make_unique<PortfolioSession>(Inst, Weighted, Threads,
                                              ConflictBudget, SolverOpts);
  if (Weighted)
    return makeLinearSession(Inst, ConflictBudget, SolverOpts);
  return makeFuMalikSession(Inst, ConflictBudget, SolverOpts,
                            /*Canonical=*/true);
}
