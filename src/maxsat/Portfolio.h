//===- Portfolio.h - Parallel portfolio MaxSAT / SAT -----------*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A multi-threaded portfolio in the ManySAT / Glucose-syrup tradition:
/// N diversified solvers race on the same problem, the first answer wins,
/// the losers are cancelled cooperatively (Solver::interrupt), and workers
/// share low-LBD learnt clauses through a bounded exchange buffer.
///
/// Two entry points:
///
///  * PortfolioSession races N *persistent* incremental MaxSAT sessions
///    (Fu-Malik or linear search) behind the ordinary MaxSatSession
///    interface, so Algorithm 1's CoMSS enumeration parallelizes without
///    touching engine logic. Each worker keeps its own solver alive across
///    relaxation rounds and blocking clauses, preserving the PR 1
///    incrementality; clause sharing is restricted to the original
///    variable prefix (every session's auxiliary encoding -- guards,
///    relaxation selectors, counter internals -- is a conservative
///    extension of the shared hard clauses, so a learnt clause over
///    original variables is implied by the hard clauses alone and sound in
///    every worker). Results are deterministic at every thread count:
///    workers canonicalize their optima (Canonical.h), so whichever worker
///    wins reports the same cost and the same falsified-soft set.
///
///  * racePortfolioSat races plain solvers on one CNF formula -- the
///    conflict-heavy SAT benchmark path.
///
/// Diversification follows a fixed recipe (diversifiedOptions): worker 0
/// is always the unmodified base configuration, the others vary the
/// restart policy (Luby fast/slow vs. dual-EMA aggressive/conservative),
/// the retention policy (LBD tiers vs. activity halving), initial phase,
/// random-branch frequency, and RNG seed.
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_MAXSAT_PORTFOLIO_H
#define BUGASSIST_MAXSAT_PORTFOLIO_H

#include "maxsat/MaxSat.h"

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

namespace bugassist {

/// Thread-safe bounded buffer of shared learnt clauses. Workers publish
/// low-LBD learnts; every *other* worker fetches each entry exactly once
/// (per-worker cursors over a monotone sequence). The buffer is a bounded
/// FIFO: when full, the oldest entries are dropped -- a slow consumer loses
/// old glue clauses instead of stalling the producers.
///
/// Invariants:
///  * Every published entry carries a monotonically increasing sequence
///    number; a worker's cursor only moves forward, so no clause is ever
///    delivered twice to the same worker and a worker never sees its own
///    publications (entries record their Source).
///  * Dropping only evicts from the front (the oldest sequence numbers);
///    a cursor lagging behind the new front is clamped forward at its
///    next fetch and the loss is counted in dropped(). Delivery is
///    therefore at-most-once, never out of order.
///  * Soundness of what flows through here is the *publisher's* burden:
///    portfolio sessions only export clauses over the original-variable
///    prefix (Solver::setShareHooks ShareVarLimit), which are implied by
///    the shared hard clauses alone -- see the file comment. The exchange
///    itself never inspects clause contents.
///  * All methods are safe to call concurrently from any thread; each
///    takes one short critical section (no allocation while locked beyond
///    the entry copy).
class ClauseExchange {
public:
  explicit ClauseExchange(size_t NumWorkers, size_t Capacity = 4096);

  /// Publishes one clause from \p Worker (not delivered back to it).
  void publish(size_t Worker, const std::vector<Lit> &Lits, uint32_t Lbd);

  /// Pulls the next unseen foreign clause for \p Worker. \returns false
  /// when the worker is fully caught up. Matches Solver::ImportFn.
  bool fetch(size_t Worker, std::vector<Lit> &Lits, uint32_t &Lbd);

  uint64_t published() const;
  uint64_t dropped() const;

private:
  struct Entry {
    std::vector<Lit> Lits;
    uint32_t Lbd;
    size_t Source;
  };

  mutable std::mutex M;
  std::deque<Entry> Buf;
  uint64_t BaseSeq = 0; ///< sequence number of Buf.front()
  std::vector<uint64_t> Cursor; ///< per-worker next sequence to read
  uint64_t Published = 0;
  uint64_t Dropped = 0;
  size_t Capacity;
};

/// The deterministic diversification recipe: worker 0 is the unmodified
/// \p Base (the portfolio's anchor -- a one-worker portfolio behaves
/// exactly like the plain session), workers 1+ permute restart policy,
/// retention policy, initial phase, and random-branch frequency, each
/// under its own RNG seed. Cycles with period 8.
Solver::Options diversifiedOptions(const Solver::Options &Base,
                                   size_t WorkerId);

/// Outcome of one raced plain-SAT solve.
struct SatRaceResult {
  LBool Result = LBool::Undef;
  int Winner = -1; ///< worker that produced the decision (-1: none)
  /// The winning worker's model over the original variables [0, NumVars);
  /// empty unless Result is True.
  std::vector<LBool> Model;
  SolverStats Aggregate; ///< summed over all workers (incl. export/import)
  std::vector<SolverStats> PerWorker;
  /// Workers whose thread died on an escaped exception (fault-isolated;
  /// the race continued on the survivors).
  uint64_t Faults = 0;
};

/// Races \p Threads diversified solvers over \p Clauses; first decision
/// wins and interrupts the rest. With Threads <= 1 this degenerates to a
/// plain single solver on the calling thread. A non-unlimited \p Bud is
/// installed on every worker; when all survivors exhaust it the race
/// returns Undef instead of running forever. A worker thread that dies on
/// an exception (std::bad_alloc, an injected fault) is retired and counted
/// in SatRaceResult::Faults; the race continues on the rest.
SatRaceResult
racePortfolioSat(const std::vector<Clause> &Clauses, int NumVars,
                 size_t Threads,
                 const Solver::Options &Base = Solver::Options(),
                 const Solver::Budget &Bud = Solver::Budget());

/// Aggregate view of a portfolio race, refreshed after every solve().
struct PortfolioStats {
  std::vector<uint64_t> WinsByWorker;
  int LastWinner = -1;
  uint64_t ClausesPublished = 0; ///< entries accepted by the exchange
  uint64_t ClausesDropped = 0;   ///< entries evicted before full delivery
  /// Workers retired after an exception escaped their solve() (fault
  /// isolation; the round continues on the survivors).
  uint64_t WorkerFaults = 0;
  /// Retired workers rebuilt at a later solve(): the pool self-heals
  /// between rounds, so a transient fault costs one round of parallelism,
  /// not the session's lifetime.
  uint64_t WorkerRespawns = 0;
};

/// N racing persistent MaxSAT sessions behind the MaxSatSession interface.
///
/// Threading contract: solve() spawns one thread per worker and joins all
/// of them before returning, so *between* calls the portfolio is plain
/// single-threaded state -- addHardClause, stats, and portfolioStats must
/// only be used between solves (the MaxSatSession one-caller rule).
/// Because addHardClause broadcasts to every worker before any further
/// solve, all workers always optimize the same formula; an interrupted
/// loser resumes from consistent engine state on the next round rather
/// than restarting.
class PortfolioSession final : public MaxSatSession {
public:
  /// \p Threads workers race each solve(); \p Base seeds the
  /// diversification recipe. Engine choice and budget match
  /// makeMaxSatSession, which builds this class whenever Threads > 1.
  /// Workers canonicalize their optima, so results are identical to the
  /// single-threaded canonical session at every thread count.
  PortfolioSession(const MaxSatInstance &Inst, bool Weighted, size_t Threads,
                   uint64_t ConflictBudget = 0,
                   const Solver::Options &Base = Solver::Options());
  ~PortfolioSession() override;

  /// Races all workers; the first Optimum/HardUnsat answer wins and the
  /// losers are interrupted (their sessions stay consistent and resume on
  /// the next round). Result::Search carries the aggregated stats.
  ///
  /// Self-healing: workers retired by a crash in an earlier round are
  /// rebuilt first -- a fresh session over the stored instance plus every
  /// addHardClause broadcast so far, under the same diversified options
  /// and the current budget -- so the race always starts at full width
  /// (portfolioStats().WorkerRespawns counts the rebuilds). A worker that
  /// crashes *this* round is raced without only for the remainder of the
  /// round.
  MaxSatResult solve() override;

  /// Broadcasts the clause (Algorithm 1's beta) to every worker.
  bool addHardClause(const Clause &C) override;

  /// Summed SolverStats over all workers, including clause-exchange
  /// counters (ClausesExported / ClausesImported).
  const SolverStats &stats() const override;

  /// The anchor worker's solver (worker 0 runs the base configuration).
  Solver &solver() override;

  /// Installs the budget on every surviving worker, and records it so a
  /// later respawn starts under the same budget (retired workers are left
  /// alone until they are rebuilt).
  void setBudget(const Solver::Budget &B) override;
  void clearBudget() override;

  size_t workers() const { return Workers.size(); }
  /// Workers currently in the race. A worker whose solve() let an
  /// exception escape sits out until the next solve() rebuilds it.
  size_t aliveWorkers() const;
  bool workerRetired(size_t Id) const { return Retired[Id] != 0; }
  const PortfolioStats &portfolioStats() const { return PStats; }

private:
  /// Rebuilds every retired worker from the stored instance (hooks before
  /// any solving, no independent preprocess -- see the .cpp comment).
  void respawnRetired();

  std::unique_ptr<ClauseExchange> Exchange; // outlives the workers below
  std::vector<std::unique_ptr<MaxSatSession>> Workers;
  std::vector<char> Retired; ///< 1 = crashed, sitting out until respawned
  PortfolioStats PStats;
  mutable SolverStats Agg;

  // Everything a respawn needs to rebuild a worker equivalent to the
  // survivors' formula: the construction inputs, the addHardClause
  // broadcasts so far, and the budget currently installed.
  MaxSatInstance Inst;
  bool Weighted;
  uint64_t ConflictBudget;
  Solver::Options Base;
  std::vector<Clause> AddedHard;
  std::optional<Solver::Budget> CurBudget;
};

} // namespace bugassist

#endif // BUGASSIST_MAXSAT_PORTFOLIO_H
