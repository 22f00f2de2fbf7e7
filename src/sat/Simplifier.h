//===- Simplifier.h - SatELite-style inprocessing ---------------*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Clause-database simplification in the SatELite lineage (Een & Biere,
/// "Effective Preprocessing in SAT through Variable and Clause
/// Elimination", SAT'05), run as *inprocessing*: once when the solver first
/// solves and again at restart boundaries, so clauses learned or imported
/// between passes also feed the next pass's occurrence lists.
///
/// Three transformations, all satisfiability-preserving:
///
///  * **Backward subsumption** -- a clause C subsumes every clause D with
///    C (subseteq) D; D is removed. Candidates come from per-variable
///    occurrence lists over the arena, prefiltered by a 64-bit signature
///    (a Bloom bit per variable: C can only subsume D if
///    `Sig(C) & ~Sig(D) == 0`).
///
///  * **Self-subsuming resolution** -- if C = C' \/ l and D (supseteq)
///    C' \/ ~l, the resolvent on l strengthens D to D \ {~l}. Detected by
///    the same backward check (match all of C's literals in D, allowing
///    exactly one to match negated).
///
///  * **Bounded variable elimination** -- an unassigned, unfrozen variable
///    v is eliminated by replacing the clauses containing v with all
///    non-tautological resolvents on v, when that does not grow the clause
///    count (and no resolvent exceeds a size cap). One occurrence side plus
///    a default unit go to the solver's reconstruction stack so
///    Solver::extendModel can restore v's value in any model of the
///    reduced formula (MiniSAT's elimclauses scheme).
///
/// The frozen-variable contract (Solver::setFrozen) is what makes this
/// sound *incrementally*: elimination is equisatisfiable, not equivalent,
/// so variables the outside world will still talk about -- assumptions,
/// soft-clause guards and relaxation selectors, PB-counter outputs, the
/// clause-exchange original-variable prefix -- must never be eliminated.
/// Violations upstream surface as std::logic_error from the Solver, not as
/// wrong answers. Learnt clauses mentioning an eliminated variable are
/// swept after the pass (they are implied lemmas; dropping them is always
/// sound), so the LBD tiers never hold a clause over a ghost variable and
/// the relocating GC reclaims the eliminated originals like any other
/// freed clause.
///
/// A Simplifier is a transient: constructed on a Solver at decision level
/// 0, run once, discarded. It honours the solver's cooperative interrupt
/// and resource Budget (a pass aborted mid-way leaves the database in a
/// consistent state -- every individual rewrite commits atomically).
/// Clauses it removes are detached lazily (Solver::removeClause); a pass
/// ends by cleaning every dirty watch list and releasing the lists it left
/// empty (those of eliminated variables), so a preprocessed base session
/// that serve mode caches and clones carries no freed watchers and no
/// dead capacity.
/// Strengthening is the exception and detaches strictly (see
/// Solver::detachClause).
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_SAT_SIMPLIFIER_H
#define BUGASSIST_SAT_SIMPLIFIER_H

#include "cnf/Lit.h"

#include <cstdint>
#include <vector>

namespace bugassist {

class Solver;

class Simplifier {
public:
  /// Effort caps. The defaults keep a pass linear-ish in formula size;
  /// Solver::eliminateVar lifts them for targeted test eliminations.
  struct Limits {
    uint32_t MaxOccurrences = 400; ///< skip BVE on vars occurring more often
    uint32_t MaxResolventSize = 24; ///< never create longer resolvents
    uint32_t MaxClauseSize = 64; ///< longer clauses neither subsume nor resolve
    int MaxRounds = 3; ///< subsumption+BVE alternations per pass
  };

  explicit Simplifier(Solver &S) : S(S) {}

  /// Runs one full pass (subsumption fixpoint and BVE sweep, alternated
  /// until quiescent or the round cap). \returns Solver::okay().
  bool run(const Limits &L);
  bool run(); // default Limits (separate overload: Limits is incomplete here)

  /// Eliminates exactly \p V. With \p Forced, the growth bounds are
  /// ignored and eliminating a frozen variable throws std::logic_error
  /// (without it, frozen/assigned variables are silently skipped).
  /// \returns true if \p V is eliminated on exit.
  bool eliminateOne(Var V, bool Forced);

private:
  using ClauseRef = int32_t;

  /// One problem clause under consideration. Sig/Size are maintained
  /// eagerly on strengthening; Dead marks clauses removed mid-pass (their
  /// occurrence-list entries go stale and are skipped lazily).
  struct Entry {
    ClauseRef CR;
    uint64_t Sig;
    uint32_t Size;
    bool Dead;
  };

  Solver &S;
  Limits Lim;
  std::vector<Entry> Cs;
  std::vector<std::vector<int>> Occ; // var -> indices into Cs (stale-tolerant)
  std::vector<int> Queue;            // entry indices pending backward checks
  size_t QueueHead = 0;
  std::vector<char> InQueue;
  std::vector<Lit> Scratch; // resolvent / stored-clause assembly buffer
  // Variables assumed by the in-flight solve() are frozen for this pass
  // only (the assumptions of *future* solves must be frozen by the caller).
  std::vector<char> TempFrozen;
  bool AbortLatch = false; // sticky interrupt/budget trip for this pass

  bool prepare();            // root propagate + simplify + collect entries
  void collect();            // build Cs/Occ/Queue from the problem clauses
  uint64_t signatureOf(ClauseRef CR) const;
  bool aborted();            // interrupt / budget poll (amortized)
  bool varTouchable(Var V) const; // unassigned, unfrozen, not eliminated
  bool entrySatisfied(int EI);    // root-satisfied? (marks Dead, removes)
  void enqueue(int EI);

  /// Subsumption fixpoint over Queue. \returns number of database changes.
  uint64_t subsumptionFixpoint();
  /// Backward check of entry \p EI against its occurrence candidates.
  uint64_t backwardCheck(int EI);
  /// Does Cs[CI] subsume Cs[DI] (Flip = NullLit), or strengthen it by
  /// removing ~Flip (exactly one literal matched negated)?
  bool subsumeOrStrengthen(int CI, int DI, Lit &Flip);
  /// Applies self-subsuming resolution: removes \p L from entry \p EI.
  void strengthenEntry(int EI, Lit L);

  /// One left-to-right BVE sweep over all variables. \returns eliminations.
  uint64_t bveSweep();
  bool tryEliminate(Var V, bool Forced);
  /// Builds the resolvent of Cs[PI] and Cs[NI] on \p V into Scratch.
  /// \returns false if tautological or root-satisfied (skip it).
  bool resolve(int PI, int NI, Var V);
  /// Installs a committed resolvent as a new problem clause + entry.
  void addResolvent(const std::vector<Lit> &Lits);
  /// Pushes one side's clauses + the default unit for \p V (see
  /// Solver::ElimStack layout).
  void pushReconstruction(Var V, const std::vector<int> &StoredSide,
                          Lit Default);

  /// Drops learnt clauses that mention an eliminated variable.
  void sweepLearnts();
  /// Ends a pass: frees the occurrence lists, cleans the solver's watch
  /// lists and releases the empty ones, and collects the arena if due.
  void finish();
};

} // namespace bugassist

#endif // BUGASSIST_SAT_SIMPLIFIER_H
