//===- Solver.h - CDCL SAT solver -------------------------------*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A conflict-driven clause-learning SAT solver in the MiniSAT lineage
/// (Een & Sorensson), built from scratch as the substrate the paper's
/// pipeline rests on: CBMC-style trace formulas are decided here, and the
/// MaxSAT layer drives it through the *assumptions* interface, harvesting
/// unsatisfiable cores over assumption literals (analyzeFinal) exactly the
/// way MSUnCORE does.
///
/// Features: two-watched-literal propagation, first-UIP learning with local
/// clause minimization, VSIDS variable activities with a binary heap, phase
/// saving, and incremental solving under assumptions with core extraction.
///
/// Learned-clause management is Glucose-style (Audemard & Simon, IJCAI'09):
/// every learnt clause carries its Literal Block Distance -- the number of
/// distinct decision levels among its literals -- computed at learn time and
/// tightened whenever the clause serves as a reason in conflict analysis.
/// Retention is three-tiered: *core* clauses (LBD <= CoreLbdCut, and all
/// binaries) are kept forever, *mid* clauses age out when they stop
/// participating in conflicts, and the *local* tier is rotated aggressively
/// by LBD-then-activity. Restarts follow glucose's dual-EMA scheme: a fast
/// EMA of recent learnt LBDs against the lifetime average triggers a
/// restart when the search degrades, and a trail-size EMA *blocks* pending
/// restarts when the assignment is unusually deep (the solver is probably
/// closing in on a model -- crucial for the SAT-heavy linear-search phase of
/// MaxSAT). Both policies are selectable through Solver::Options; the
/// seed's Luby restarts + activity-halving deletion remain available so the
/// rebuild-per-round reference engines and differential tests can pin the
/// original behavior.
///
/// The solver is designed to stay alive across many solve() calls: clauses
/// can be added between calls, learned clauses / VSIDS activity / saved
/// phases persist, and retired selector variables can be released
/// (releaseVar) so long-running incremental MaxSAT sessions do not bloat
/// the decision heap. Clause literals live in a flat arena (MiniSAT-style
/// ClauseAllocator: header + activity + LBD words with inline literals,
/// addressed by a 32-bit ClauseRef), so propagation walks contiguous memory
/// and deleted clauses are reclaimed by relocating garbage collection.
/// Binary clauses are watched in dedicated lists whose Watcher carries the
/// whole clause (the Blocker is the other literal), so the propagation fast
/// path over them never touches the arena.
///
/// Clause removal is O(1) amortized (MiniSAT's OccLists smudge/clean):
/// removeClause marks the clause freed and flags the watch lists of its
/// two watched literals dirty, without scanning them. Invariant: a freed
/// clause may still sit in a dirty watch list until the first propagate()
/// or garbageCollect() that touches the list drops its freed watchers in
/// one order-preserving pass (or until the dirty backlog grows past an
/// eighth of all lists and every dirty list is cleaned at once); a clean
/// list holds live clauses only. Every simplifier pass ends with all lists
/// clean and the lists it emptied released.
///
/// For portfolio solving (maxsat/Portfolio.h) the solver additionally
/// supports cooperative cancellation -- interrupt() raises an atomic flag
/// polled once per search-loop iteration -- and glucose-syrup-style learnt
/// sharing: export/import hooks push low-LBD learnts over a shared variable
/// prefix into an exchange buffer and inject foreign clauses at restart
/// boundaries. Diversification knobs (RNG seed, random-branch frequency,
/// initial phase, plus the restart/retention policy mix) live in Options.
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_SAT_SOLVER_H
#define BUGASSIST_SAT_SOLVER_H

#include "cnf/Lit.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace bugassist {

class CnfFormula;

/// Aggregate statistics for solver-behaviour benches and tests.
struct SolverStats {
  uint64_t Conflicts = 0;
  uint64_t Decisions = 0;
  uint64_t Propagations = 0;
  uint64_t Restarts = 0;
  uint64_t RestartsBlocked = 0; ///< restarts suppressed by the trail EMA
  uint64_t LearnedClauses = 0;
  /// Learnt clauses dropped again: by reduceDB, by the ghost-learnt sweep
  /// after elimination, or as root-satisfied lemmas.
  uint64_t DeletedLearnts = 0;
  uint64_t GcRuns = 0;
  uint64_t LbdSum = 0;   ///< sum of learn-time LBDs over all conflicts
  uint64_t LbdCount = 0; ///< conflicts that recorded an LBD (incl. units)
  uint64_t LbdTightened = 0; ///< reason-clause LBDs improved during analysis
  // Portfolio clause exchange (0 unless share hooks are installed).
  uint64_t ClausesExported = 0; ///< learnts pushed through the export hook
  uint64_t ClausesImported = 0; ///< foreign clauses injected at restarts
  // Live tier gauges (LbdTiers retention; seed policy reports all as Local).
  uint64_t CoreLearnts = 0;
  uint64_t MidLearnts = 0;
  uint64_t LocalLearnts = 0;
  // Inprocessing (sat/Simplifier.h; all 0 when preprocessing is off).
  uint64_t VarsEliminated = 0;   ///< variables removed by bounded elimination
  uint64_t ClausesSubsumed = 0;  ///< clauses removed by backward subsumption
  uint64_t LitsSelfSubsumed = 0; ///< literals removed by self-subsumption
  /// Original (problem) clauses removed from the database for any reason:
  /// root-satisfied, subsumed, or replaced by resolvents during
  /// elimination. Counted whether or not preprocessing is on, since
  /// root-level simplification removes satisfied clauses either way.
  uint64_t ClausesRemoved = 0;
  /// Size of the model-reconstruction stack in bytes (a gauge, like the
  /// tier counts: it only grows while variables stay eliminated).
  uint64_t ReconstructBytes = 0;

  /// Average learn-time LBD per conflict (unit learnts count with LBD 1),
  /// glucose's "average LBD" signal.
  double avgLearntLbd() const {
    return LbdCount
               ? static_cast<double>(LbdSum) / static_cast<double>(LbdCount)
               : 0.0;
  }

  /// Field-complete summation, kept next to the field list so a new
  /// counter cannot silently go missing from portfolio aggregates. (The
  /// tier gauges are instantaneous counts; summing them reads as the
  /// fleet-wide live-clause population.)
  SolverStats &operator+=(const SolverStats &O) {
    Conflicts += O.Conflicts;
    Decisions += O.Decisions;
    Propagations += O.Propagations;
    Restarts += O.Restarts;
    RestartsBlocked += O.RestartsBlocked;
    LearnedClauses += O.LearnedClauses;
    DeletedLearnts += O.DeletedLearnts;
    GcRuns += O.GcRuns;
    LbdSum += O.LbdSum;
    LbdCount += O.LbdCount;
    LbdTightened += O.LbdTightened;
    ClausesExported += O.ClausesExported;
    ClausesImported += O.ClausesImported;
    CoreLearnts += O.CoreLearnts;
    MidLearnts += O.MidLearnts;
    LocalLearnts += O.LocalLearnts;
    VarsEliminated += O.VarsEliminated;
    ClausesSubsumed += O.ClausesSubsumed;
    LitsSelfSubsumed += O.LitsSelfSubsumed;
    ClausesRemoved += O.ClausesRemoved;
    ReconstructBytes += O.ReconstructBytes;
    return *this;
  }
};

/// CDCL solver. Typical interactive use:
/// \code
///   Solver S;
///   S.ensureVars(F.numVars());
///   for (const Clause &C : F.hardClauses()) S.addClause(C);
///   LBool R = S.solve({assumption1, ~assumption2});
///   if (R == LBool::False) auto &Core = S.conflictCore();
/// \endcode
class Solver {
public:
  /// Search-policy knobs. Defaults are the Glucose-style policies; seed()
  /// pins the original Luby + activity-halving behavior for the reference
  /// engines and differential tests.
  ///
  /// Orientation for tuners:
  ///  * Restart/Retention select the *policies*; the grouped scalars below
  ///    them only apply to the selected policy.
  ///  * The EMA restart scalars trade restart frequency against model
  ///    finding: a lower RestartMargin restarts more eagerly (good on
  ///    UNSAT-heavy refutations), a lower BlockMargin blocks restarts
  ///    sooner when the trail grows (good for the SAT-heavy linear-search
  ///    phase of MaxSAT).
  ///  * The LBD tier cuts trade memory against re-learning: raising
  ///    CoreLbdCut keeps more clauses forever; raising MidMaxAge gives
  ///    mid-tier clauses more reductions to prove themselves.
  ///  * The diversification knobs (RandSeed / RandomBranchFreq /
  ///    InitPhase) exist so portfolio workers explore different parts of
  ///    the search space; diversifiedOptions (maxsat/Portfolio.h) is the
  ///    fixed 8-way recipe over them and is the intended way to set them.
  ///  * The share knobs only matter once setShareHooks installed an
  ///    exchange; ShareLbdMax = 2 exports "glue" clauses only, which is
  ///    the Glucose-syrup sweet spot between traffic and usefulness.
  struct Options {
    enum class RestartPolicy : uint8_t {
      Luby,      ///< fixed Luby sequence scaled by LubyUnit (seed behavior)
      GlucoseEma ///< dual-EMA LBD trigger with trail-size blocking
    };
    enum class RetentionPolicy : uint8_t {
      ActivityHalving, ///< drop the lowest-activity half (seed behavior)
      LbdTiers         ///< core/mid/local tiers keyed by LBD
    };
    enum class PhaseInit : uint8_t {
      False, ///< MiniSAT default: fresh variables start negative
      True,  ///< fresh variables start positive
      Random ///< fresh variables draw their phase from the solver RNG
    };

    RestartPolicy Restart = RestartPolicy::GlucoseEma;
    RetentionPolicy Retention = RetentionPolicy::LbdTiers;

    // -- portfolio diversification ----
    uint64_t RandSeed = 0x1234567890abcdefull; ///< decision/phase RNG seed
    double RandomBranchFreq = 0.02; ///< fraction of random decisions [0, 1]
    PhaseInit InitPhase = PhaseInit::False; ///< saved phase of fresh vars

    // -- learnt-clause sharing (only consulted once hooks are set) ----
    uint32_t ShareLbdMax = 2;   ///< export learnts with LBD <= this
    uint32_t ShareMaxSize = 32; ///< never export clauses longer than this

    // -- Luby restarts ----
    uint64_t LubyUnit = 100; ///< conflicts per Luby step

    // -- Glucose EMA restarts ----
    double FastLbdAlpha = 1.0 / 32;  ///< EMA weight of the recent-LBD signal
    double RestartMargin = 1.25;     ///< restart when fast > margin * lifetime
    uint64_t RestartMinConflicts = 50; ///< warmup conflicts after each restart
    double TrailAlpha = 1.0 / 256;   ///< EMA weight of the trail-size signal
    double BlockMargin = 1.4;        ///< block when trail > margin * trail EMA
    uint64_t BlockMinConflicts = 100; ///< conflicts before blocking can fire

    // -- LBD tier retention ----
    uint32_t CoreLbdCut = 3; ///< LBD <= cut (or binary) => kept forever
    uint32_t MidLbdCut = 6;  ///< LBD <= cut => mid tier, aged by usage
    uint32_t MidMaxAge = 2;  ///< reductions a mid clause may sit unused

    // -- shared ----
    double MaxLearntsBase = 1000.0; ///< floor of the first reduceDB trigger

    // -- inprocessing (sat/Simplifier.h) ----
    /// Run SatELite-style simplification (bounded variable elimination +
    /// subsumption + self-subsuming resolution) once at the first solve()
    /// and again at restart boundaries. Variables that outside code will
    /// assume, release, or share must be frozen first (setFrozen); the
    /// MaxSAT sessions register their control variables automatically.
    bool Preprocess = true;
    /// Conflicts between inprocessing passes at restart boundaries
    /// (0 = preprocess at load only).
    uint64_t InprocessIntervalConflicts = 20000;
    /// Skip the pass while the problem has fewer clauses than this: on a
    /// handful-of-clauses formula even building the occurrence lists
    /// costs more than simplification can ever recover. Tests that probe
    /// the pass on tiny hand-built formulas set it to 0.
    size_t PreprocessMinClauses = 16;

    /// The seed solver's policies: Luby restarts, activity-halving deletion,
    /// no preprocessing (the reference engines model the original solver).
    static Options seed() {
      Options O;
      O.Restart = RestartPolicy::Luby;
      O.Retention = RetentionPolicy::ActivityHalving;
      O.Preprocess = false;
      return O;
    }
  };

  Solver() : Solver(Options()) {}
  explicit Solver(const Options &O);

  /// Solvers are copyable *between* solve() calls (root level): the copy
  /// gets an independent arena, watch lists, learnt tiers, activities,
  /// saved phases, budget, and share hooks, and continues exactly where
  /// the original stood. This is the substrate of serve-mode session
  /// cloning (maxsat/MaxSat.h `MaxSatSession::clone`): one base solver is
  /// loaded with the shared hard clauses once and copied per query, which
  /// is a flat memcpy of the arena instead of per-clause re-simplification.
  /// Copying a solver whose solve() is in flight is undefined; a pending
  /// interrupt() is snapshotted as a plain value (interrupting the original
  /// never cancels the copy).
  Solver(const Solver &) = default;
  Solver &operator=(const Solver &) = default;

  const Options &options() const { return Opts; }

  /// Allocates a fresh variable and returns it.
  Var newVar();

  /// Ensures variables [0, N) all exist.
  void ensureVars(int N);

  int numVars() const { return static_cast<int>(Assigns.size()); }

  /// Adds a clause; performs level-0 simplification (in a reused buffer,
  /// so adding allocates nothing beyond the arena). \returns false if the
  /// solver became trivially UNSAT (empty clause / conflicting units).
  bool addClause(const Clause &C);

  /// Loads every hard clause of \p F (also allocating its variables).
  bool addFormula(const CnfFormula &F);

  /// Retires a variable from an incremental session: fixes \p L at the root
  /// level (so every clause mentioning it simplifies away or shrinks) and
  /// permanently removes the variable from branching. The MaxSAT layer
  /// calls this with ~A when assumption guard A is superseded, satisfying
  /// the stale guarded clause copy trivially without bloating the decision
  /// heap with dead selectors. \returns false if the solver became UNSAT.
  bool releaseVar(Lit L);

  /// \returns false once the clause database is known UNSAT regardless of
  /// assumptions.
  bool okay() const { return Ok; }

  /// Decides satisfiability. Undef is only returned when a conflict budget
  /// is set and exhausted.
  LBool solve() { return solve({}); }

  /// Decides satisfiability under \p Assumptions (literals forced true for
  /// this call only). On False, conflictCore() holds the subset of
  /// assumptions proved jointly inconsistent with the clauses.
  LBool solve(const std::vector<Lit> &Assumptions);

  /// Model access after a True result. The values of eliminated variables
  /// are reconstructed lazily, on the first read of one of them (see
  /// extendModel), so a caller that reads only frozen variables never pays
  /// for the reconstruction. That first read writes the solver's model
  /// copy: read it on the thread that owns the solver, after solve()
  /// returns, like every other solver state.
  LBool modelValue(Var V) const {
    if (ModelPending && (ElimVars[V] || Model[V] == LBool::Undef))
      extendModel();
    return Model[V];
  }
  LBool modelValue(Lit L) const {
    LBool B = modelValue(L.var());
    return L.negated() ? lboolNeg(B) : B;
  }

  /// After a False result under assumptions: the failed assumptions (each
  /// element is one of the assumption literals passed to solve()).
  const std::vector<Lit> &conflictCore() const { return ConflictCore; }

  /// Limits the next solve() calls to \p MaxConflicts conflicts
  /// (0 = unlimited). When exhausted, solve returns Undef.
  void setConflictBudget(uint64_t MaxConflicts) { ConflictBudget = MaxConflicts; }

  // --- resource budgets (graceful degradation) -----------------------------

  /// A query-wide resource budget. Unlike the per-solve conflict budget
  /// above, every cap is cumulative across all solve() calls since
  /// setBudget() -- the MaxSAT sessions install one budget per user query
  /// and make dozens of solve() calls against it. A zero cap (or an unset
  /// deadline) means that dimension is unlimited.
  struct Budget {
    uint64_t MaxConflicts = 0;    ///< conflicts since setBudget (0 = off)
    uint64_t MaxPropagations = 0; ///< propagations since setBudget (0 = off)
    uint64_t MaxArenaBytes = 0;   ///< clause-arena size cap (0 = off)
    std::chrono::steady_clock::time_point Deadline{};
    bool HasDeadline = false;

    bool unlimited() const {
      return MaxConflicts == 0 && MaxPropagations == 0 && MaxArenaBytes == 0 &&
             !HasDeadline;
    }
    /// Sets the deadline to now + \p Seconds on the steady clock.
    void setDeadlineIn(double Seconds) {
      Deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(Seconds));
      HasDeadline = true;
    }
  };

  /// Installs \p B and starts counting against it from the solver's current
  /// cumulative stats. Exhaustion makes solve() return Undef -- never throw,
  /// never abort: arena growth past MaxArenaBytes is detected at the next
  /// allocation and degrades to Undef too. The exhausted state is sticky
  /// (later solve() calls return Undef immediately) until the budget is
  /// replaced or cleared.
  void setBudget(const Budget &B);

  /// Removes any budget and clears the exhausted state.
  void clearBudget();

  const Budget &budget() const { return Bud; }

  /// True once any budget dimension has tripped; sticky until clearBudget()
  /// or the next setBudget().
  bool budgetExhausted() const { return BudgetExhaustedFlag; }

  /// Re-latches the exhausted state. The MaxSAT sessions briefly lift an
  /// exhausted budget to harvest a bounded best-effort witness (the anytime
  /// upper bound); this restores the sticky Unknown contract afterwards.
  void markBudgetExhausted() {
    if (BudgetArmed)
      BudgetExhaustedFlag = true;
  }

  // --- cooperative cancellation (portfolio racing) -------------------------

  /// Asks a running solve() to stop at the next search-loop iteration; the
  /// call returns Undef. Safe to call from any thread; the flag is sticky
  /// until clearInterrupt(), so a solve() that has not started yet returns
  /// promptly too.
  void interrupt() { InterruptRequested.store(true, std::memory_order_relaxed); }

  /// Re-arms the solver after an interrupt. Call between solve()s only.
  void clearInterrupt() {
    InterruptRequested.store(false, std::memory_order_relaxed);
  }

  bool interrupted() const {
    return InterruptRequested.load(std::memory_order_relaxed);
  }

  // --- learnt-clause sharing (glucose-syrup-style portfolio exchange) ------

  /// Export hook: receives each learnt clause (post-minimization) with
  /// LBD <= Options::ShareLbdMax whose variables are all < ShareVarLimit.
  using ExportFn = std::function<void(const std::vector<Lit> &, uint32_t Lbd)>;
  /// Import hook: pulls one foreign clause at a time (returns false when
  /// drained). Drained at solve() entry and at every restart boundary, at
  /// decision level 0; imported clauses enter the learnt tiers with the
  /// advertised LBD. Hooks may be called from the solving thread only, but
  /// their implementations (e.g. ClauseExchange) are expected to be
  /// thread-safe so several solvers can share one buffer.
  using ImportFn = std::function<bool(std::vector<Lit> &, uint32_t &Lbd)>;

  /// Installs the exchange hooks. Only clauses whose variables are all
  /// below \p ShareVarLimit are exported -- portfolio sessions pass the
  /// number of *original* problem variables, so clauses over session-local
  /// auxiliaries (guards, relaxation selectors, counter internals) never
  /// leak into solvers where they would be unsound.
  void setShareHooks(ExportFn Export, ImportFn Import, Var ShareVarLimit) {
    this->Export = std::move(Export);
    this->Import = std::move(Import);
    this->ShareVarLimit = ShareVarLimit;
  }

  const SolverStats &stats() const { return Stats; }

  /// Zeroes the statistics counters (the formula and search state stay).
  /// Portfolio construction copies workers from one preprocessed
  /// prototype and resets the copies, so aggregated stats count the
  /// shared simplification pass once, not once per worker.
  void clearStats() { Stats = SolverStats(); }

  /// LBDs of the live learnt clauses across all tiers, in no particular
  /// order. Introspection surface for tests and benches; under the seed
  /// retention policy LBDs are still computed and reported.
  std::vector<uint32_t> learntLbds() const;

  /// The live problem clauses (the loaded clauses as root-level
  /// simplification and inprocessing left them, resolvents included; no
  /// learnts), each in stored literal order. Introspection surface for
  /// tests.
  std::vector<Clause> problemClauses() const;

  /// Forces a learned-clause reduction with the configured retention
  /// policy. Must be called at the root level (between solve() calls);
  /// normally reductions trigger automatically during search.
  void reduceLearntDb();

  /// Forces a relocating arena collection (normally triggered once a fifth
  /// of the arena is waste). Root level only; exposed so tests can check
  /// that relocation preserves clause metadata.
  void forceGarbageCollect();

  /// Sets the saved phase of \p V to \p Phase; used to bias the search
  /// (e.g., prefer enabling selectors).
  void setPolarity(Var V, bool Phase) { SavedPhase[V] = Phase; }

  /// Raises \p V's VSIDS activity so it is decided early. BugAssist boosts
  /// the selector variables: deciding them first makes every descent start
  /// from a concrete candidate "program edit", which propagation then
  /// evaluates cheaply.
  void boostActivity(Var V, double Amount = 1.0);

  /// Pseudo-random tie breaking seed for restarts/decisions.
  void setRandomSeed(uint64_t Seed) { RandState = Seed | 1; }

  /// Swaps in a new option block at the root level: re-seeds the RNG and
  /// re-draws the saved phase of every unassigned variable under the new
  /// InitPhase policy (exactly what newVar would have done). This is how
  /// portfolio workers are re-diversified after being copy-constructed
  /// from one shared, already-preprocessed prototype (maxsat/Portfolio.cpp)
  /// instead of each paying for clause loading and the simplification pass.
  void adoptOptions(const Options &O);

  // --- inprocessing (sat/Simplifier.{h,cpp}) -------------------------------

  /// Marks \p V as off-limits for variable elimination. The frozen-variable
  /// contract: any variable that outside code will later pass to solve() as
  /// an assumption, retire through releaseVar, or mention in a clause added
  /// after the first solve() MUST be frozen before that solve. Violations
  /// are hard errors (std::logic_error), not silent unsoundness.
  /// releaseVar unfreezes (the variable is root-fixed afterwards, so
  /// elimination of its remaining occurrences is sound and desirable).
  void setFrozen(Var V, bool Frozen);

  /// True if \p V is frozen -- explicitly, or structurally because it lies
  /// in the clause-exchange original-variable prefix of an installed share
  /// hook (imported clauses may mention any prefix variable at any time).
  bool isFrozen(Var V) const {
    if (V < static_cast<Var>(FrozenVars.size()) && FrozenVars[V])
      return true;
    return (Export || Import) && V < ShareVarLimit;
  }

  /// True once \p V has been eliminated by the simplifier. Eliminated
  /// variables have no clause occurrences; modelValue restores their
  /// values from the reconstruction stack.
  bool isEliminated(Var V) const {
    return V < static_cast<Var>(ElimVars.size()) && ElimVars[V] != 0;
  }

  /// Runs one full simplification pass now (root level, between solve()
  /// calls). No-op unless Options::Preprocess is set. \returns okay().
  bool preprocess();

  /// Test hook: force-eliminates \p V regardless of the resolvent growth
  /// bounds. Throws std::logic_error if \p V is frozen; returns false
  /// (without eliminating) if \p V is assigned at the root. \returns true
  /// if \p V is eliminated on exit.
  bool eliminateVar(Var V);

private:
  friend class Simplifier;
  // --- clause storage -----------------------------------------------------
  //
  // Clauses live in one flat arena of 32-bit words (stored as Lit for
  // type-clean access): [header][activity][lbd][lit_0 ... lit_{n-1}]. A
  // ClauseRef is the word offset of the header. Header layout:
  // size << 3 | Reloced << 2 | Learnt << 1 | Freed. The activity word
  // holds float bits (learnt clauses) or, after relocation during garbage
  // collection, the forwarding ClauseRef into the new arena. The lbd word
  // packs the clause's Literal Block Distance with its retention flags:
  // bits 0..19 LBD, bit 20 Touched (used in a conflict since the last
  // reduction), bits 21..23 Age (reductions survived without being used).
  using ClauseRef = int32_t;
  static constexpr ClauseRef InvalidClause = -1;
  static constexpr int32_t FreedBit = 1;
  static constexpr int32_t LearntBit = 2;
  static constexpr int32_t RelocedBit = 4;
  static constexpr int32_t HeaderWords = 3;
  static constexpr uint32_t LbdMask = (1u << 20) - 1;
  static constexpr uint32_t TouchedBit = 1u << 20;
  static constexpr uint32_t AgeShift = 21;
  static constexpr uint32_t AgeMask = 7;

  int32_t header(ClauseRef CR) const { return Arena[CR].code(); }
  uint32_t clauseSize(ClauseRef CR) const {
    return static_cast<uint32_t>(header(CR)) >> 3;
  }
  bool clauseLearnt(ClauseRef CR) const { return header(CR) & LearntBit; }
  bool clauseFreed(ClauseRef CR) const { return header(CR) & FreedBit; }
  void setClauseSize(ClauseRef CR, uint32_t Size) {
    Arena[CR] = Lit::fromCode(static_cast<int32_t>(Size << 3) |
                              (header(CR) & 7));
  }
  Lit *clauseLits(ClauseRef CR) { return &Arena[CR + HeaderWords]; }
  const Lit *clauseLits(ClauseRef CR) const { return &Arena[CR + HeaderWords]; }
  float clauseActivity(ClauseRef CR) const;
  void setClauseActivity(ClauseRef CR, float A);

  uint32_t lbdWord(ClauseRef CR) const {
    return static_cast<uint32_t>(Arena[CR + 2].code());
  }
  void setLbdWord(ClauseRef CR, uint32_t W) {
    Arena[CR + 2] = Lit::fromCode(static_cast<int32_t>(W));
  }
  uint32_t clauseLbd(ClauseRef CR) const { return lbdWord(CR) & LbdMask; }
  void setClauseLbd(ClauseRef CR, uint32_t Lbd) {
    setLbdWord(CR, (lbdWord(CR) & ~LbdMask) | (Lbd & LbdMask));
  }
  bool clauseTouched(ClauseRef CR) const { return lbdWord(CR) & TouchedBit; }
  void setClauseTouched(ClauseRef CR, bool T) {
    setLbdWord(CR, T ? (lbdWord(CR) | TouchedBit) : (lbdWord(CR) & ~TouchedBit));
  }
  uint32_t clauseAge(ClauseRef CR) const {
    return (lbdWord(CR) >> AgeShift) & AgeMask;
  }
  void setClauseAge(ClauseRef CR, uint32_t Age) {
    setLbdWord(CR, (lbdWord(CR) & ~(AgeMask << AgeShift)) |
                       ((Age & AgeMask) << AgeShift));
  }

  struct Watcher {
    ClauseRef CRef;
    Lit Blocker;
  };
  using WatchLists = std::vector<std::vector<Watcher>>; // by Lit code

  // --- core CDCL ----------------------------------------------------------
  LBool search();
  ClauseRef propagate();
  void analyze(ClauseRef Confl, std::vector<Lit> &OutLearnt, int &OutBtLevel,
               uint32_t &OutLbd);
  void analyzeFinal(Lit P);
  void uncheckedEnqueue(Lit L, ClauseRef From);
  void cancelUntil(int Level);
  Lit pickBranchLit();
  void newDecisionLevel() { TrailLim.push_back(static_cast<int>(Trail.size())); }
  int decisionLevel() const { return static_cast<int>(TrailLim.size()); }

  LBool value(Lit L) const {
    LBool B = Assigns[L.var()];
    return L.negated() ? lboolNeg(B) : B;
  }
  LBool value(Var V) const { return Assigns[V]; }
  int level(Var V) const { return VarLevel[V]; }

  ClauseRef allocClause(const std::vector<Lit> &Lits, bool Learnt);
  void attachClause(ClauseRef CR);
  /// Strict detach: scans the two watch lists of \p CR in \p Lists (the
  /// family it is watched in) and unlinks it now. Only for clauses that
  /// stay alive with different literals (strengthening, binary migration):
  /// a live clause must never keep a watcher whose Blocker it no longer
  /// contains, or propagate() would skip it as satisfied by a literal that
  /// is not in it.
  void detachClause(ClauseRef CR, WatchLists &Lists);
  void rewatchAsBinary(ClauseRef CR);
  /// Amortized O(1) removal: frees \p CR and smudges its two watch lists;
  /// the watchers are dropped lazily (see cleanWatches).
  void removeClause(ClauseRef CR);
  /// Flags one watch list of literal code \p Code dirty: the binary list
  /// if \p Binary, else the long-clause list.
  void smudgeWatches(int32_t Code, bool Binary) {
    if (!WatchDirty[Code])
      DirtyCodes.push_back(Code);
    WatchDirty[Code] |= Binary ? DirtyBin : DirtyLong;
  }
  /// Drops the freed watchers from the dirty lists of \p Code, keeping
  /// order.
  void cleanWatches(int32_t Code);
  /// Cleans every dirty list; with \p ReleaseEmpty, also frees the
  /// capacity of every list left empty.
  void cleanAllWatches(bool ReleaseEmpty);
  /// Root-level clause normalization shared by addClause and imports:
  /// sorts \p C and compacts it in place, dropping root-false and
  /// duplicate literals. \returns false (leaving \p C unspecified) if the
  /// clause is root-satisfied or tautological.
  bool simplifyAtRoot(std::vector<Lit> &C) const;
  void importSharedClauses();
  void addImportedClause(std::vector<Lit> &Lits, uint32_t Lbd);
  /// The binary fast path never normalizes clause literals during
  /// propagation, so a binary reason clause may have the implied literal at
  /// either position; callers reading reasons positionally fix it up here.
  void normalizeBinaryReason(ClauseRef CR, Lit Implied) {
    Lit *CL = clauseLits(CR);
    if (clauseSize(CR) == 2 && CL[0] != Implied)
      std::swap(CL[0], CL[1]);
  }
  bool isLocked(ClauseRef CR) const;
  void pushLearnt(ClauseRef CR, uint32_t Lbd);
  size_t reducibleLearnts() const;
  void reduceDB();
  void reduceDbActivity();
  void reduceDbTiers();
  void refreshTierGauges();
  /// Root-level scan: drops satisfied clauses and trims root-false
  /// literals. Gated: returns at once unless the root trail grew or a
  /// clause was freed since the last scan (otherwise a scan is a no-op).
  void simplifyLevel0();
  /// Marks \p CR freed and accounts its words as waste (no watch-list
  /// work; callers detach or smudge).
  void markFreed(ClauseRef CR);
  void checkGarbage();
  void garbageCollect();

  // --- inprocessing helpers (implemented in Simplifier.cpp) ---------------
  /// Removes \p L from the clause (root level; clause must not be locked).
  /// Detaches, shrinks, re-attaches with two non-false watches; a clause
  /// collapsing to a unit is freed and its literal enqueued+propagated.
  /// \returns false if the solver became UNSAT.
  bool strengthenClause(ClauseRef CR, Lit L);
  /// Completes a pending model: restores eliminated variables by walking
  /// the reconstruction stack prefix [0, ModelElimEnd) backwards, then
  /// defaults whatever is still unassigned to false. Runs at most once
  /// per True result, from the first modelValue read that needs it.
  void extendModel() const;

  // --- LBD / restart machinery -------------------------------------------
  uint32_t computeLbd(const Lit *Lits, uint32_t Size);
  void onConflictLearnt(uint32_t Lbd);
  bool restartPending() const;
  bool shouldRestart() const;

  // --- activity heap ------------------------------------------------------
  void varBumpActivity(Var V);
  void varDecayActivity() { VarInc /= VarDecay; }
  void claBumpActivity(ClauseRef CR);
  void claDecayActivity() { ClaInc /= ClaDecay; }
  void insertVarOrder(Var V);
  void heapInsert(Var V);
  void heapDecrease(Var V);
  Var heapPop();
  bool heapEmpty() const { return Heap.empty(); }
  void heapPercolateUp(int I);
  void heapPercolateDown(int I);

  uint64_t nextRand() {
    RandState ^= RandState << 13;
    RandState ^= RandState >> 7;
    RandState ^= RandState << 17;
    return RandState;
  }

  static uint64_t lubyScale(uint64_t I);

  // --- state ----------------------------------------------------------------
  Options Opts;
  bool Ok = true;
  std::vector<Lit> Arena; // flat clause storage (see layout above)
  size_t ArenaWasted = 0; // words occupied by freed/shrunk clauses
  std::vector<ClauseRef> ProblemClauses;
  // Learnt tiers. The seed retention policy keeps everything in Local;
  // LbdTiers distributes by LBD and Core is never scanned for deletion.
  std::vector<ClauseRef> CoreLearnts;
  std::vector<ClauseRef> MidLearnts;
  std::vector<ClauseRef> LocalLearnts;
  WatchLists Watches; // indexed by Lit code, size >= 3
  // Binary clauses get their own watch lists: the Watcher's Blocker IS the
  // other literal, so propagation over them never touches the arena (no
  // header load, no literal scan) -- see the fast path in propagate().
  WatchLists BinWatches; // indexed by Lit code
  // Lazy detachment: WatchDirty[code] has DirtyLong set while
  // Watches[code], and DirtyBin while BinWatches[code], may hold watchers
  // of freed clauses (two bits, so cleaning after reduceDB, which never
  // frees binaries, skips the binary lists). DirtyCodes lists the codes
  // flagged since the last cleanAllWatches (it may hold codes propagate()
  // has cleaned meanwhile -- the flags are authoritative).
  static constexpr char DirtyLong = 1;
  static constexpr char DirtyBin = 2;
  std::vector<char> WatchDirty; // indexed by Lit code
  std::vector<int32_t> DirtyCodes;
  std::vector<LBool> Assigns;
  std::vector<int> VarLevel;
  std::vector<ClauseRef> Reason;
  std::vector<Lit> Trail;
  std::vector<int> TrailLim;
  int PropagationHead = 0;

  std::vector<double> Activity;
  double VarInc = 1.0;
  double VarDecay = 0.95;
  double ClaInc = 1.0;
  double ClaDecay = 0.999;
  std::vector<int> HeapIndex; // var -> position in Heap, -1 if absent
  std::vector<Var> Heap;

  std::vector<bool> SavedPhase;
  std::vector<bool> Released; // released vars never re-enter the heap
  // Inprocessing state (plain values: session cloning copies them).
  std::vector<char> FrozenVars; // explicit frozen marks (see setFrozen)
  std::vector<char> ElimVars;   // 1 once eliminated by the simplifier
  /// Model-reconstruction stack. Per eliminated variable one segment:
  /// for each clause of the stored occurrence side [lits...] with the
  /// eliminated variable's literal FIRST followed by a size word
  /// Lit::fromCode(n), then a single default unit [lit][size word 1].
  /// extendModel walks it backwards (MiniSAT's elimclauses layout). It is
  /// append-only: a pending model's prefix stays valid across later passes.
  std::vector<Lit> ElimStack;
  bool PreprocessedOnce = false;     // load-time pass already ran
  uint64_t LastInprocConflicts = 0;  // Stats.Conflicts at the last pass
  std::vector<char> Seen;
  std::vector<Lit> AnalyzeStack;
  std::vector<uint64_t> LbdStampOfLevel; // level -> last stamp that saw it
  uint64_t LbdStamp = 0;

  // Root-scan gate (simplifyLevel0): the root trail size and the free
  // count seen by the last scan. FreedClauses counts every clause freed
  // (markFreed); the trail size starts at -1 so the first solve() scans.
  int ScannedTrail = -1;
  uint64_t ScannedFreed = 0;
  uint64_t FreedClauses = 0;

  std::vector<Lit> AddBuf; // addClause's simplification buffer
  std::vector<Lit> CurAssumptions;
  std::vector<Lit> ConflictCore;
  // The model of the last True result. While ModelPending, it is the raw
  // assignment: eliminated variables are not reconstructed yet, and
  // ModelElimEnd is the ElimStack size at that result (the stack only
  // grows, so that prefix is exactly what an eager extension would have
  // walked). modelValue completes it on demand.
  mutable std::vector<LBool> Model;
  mutable bool ModelPending = false;
  size_t ModelElimEnd = 0;

  uint64_t ConflictBudget = 0;
  // Query-wide resource budget (see Budget above). The search loop keeps
  // the fast path cheap: one bool test plus a countdown, with the clock
  // read and counter comparisons amortized over BudgetPollPeriod
  // iterations (the arena cap additionally flips the sticky flag directly
  // from allocClause, so it is seen on the very next iteration).
  static constexpr int BudgetPollPeriod = 1024;
  bool pollBudget(); // slow path; returns and latches BudgetExhaustedFlag
  Budget Bud;
  bool BudgetArmed = false;
  bool BudgetExhaustedFlag = false;
  uint64_t BudgetStartConflicts = 0;
  uint64_t BudgetStartPropagations = 0;
  int BudgetPollCountdown = 0;
  uint64_t ConflictsThisSolve = 0;
  uint64_t ConflictsSinceRestart = 0;
  uint64_t CurRestartBudget = 0; // Luby policy: conflicts before restart
  double MaxLearnts = 0;
  // Restart EMAs persist across solve() calls, like the learnt clauses
  // whose quality they track. Each EMA carries a bias divisor (the Adam
  // correction 1 - (1-alpha)^n, accumulated incrementally) so the
  // corrected value is unbiased from the first sample; otherwise a fresh
  // solver's trail EMA underestimates for ~1/alpha conflicts and ordinary
  // trails would spuriously block every pending restart.
  double FastLbdEma = 0;
  double FastLbdBias = 0;
  double TrailEma = 0;
  double TrailBias = 0;
  uint64_t RandState = 0x1234567890abcdefull;
  uint32_t RandBranchThreshold = 20; // random decisions per 1024 (from Opts)

  /// std::atomic is not copyable; this wrapper snapshots the flag value so
  /// the defaulted Solver copy constructor (session cloning) stays
  /// member-wise. Memory ordering is the caller's choice, as before.
  struct CopyableAtomicBool {
    std::atomic<bool> V{false};
    CopyableAtomicBool() = default;
    CopyableAtomicBool(const CopyableAtomicBool &O)
        : V(O.V.load(std::memory_order_relaxed)) {}
    CopyableAtomicBool &operator=(const CopyableAtomicBool &O) {
      V.store(O.V.load(std::memory_order_relaxed), std::memory_order_relaxed);
      return *this;
    }
    void store(bool B, std::memory_order M) { V.store(B, M); }
    bool load(std::memory_order M) const { return V.load(M); }
  };

  CopyableAtomicBool InterruptRequested;
  ExportFn Export;
  ImportFn Import;
  Var ShareVarLimit = 0; // only clauses with all vars below this are exported

  SolverStats Stats;
};

} // namespace bugassist

#endif // BUGASSIST_SAT_SOLVER_H
