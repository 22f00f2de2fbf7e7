//===- bench_solvers.cpp - SAT / MaxSAT micro-benchmarks (A2) ----------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// Solver-substrate benchmarks: CDCL on random 3-SAT around the phase
// transition and on pigeonhole instances, Fu-Malik and linear-search
// partial MaxSAT on localization-shaped instances, and -- the headline --
// the Fu-Malik TCAS localization workload run both through the incremental
// one-persistent-solver engine and the seed's rebuilt-per-round baseline.
// `--threads N` (default 4) additionally races the N-worker portfolio
// (diversified solvers + glue sharing, maxsat/Portfolio.h) on the
// conflict-heavy SAT workloads and on the TCAS localization, recording the
// per-worker win counts and exchange traffic.
//
// Every workload is emitted as machine-readable JSON (BENCH_solvers.json:
// wall time, conflicts, propagations, SatCalls) so the perf trajectory is
// tracked across PRs. `--json=PATH` overrides the output path.
//
//===----------------------------------------------------------------------===//

#include "BenchArgs.h"
#include "BenchJson.h"
#include "cnf/DimacsReader.h"
#include "core/BugAssist.h"
#include "core/Pipeline.h"
#include "lang/Sema.h"
#include "maxsat/MaxSat.h"
#include "maxsat/Portfolio.h"
#include "maxsat/ReferenceMaxSat.h"
#include "programs/Tcas.h"
#include "programs/TcasMutants.h"
#include "sat/Solver.h"
#include "support/Rng.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace bugassist;

namespace {

struct WorkloadResult {
  std::string Name;
  double WallSeconds = 0;
  uint64_t Conflicts = 0;
  uint64_t Propagations = 0;
  uint64_t SatCalls = 0;
  uint64_t Restarts = 0;
  uint64_t RestartsBlocked = 0;
  uint64_t LbdSum = 0;
  uint64_t LbdCount = 0;
  uint64_t VarsEliminated = 0;
  uint64_t ClausesSubsumed = 0;
  uint64_t Extra = 0; ///< workload-specific (cost, diagnoses, ...)
  const char *ExtraKey = nullptr;
  // Portfolio workloads only.
  size_t Workers = 0;    ///< portfolio width (0 = single solver)
  uint64_t Exported = 0; ///< clauses pushed into the exchange
  uint64_t Imported = 0; ///< foreign clauses injected at restarts
  int Winner = -1;       ///< winning worker of the (last) race
  std::vector<uint64_t> Wins; ///< races won per worker

  void addSearch(const SolverStats &S) {
    Conflicts += S.Conflicts;
    Propagations += S.Propagations;
    Restarts += S.Restarts;
    RestartsBlocked += S.RestartsBlocked;
    LbdSum += S.LbdSum;
    LbdCount += S.LbdCount;
    VarsEliminated += S.VarsEliminated;
    ClausesSubsumed += S.ClausesSubsumed;
    Exported += S.ClausesExported;
    Imported += S.ClausesImported;
  }
  double avgLbd() const {
    return LbdCount ? static_cast<double>(LbdSum) /
                          static_cast<double>(LbdCount)
                    : 0.0;
  }
};

std::vector<WorkloadResult> Results;

void record(WorkloadResult R) {
  std::printf("%-44s %9.3fs  conflicts=%-9llu propagations=%-11llu "
              "sat_calls=%-5llu restarts=%llu/%llu avg_lbd=%.2f",
              R.Name.c_str(), R.WallSeconds,
              static_cast<unsigned long long>(R.Conflicts),
              static_cast<unsigned long long>(R.Propagations),
              static_cast<unsigned long long>(R.SatCalls),
              static_cast<unsigned long long>(R.Restarts),
              static_cast<unsigned long long>(R.RestartsBlocked), R.avgLbd());
  if (R.ExtraKey)
    std::printf("  %s=%llu", R.ExtraKey,
                static_cast<unsigned long long>(R.Extra));
  if (!R.Wins.empty()) {
    std::printf("  shared=%llu/%llu wins=[",
                static_cast<unsigned long long>(R.Exported),
                static_cast<unsigned long long>(R.Imported));
    for (size_t I = 0; I < R.Wins.size(); ++I)
      std::printf("%s%llu", I ? "," : "",
                  static_cast<unsigned long long>(R.Wins[I]));
    std::printf("]");
  }
  std::printf("\n");
  Results.push_back(std::move(R));
}

// --- plain SAT workloads ----------------------------------------------------

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

/// Both clause-management policies run every conflict-heavy SAT workload,
/// so the JSON tracks the Glucose-vs-seed comparison where reduceDB and
/// restarts actually fire.
const char *policySuffix(const Solver::Options &O) {
  return O.Retention == Solver::Options::RetentionPolicy::LbdTiers
             ? "_lbd_tiers"
             : "_activity_halving";
}

void benchPhaseTransition(int Vars, int Rounds, const Solver::Options &Opts) {
  WorkloadResult W;
  W.Name = "sat_phase_transition_v" + std::to_string(Vars) +
           policySuffix(Opts);
  Timer T;
  uint64_t Seed = 1;
  for (int I = 0; I < Rounds; ++I) {
    Rng R(Seed++);
    auto Cs = random3Sat(R, Vars, static_cast<int>(Vars * 4.26));
    Solver S{Opts};
    S.ensureVars(Vars);
    bool Ok = true;
    for (const Clause &C : Cs)
      Ok = Ok && S.addClause(C);
    if (Ok)
      S.solve();
    ++W.SatCalls;
    W.addSearch(S.stats());
  }
  W.WallSeconds = T.seconds();
  record(std::move(W));
}

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

void benchPigeonhole(int Holes, const Solver::Options &Opts) {
  WorkloadResult W;
  W.Name = "sat_pigeonhole_h" + std::to_string(Holes) + policySuffix(Opts);
  Timer T;
  Solver S{Opts};
  S.ensureVars((Holes + 1) * Holes);
  for (const Clause &C : pigeonholeClauses(Holes))
    S.addClause(C);
  S.solve();
  W.WallSeconds = T.seconds();
  W.SatCalls = 1;
  W.addSearch(S.stats());
  record(std::move(W));
}

// --- portfolio workloads ----------------------------------------------------

void recordRace(WorkloadResult &W, const SatRaceResult &R) {
  W.addSearch(R.Aggregate);
  W.Winner = R.Winner;
  if (W.Wins.empty())
    W.Wins.assign(R.PerWorker.size(), 0);
  if (R.Winner >= 0 && static_cast<size_t>(R.Winner) < W.Wins.size())
    ++W.Wins[static_cast<size_t>(R.Winner)];
}

/// Races the portfolio on the pigeonhole refutation -- the conflict-heavy
/// UNSAT workload where diversification plus glue sharing has to prove
/// itself against the single solver above.
void benchPigeonholePortfolio(int Holes, size_t Threads) {
  WorkloadResult W;
  W.Name = "sat_pigeonhole_h" + std::to_string(Holes) + "_portfolio_t" +
           std::to_string(Threads);
  W.Workers = Threads;
  auto Cs = pigeonholeClauses(Holes);
  Timer T;
  SatRaceResult R = racePortfolioSat(Cs, (Holes + 1) * Holes, Threads);
  W.WallSeconds = T.seconds();
  W.SatCalls = 1;
  recordRace(W, R);
  record(std::move(W));
}

void benchPhaseTransitionPortfolio(int Vars, int Rounds, size_t Threads) {
  WorkloadResult W;
  W.Name = "sat_phase_transition_v" + std::to_string(Vars) + "_portfolio_t" +
           std::to_string(Threads);
  W.Workers = Threads;
  Timer T;
  uint64_t Seed = 1;
  for (int I = 0; I < Rounds; ++I) {
    Rng R(Seed++);
    auto Cs = random3Sat(R, Vars, static_cast<int>(Vars * 4.26));
    SatRaceResult Race = racePortfolioSat(Cs, Vars, Threads);
    ++W.SatCalls;
    recordRace(W, Race);
  }
  W.WallSeconds = T.seconds();
  record(std::move(W));
}

// --- MaxSAT workloads -------------------------------------------------------

/// Localization-shaped MaxSAT: a chain of "statements" y_{i+1} = f(y_i)
/// modeled as selector-guarded equivalences, with contradictory hard
/// endpoints; the optimum disables exactly one selector.
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

template <typename Fn>
void benchMaxSat(const std::string &Name, const MaxSatInstance &Inst, Fn Solve) {
  WorkloadResult W;
  W.Name = Name;
  Timer T;
  MaxSatResult R = Solve(Inst);
  W.WallSeconds = T.seconds();
  W.addSearch(R.Search);
  W.SatCalls = R.SatCalls;
  W.Extra = R.Cost;
  W.ExtraKey = "cost";
  record(std::move(W));
}

// --- external DIMACS / WCNF instances (--wcnf DIR) --------------------------

/// Sweeps every *.cnf / *.wcnf file in \p Dir (sorted by name) through the
/// solver substrate: CNF instances are decided (raced over the portfolio
/// when Threads > 1), WCNF instances are optimized with the auto-selected
/// MaxSAT engine. This is how MaxSAT-Evaluation benchmark directories
/// become bench workloads without any code changes.
void benchWcnfSweep(const std::string &Dir, size_t Threads) {
  std::vector<std::string> Files;
  DIR *D = opendir(Dir.c_str());
  if (!D) {
    std::printf("--wcnf: cannot open directory '%s'\n", Dir.c_str());
    return;
  }
  while (dirent *E = readdir(D)) {
    std::string Name = E->d_name;
    auto EndsWith = [&](const char *Suffix) {
      size_t L = std::strlen(Suffix);
      return Name.size() >= L &&
             Name.compare(Name.size() - L, L, Suffix) == 0;
    };
    if (EndsWith(".cnf") || EndsWith(".wcnf"))
      Files.push_back(std::move(Name));
  }
  closedir(D);
  std::sort(Files.begin(), Files.end());
  if (Files.empty()) {
    std::printf("--wcnf: no .cnf/.wcnf files in '%s'\n", Dir.c_str());
    return;
  }

  for (const std::string &Name : Files) {
    DimacsParseError Err;
    auto Parsed = readDimacsFile(Dir + "/" + Name, Err);
    if (!Parsed) {
      std::printf("%-44s skipped: %s\n", Name.c_str(), Err.render().c_str());
      continue;
    }
    // Each instance runs twice -- preprocessing on (the default path) and
    // off (`_nopre`) -- so the JSON carries its own same-machine baseline
    // for the conflicts/propagations/wall comparison.
    for (bool Preprocess : {true, false}) {
      Solver::Options Opts;
      Opts.Preprocess = Preprocess;
      WorkloadResult W;
      W.Name = "dimacs_" + Name;
      if (Threads > 1)
        W.Name += "_t" + std::to_string(Threads);
      if (!Preprocess)
        W.Name += "_nopre";

      auto RunOnce = [&](WorkloadResult &Out) {
        if (Parsed->Soft.empty()) {
          Timer T;
          if (Threads > 1) {
            Out.Workers = Threads;
            SatRaceResult R =
                racePortfolioSat(Parsed->Hard, Parsed->NumVars, Threads, Opts);
            Out.SatCalls = 1;
            recordRace(Out, R);
            Out.Extra = R.Result == LBool::True;
          } else {
            Solver S{Opts};
            S.ensureVars(Parsed->NumVars);
            bool Ok = true;
            for (const Clause &C : Parsed->Hard)
              Ok = Ok && S.addClause(C);
            Out.Extra = Ok && S.solve() == LBool::True;
            Out.SatCalls = 1;
            Out.addSearch(S.stats());
          }
          Out.WallSeconds = T.seconds();
          Out.ExtraKey = "sat";
        } else {
          bool AnyWeight = false;
          MaxSatInstance Inst = toMaxSatInstance(*Parsed, &AnyWeight);
          Timer T;
          auto Session = makeMaxSatSession(Inst, AnyWeight, Threads,
                                           /*ConflictBudget=*/0, Opts);
          MaxSatResult R = Session->solve();
          if (auto *P = dynamic_cast<PortfolioSession *>(Session.get())) {
            Out.Workers = Threads;
            Out.Wins = P->portfolioStats().WinsByWorker;
            Out.Winner = P->portfolioStats().LastWinner;
          }
          Out.WallSeconds = T.seconds();
          Out.SatCalls = R.SatCalls;
          Out.addSearch(R.Search);
          Out.Extra = R.Status == MaxSatStatus::Optimum ? R.Cost : 0;
          Out.ExtraKey =
              R.Status == MaxSatStatus::Optimum ? "cost" : "hard_unsat";
        }
      };
      // Some checked-in instances solve in microseconds, where a single
      // wall measurement is scheduler noise: keep the first run's search
      // statistics (the deterministic part) and a best-of-N wall time,
      // with more reps the shorter the workload so the minimum settles.
      RunOnce(W);
      int WallReps = W.WallSeconds < 0.001 ? 25 : 5;
      for (int Rep = 1; Rep < WallReps; ++Rep) {
        WorkloadResult Retime;
        RunOnce(Retime);
        W.WallSeconds = std::min(W.WallSeconds, Retime.WallSeconds);
      }
      record(std::move(W));
    }
  }
}

// --- the TCAS Fu-Malik localization workload --------------------------------

/// Algorithm 1's enumeration with the seed engine: the whole MaxSAT is
/// rebuilt from scratch for every diagnosis AND every relaxation round
/// rebuilds its solver. This is the baseline the incremental engine is
/// measured against.
void rebuiltEnumerate(MaxSatInstance Inst, const CnfFormula &F,
                      size_t MaxDiagnoses, WorkloadResult &W) {
  for (size_t Diagnoses = 0; Diagnoses < MaxDiagnoses;) {
    MaxSatResult R = referenceSolveFuMalik(Inst);
    W.SatCalls += R.SatCalls;
    W.addSearch(R.Search);
    if (R.Status != MaxSatStatus::Optimum || R.FalsifiedSoft.empty())
      break;
    Clause Blocking;
    for (size_t SoftIdx : R.FalsifiedSoft)
      Blocking.push_back(mkLit(F.group(static_cast<GroupId>(SoftIdx)).Selector));
    Inst.Hard.push_back(std::move(Blocking));
    ++Diagnoses;
    ++W.Extra; // total diagnoses across runs
  }
}

/// Algorithm 1's enumeration over ONE incremental Fu-Malik session with the
/// given solver policies: blocking clauses are added through the session so
/// learned clauses survive every diagnosis. Running this once with the
/// Glucose policies and once with the seed policies isolates the clause
/// management change on identical workloads.
void sessionEnumerate(const MaxSatInstance &Inst, const CnfFormula &F,
                      size_t MaxDiagnoses, WorkloadResult &W,
                      const Solver::Options &Opts) {
  auto Session = makeFuMalikSession(Inst, /*ConflictBudget=*/0, Opts);
  SolverStats Final; // session stats are cumulative; keep only the last
  for (size_t Diagnoses = 0; Diagnoses < MaxDiagnoses;) {
    MaxSatResult R = Session->solve();
    W.SatCalls += R.SatCalls;
    Final = R.Search;
    if (R.Status != MaxSatStatus::Optimum || R.FalsifiedSoft.empty())
      break;
    Clause Blocking;
    for (size_t SoftIdx : R.FalsifiedSoft)
      Blocking.push_back(mkLit(F.group(static_cast<GroupId>(SoftIdx)).Selector));
    // The CoMSS just found counts even when blocking it exhausts the hard
    // formula, matching rebuiltEnumerate and the driver's enumeration.
    ++Diagnoses;
    ++W.Extra;
    if (!Session->addHardClause(Blocking))
      break;
  }
  W.addSearch(Final);
}

void benchTcasLocalization(size_t NumMutants, size_t TestsPerMutant,
                           size_t MaxDiagnoses, size_t Threads) {
  DiagEngine Diags;
  auto Golden = parseAndAnalyze(tcasSource(), Diags);
  if (!Golden) {
    std::printf("golden TCAS failed to compile\n");
    return;
  }
  auto Pool = tcasTestPool(400);
  auto GoldenOut = goldenOutputs(*Golden, Pool, "main", tcasExecOptions());

  WorkloadResult Inc, Pf, Lbd, Seed, Reb;
  Inc.Name = "tcas_fumalik_localize_incremental";
  Inc.ExtraKey = "diagnoses";
  Pf.Name = "tcas_fumalik_localize_portfolio_t" + std::to_string(Threads);
  Pf.ExtraKey = "diagnoses";
  Pf.Workers = Threads;
  Lbd.Name = "tcas_fumalik_comss_lbd_tiers";
  Lbd.ExtraKey = "diagnoses";
  Seed.Name = "tcas_fumalik_comss_activity_halving";
  Seed.ExtraKey = "diagnoses";
  Reb.Name = "tcas_fumalik_localize_rebuilt";
  Reb.ExtraKey = "diagnoses";

  size_t MutantsUsed = 0;
  for (const TcasMutant &M : tcasMutants()) {
    if (MutantsUsed >= NumMutants)
      break;
    DiagEngine D2;
    auto Faulty = parseAndAnalyze(M.Source, D2);
    if (!Faulty)
      continue;
    FailingTests Failing = segregateFailingTests(
        GoldenOut, *Faulty, Pool, "main", tcasExecOptions(), TestsPerMutant);
    if (Failing.Inputs.empty())
      continue;
    ++MutantsUsed;

    BugAssistDriver Driver(*Faulty, "main", tcasUnrollOptions());
    for (size_t Idx = 0; Idx < Failing.Inputs.size(); ++Idx) {
      Spec S;
      S.CheckObligations = false;
      S.GoldenReturn = Failing.Goldens[Idx];

      LocalizeOptions LO;
      LO.MaxDiagnoses = MaxDiagnoses;
      Timer T1;
      LocalizationReport Rep =
          localizeFault(Driver.formula(), Failing.Inputs[Idx], S, LO);
      Inc.WallSeconds += T1.seconds();
      Inc.SatCalls += Rep.SatCalls;
      Inc.addSearch(Rep.Search);
      Inc.Extra += Rep.Diagnoses.size();

      if (Threads > 1) {
        LocalizeOptions PLO = LO;
        PLO.Threads = Threads;
        Timer TP;
        LocalizationReport PRep =
            localizeFault(Driver.formula(), Failing.Inputs[Idx], S, PLO);
        Pf.WallSeconds += TP.seconds();
        Pf.SatCalls += PRep.SatCalls;
        Pf.addSearch(PRep.Search);
        Pf.Extra += PRep.Diagnoses.size();
        if (Pf.Wins.empty())
          Pf.Wins.assign(PRep.PortfolioWins.size(), 0);
        for (size_t WI = 0; WI < PRep.PortfolioWins.size(); ++WI)
          Pf.Wins[WI] += PRep.PortfolioWins[WI];
      }

      MaxSatInstance Inst =
          Driver.formula().localizationInstance(Failing.Inputs[Idx], S);
      const CnfFormula &F = Driver.formula().encoded().Formula;

      Timer T2;
      sessionEnumerate(Inst, F, MaxDiagnoses, Lbd, Solver::Options());
      Lbd.WallSeconds += T2.seconds();

      Timer T3;
      sessionEnumerate(Inst, F, MaxDiagnoses, Seed, Solver::Options::seed());
      Seed.WallSeconds += T3.seconds();

      Timer T4;
      rebuiltEnumerate(Inst, F, MaxDiagnoses, Reb);
      Reb.WallSeconds += T4.seconds();
    }
  }
  if (MutantsUsed == 0) {
    std::printf("no TCAS mutant with failing tests found\n");
    return;
  }
  double WorkInc = static_cast<double>(Inc.Conflicts + Inc.Propagations);
  double WorkLbd = static_cast<double>(Lbd.Conflicts + Lbd.Propagations);
  double WorkSeed = static_cast<double>(Seed.Conflicts + Seed.Propagations);
  double WorkReb = static_cast<double>(Reb.Conflicts + Reb.Propagations);
  double WallInc = Inc.WallSeconds, WallLbd = Lbd.WallSeconds,
         WallSeed = Seed.WallSeconds, WallReb = Reb.WallSeconds;
  double WallPf = Pf.WallSeconds;
  record(std::move(Inc));
  if (Threads > 1)
    record(std::move(Pf));
  record(std::move(Lbd));
  record(std::move(Seed));
  record(std::move(Reb));
  if (Threads > 1)
    std::printf("tcas portfolio (t=%zu) vs single session: wall %.2fx "
                "(identical diagnoses by construction)\n",
                Threads, WallPf > 0 ? WallInc / WallPf : 0.0);
  std::printf("tcas incremental vs rebuilt (%zu mutants): "
              "conflicts+propagations %.2fx, wall %.2fx\n",
              MutantsUsed, WorkInc > 0 ? WorkReb / WorkInc : 0.0,
              WallInc > 0 ? WallReb / WallInc : 0.0);
  std::printf("tcas lbd-tiers vs activity-halving (CoMSS sessions): "
              "conflicts+propagations %.2fx, wall %.2fx\n",
              WorkLbd > 0 ? WorkSeed / WorkLbd : 0.0,
              WallLbd > 0 ? WallSeed / WallLbd : 0.0);
}

/// One workload as a bench JSON object.
std::string renderWorkload(const WorkloadResult &W, unsigned Cores) {
  auto Num = [](uint64_t V) { return std::to_string(V); };
  char Buf[64];
  std::string Out = "{\"name\": " + jsonString(W.Name);
  std::snprintf(Buf, sizeof(Buf), "%.6f", W.WallSeconds);
  Out += std::string(", \"wall_s\": ") + Buf;
  Out += ", \"conflicts\": " + Num(W.Conflicts) +
         ", \"propagations\": " + Num(W.Propagations) +
         ", \"sat_calls\": " + Num(W.SatCalls) +
         ", \"restarts\": " + Num(W.Restarts) +
         ", \"restarts_blocked\": " + Num(W.RestartsBlocked);
  std::snprintf(Buf, sizeof(Buf), "%.3f", W.avgLbd());
  Out += std::string(", \"avg_lbd\": ") + Buf;
  Out += ", \"vars_eliminated\": " + Num(W.VarsEliminated) +
         ", \"clauses_subsumed\": " + Num(W.ClausesSubsumed);
  if (W.ExtraKey)
    Out += ", " + jsonString(W.ExtraKey) + ": " + Num(W.Extra);
  if (W.Workers)
    // Wall times of a race wider than the machine measure scheduler
    // time-slicing, not parallel speedup; tag them so the perf tracker
    // compares like with like.
    Out += ", \"workers\": " + Num(W.Workers) + ", \"serialized\": " +
           (Cores && W.Workers > Cores ? "true" : "false");
  if (!W.Wins.empty()) {
    Out += ", \"shared_exported\": " + Num(W.Exported) +
           ", \"shared_imported\": " + Num(W.Imported);
    if (W.Winner >= 0)
      Out += ", \"last_winner\": " + std::to_string(W.Winner);
    Out += ", \"wins\": [";
    for (size_t J = 0; J < W.Wins.size(); ++J)
      Out += (J ? ", " : "") + Num(W.Wins[J]);
    Out += "]";
  }
  return Out + "}";
}

} // namespace

int main(int argc, char **argv) {
  const char *JsonPath = "BENCH_solvers.json";
  const char *WcnfDir = nullptr;
  bool Quick = false, Smoke = false;
  size_t Threads = 4; // portfolio width for the *_portfolio workloads
  for (int I = 1; I < argc; ++I) {
    if (std::strncmp(argv[I], "--json=", 7) == 0)
      JsonPath = argv[I] + 7;
    else if (std::strncmp(argv[I], "--wcnf=", 7) == 0)
      WcnfDir = argv[I] + 7;
    else if (std::strcmp(argv[I], "--wcnf") == 0 && I + 1 < argc)
      WcnfDir = argv[++I];
    else if (std::strcmp(argv[I], "--quick") == 0)
      Quick = true;
    else if (std::strcmp(argv[I], "--smoke") == 0)
      Smoke = Quick = true; // smoke: CI-sized subset of the quick run
    else
      matchThreadsFlag(argc, argv, I, Threads);
  }

  int PhaseVars = Smoke ? 60 : 100;
  int PhaseRounds = Smoke ? 2 : Quick ? 4 : 16;
  int Holes = Smoke ? 5 : Quick ? 6 : 7;
  for (const Solver::Options &O :
       {Solver::Options(), Solver::Options::seed()}) {
    benchPhaseTransition(PhaseVars, PhaseRounds, O);
    benchPigeonhole(Holes, O);
  }
  if (!Quick)
    benchPigeonhole(8, Solver::Options()); // the larger refutation
  if (Threads > 1) {
    benchPhaseTransitionPortfolio(PhaseVars, PhaseRounds, Threads);
    benchPigeonholePortfolio(Holes, Threads);
    if (!Quick)
      benchPigeonholePortfolio(8, Threads);
  }

  std::vector<int> ChainLens = Smoke ? std::vector<int>{100}
                                     : std::vector<int>{200, 800};
  for (int Len : ChainLens) {
    MaxSatInstance Chain = selectorChain(Len);
    std::string Suffix = "_chain" + std::to_string(Len);
    benchMaxSat("maxsat_fumalik_incremental" + Suffix, Chain,
                [](const MaxSatInstance &I) { return solveFuMalik(I); });
    benchMaxSat("maxsat_fumalik_rebuilt" + Suffix, Chain,
                [](const MaxSatInstance &I) { return referenceSolveFuMalik(I); });
    benchMaxSat("maxsat_linear_incremental" + Suffix, Chain,
                [](const MaxSatInstance &I) { return solveLinear(I); });
    benchMaxSat("maxsat_linear_rebuilt" + Suffix, Chain,
                [](const MaxSatInstance &I) { return referenceSolveLinear(I); });
  }

  benchTcasLocalization(/*NumMutants=*/Quick ? 1 : 6,
                        /*TestsPerMutant=*/Quick ? 1 : 2,
                        /*MaxDiagnoses=*/Smoke ? 8 : 24, Threads);

  // External DIMACS/WCNF instances ride along after the standard suite,
  // each solved with inprocessing on and off (the *_nopre twin) so the
  // recorded JSON carries its own preprocessing baseline.
  if (WcnfDir)
    benchWcnfSweep(WcnfDir, Threads);

  // Replaces this bench's workloads only; the repair twins stay.
  unsigned Cores = std::thread::hardware_concurrency();
  std::vector<std::string> Entries;
  for (const WorkloadResult &W : Results)
    Entries.push_back(renderWorkload(W, Cores));
  std::string Error;
  if (!mergeBenchJson(JsonPath,
                      {{"bench", jsonString("bench_solvers")},
                       {"hardware_concurrency", std::to_string(Cores)}},
                      Entries, /*RepairOwner=*/false, Error)) {
    std::printf("bench JSON not written: %s\n", Error.c_str());
    return 1;
  }
  std::printf("wrote %s\n", JsonPath);
  return 0;
}
