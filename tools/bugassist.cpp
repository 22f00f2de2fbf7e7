//===- bugassist.cpp - The BugAssist command-line tool ------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// The user-facing entry point to the pipeline (docs/CLI.md is the full
// reference):
//
//   bugassist localize <prog.ba> [--input "..."] [--golden N] ...
//       parse -> sema -> unroll -> trace formula -> CoMSS enumeration on a
//       mini-C source file; prints the ranked per-line report (text or
//       --json). Without --input, a failing input is found by BMC.
//
//   bugassist repair <prog.ba> --input "..." [--golden N] ...
//       localize, then run Algorithm 2 over the suspect lines: off-by-one
//       and near-miss-operator mutants, screened on the failing tests and
//       re-verified by BMC, all through the encode-once Pipeline seam.
//
//   bugassist fuzz <tcas|prog.ba> [--seed N] [--count N] ...
//       deterministic differential sweep: seeded mutants of a golden
//       subject, each localized at --threads 1 and K and with
//       preprocessing off (reports must be byte-identical), scored
//       against the known fault line, repaired on hits; Table-1-style
//       JSON scorecard per fault class.
//
//   bugassist maxsat <file.wcnf> [--threads N]
//       partial (weighted) MaxSAT on a DIMACS/WCNF instance, MaxSAT-
//       Evaluation-style output (o/s/v lines).
//
//   bugassist sat <file.cnf> [--threads N]
//       plain SAT, raced over the portfolio when --threads > 1.
//
//   bugassist dump-tcas [N | --list]
//       prints the checked-in TCAS sources (0 = correct version, 1..41 =
//       the faulty Siemens-style mutants) so they can be fed back into
//       `bugassist localize`.
//
// Every flag is a row of the option table in serve/OptionTable.h, which
// also decodes serve's request keys and generates the --help text.
//
// The localize report is byte-identical at every --threads width: the
// portfolio canonicalizes its optima (see maxsat/Canonical.h), and solver
// statistics -- the only nondeterministic output -- are printed only under
// --stats.
//
//===----------------------------------------------------------------------===//

#include "cnf/DimacsReader.h"
#include "core/Pipeline.h"
#include "lang/Sema.h"
#include "maxsat/MaxSat.h"
#include "maxsat/Portfolio.h"
#include "mutate/FuzzSweep.h"
#include "programs/FaultCatalog.h"
#include "programs/Tcas.h"
#include "programs/TcasMutants.h"
#include "serve/LocalizeServer.h"
#include "serve/OptionTable.h"
#include "support/FaultInject.h"
#include "support/FileUtil.h"
#include "support/Rng.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

using namespace bugassist;

namespace {

// Exit-code contract (docs/CLI.md): 0 = the run completed (a decided
// answer, including UNSATISFIABLE), 1 = input or usage error, 2 = a
// resource budget stopped the run early (the partial output printed is
// best-so-far, flagged INCOMPLETE / UNKNOWN).
constexpr int ExitComplete = 0;
constexpr int ExitInputError = 1;
constexpr int ExitBudgetExhausted = 2;

int usage(const char *Argv0) {
  std::fputs(renderUsage(Argv0).c_str(), stderr);
  return ExitInputError;
}

// --- localize ----------------------------------------------------------------

int cmdLocalize(const std::string &Path, const CommandOptions &O) {
  auto Source = readFileToString(Path);
  if (!Source) {
    std::fprintf(stderr, "bugassist: cannot read '%s'\n", Path.c_str());
    return 1;
  }

  PipelineResult Res = runLocalizePipeline(*Source, O.Pipeline);
  switch (Res.Status) {
  case PipelineStatus::CompileError:
    std::fprintf(stderr, "bugassist: %s does not compile:\n%s", Path.c_str(),
                 Res.Message.c_str());
    return 1;
  case PipelineStatus::InputNotFailing:
    std::fprintf(stderr, "bugassist: nothing to localize: %s\n",
                 Res.Message.c_str());
    return 1;
  case PipelineStatus::NoCounterexample:
  case PipelineStatus::Localized:
    break;
  }

  // The canonical output bytes, shared with serve mode so batch responses
  // diff clean against one-shot runs.
  std::string Body = renderLocalizeOutput(Res, O.Json);
  std::fwrite(Body.data(), 1, Body.size(), stdout);
  if (O.Stats && Res.Status == PipelineStatus::Localized)
    std::printf("%s", renderSearchStats(Res.Report).c_str());
  // The partial output was still printed (INCOMPLETE-marked); the exit
  // code tells scripts the counterexample search or the enumeration did
  // not finish.
  return Res.Report.Incomplete ? ExitBudgetExhausted : ExitComplete;
}

// --- repair ------------------------------------------------------------------

int cmdRepair(const std::string &Path, const CommandOptions &O) {
  std::string Error;
  if (!checkRepairTests(O, Error)) {
    std::fprintf(stderr, "bugassist: %s\n", Error.c_str());
    return 1;
  }
  auto Source = readFileToString(Path);
  if (!Source) {
    std::fprintf(stderr, "bugassist: cannot read '%s'\n", Path.c_str());
    return 1;
  }

  RepairRequest R = O.repairRequest();
  auto Prepared = prepareProgram(*Source, R.Entry, R.Unroll, R.Encode, Error);
  if (!Prepared) {
    std::fprintf(stderr, "bugassist: %s does not compile:\n%s", Path.c_str(),
                 Error.c_str());
    return 1;
  }
  RepairPipelineResult Res = runRepairPipeline(*Prepared, R);
  switch (Res.Status) {
  case PipelineStatus::CompileError:
  case PipelineStatus::NoCounterexample:
  case PipelineStatus::InputNotFailing:
    std::fprintf(stderr, "bugassist: nothing to repair: %s\n",
                 Res.Message.c_str());
    return 1;
  case PipelineStatus::Localized:
    break;
  }
  // Canonical output bytes, shared with serve's `repair` command.
  std::string Body = renderRepairOutput(Res, O.Json);
  std::fwrite(Body.data(), 1, Body.size(), stdout);
  return Res.Code == ErrorCode::BudgetExhausted ? ExitBudgetExhausted
                                                : ExitComplete;
}

// --- fuzz --------------------------------------------------------------------

/// Seeded pool for a file subject: uniform scalars in a small signed range
/// (and per-element for arrays), matching the spirit of tcasTestPool.
std::vector<InputVector> genericTestPool(const FunctionDecl &Entry,
                                         size_t Count, uint64_t Seed) {
  Rng R(Seed);
  std::vector<InputVector> Pool;
  Pool.reserve(Count);
  for (size_t I = 0; I < Count; ++I) {
    InputVector In;
    for (const auto &P : Entry.params()) {
      if (P->type().isArray()) {
        std::vector<int64_t> Vs;
        for (int J = 0; J < P->type().ArraySize; ++J)
          Vs.push_back(R.range(-100, 100));
        In.push_back(InputValue::array(std::move(Vs)));
      } else if (P->type().isBool()) {
        In.push_back(InputValue::scalar(static_cast<int64_t>(R.below(2))));
      } else {
        In.push_back(InputValue::scalar(R.range(-100, 100)));
      }
    }
    Pool.push_back(std::move(In));
  }
  return Pool;
}

int cmdFuzz(const std::string &Target, const CommandOptions &O) {
  FuzzSubject Subject;
  std::unique_ptr<Program> Owned;
  DiagEngine Diags;
  if (Target == "tcas") {
    if (O.UnrollGiven)
      std::fprintf(stderr,
                   "bugassist: note: tcas subject fixes unroll options; "
                   "--unwind/--bitwidth/--no-bounds ignored\n");
    Owned = parseAndAnalyze(tcasSource(), Diags);
    if (!Owned) {
      std::fprintf(stderr, "bugassist: internal: tcas does not compile\n");
      return 1;
    }
    Subject.Name = "tcas";
    Subject.Unroll = tcasUnrollOptions();
    Subject.CheckObligations = false; // golden-return methodology
    Subject.Pool = tcasTestPool(O.Pool ? O.Pool : 400);
  } else {
    auto Source = readFileToString(Target);
    if (!Source) {
      std::fprintf(stderr, "bugassist: cannot read '%s'\n", Target.c_str());
      return 1;
    }
    Owned = parseAndAnalyze(*Source, Diags);
    if (!Owned) {
      std::fprintf(stderr, "bugassist: %s does not compile:\n%s",
                   Target.c_str(), Diags.render().c_str());
      return 1;
    }
    const std::string &Entry = O.Pipeline.Entry;
    const FunctionDecl *EntryFn = Owned->findFunction(Entry);
    if (!EntryFn) {
      std::fprintf(stderr, "bugassist: no function '%s' in %s\n",
                   Entry.c_str(), Target.c_str());
      return 1;
    }
    size_t Dot = Target.find_last_of("/\\");
    Subject.Name = Dot == std::string::npos ? Target : Target.substr(Dot + 1);
    Subject.Entry = Entry;
    Subject.Unroll = O.Pipeline.Unroll;
    Subject.CheckObligations = true;
    Subject.Pool =
        genericTestPool(*EntryFn, O.Pool ? O.Pool : 256, 20110601);
  }
  Subject.Base = Owned.get();
  // --hard-lines adds to the subject's own hard lines on both subjects.
  const std::set<uint32_t> &Hard = O.Pipeline.Unroll.HardLines;
  Subject.Unroll.HardLines.insert(Hard.begin(), Hard.end());
  Subject.ProtectedLines = Subject.Unroll.HardLines;

  FuzzProgress Progress;
  if (O.Progress)
    Progress = [](size_t Done, size_t Total) {
      if (Done % 10 == 0 || Done == Total)
        std::fprintf(stderr, "fuzz: %zu/%zu\n", Done, Total);
    };
  FuzzResult Res = runFuzzSweep(Subject, O.Fuzz, Progress);
  std::string Card = renderFuzzScorecard(Subject, O.Fuzz, Res);
  std::fwrite(Card.data(), 1, Card.size(), stdout);
  for (const std::string &Note : Res.MismatchNotes)
    std::fprintf(stderr, "MISMATCH: %s\n", Note.c_str());
  // Any differential mismatch is a failure, not a warning.
  return Res.TotalMismatches == 0 ? ExitComplete : ExitInputError;
}

// --- maxsat / sat ------------------------------------------------------------

int cmdMaxsat(const std::string &Path, const CommandOptions &O) {
  DimacsParseError Err;
  auto Parsed = readDimacsFile(Path, Err);
  if (!Parsed) {
    std::fprintf(stderr, "bugassist: %s: %s\n", Path.c_str(),
                 Err.render().c_str());
    return 1;
  }

  const LocalizeOptions &L = O.Pipeline.Localize;
  bool FromWcnf = Parsed->Weighted;
  bool AnyWeight = false;
  MaxSatInstance Inst = toMaxSatInstance(std::move(*Parsed), &AnyWeight);
  Inst.WantModel = O.Model; // the v line
  bool Weighted = O.weightedEngine(AnyWeight);
  if (!Weighted && O.Engine == "fumalik" && AnyWeight)
    std::printf("c warning: fumalik engine ignores the non-unit weights\n");
  std::printf("c %s: %d vars, %zu hard, %zu soft%s, engine=%s, threads=%zu\n",
              Path.c_str(), Inst.NumVars, Inst.Hard.size(), Inst.Soft.size(),
              FromWcnf ? "" : " (cnf)",
              Weighted ? "linear" : "fumalik", L.Threads);

  Solver::Options SOpts;
  SOpts.Preprocess = L.Preprocess;
  std::unique_ptr<MaxSatSession> Session = makeMaxSatSession(
      Inst, Weighted, L.Threads, /*ConflictBudget=*/0, SOpts);
  if (L.Budget.any())
    Session->setBudget(L.Budget.solverBudget());
  MaxSatResult R = Session->solve();

  std::fputs(renderMaxSatAnswer(R, Inst.NumVars, O.Model, /*Comments=*/true)
                 .c_str(),
             stdout);
  if (O.Stats) {
    const SolverStats &S = R.Search;
    std::printf("c sat_calls=%llu conflicts=%llu propagations=%llu "
                "restarts=%llu\n",
                static_cast<unsigned long long>(R.SatCalls),
                static_cast<unsigned long long>(S.Conflicts),
                static_cast<unsigned long long>(S.Propagations),
                static_cast<unsigned long long>(S.Restarts));
    std::printf("c vars_eliminated=%llu clauses_subsumed=%llu "
                "lits_self_subsumed=%llu reconstruction_bytes=%llu\n",
                static_cast<unsigned long long>(S.VarsEliminated),
                static_cast<unsigned long long>(S.ClausesSubsumed),
                static_cast<unsigned long long>(S.LitsSelfSubsumed),
                static_cast<unsigned long long>(S.ReconstructBytes));
  }
  return R.Status == MaxSatStatus::Unknown ? ExitBudgetExhausted
                                           : ExitComplete;
}

int cmdSat(const std::string &Path, const CommandOptions &O) {
  DimacsParseError Err;
  auto Parsed = readDimacsFile(Path, Err);
  if (!Parsed) {
    std::fprintf(stderr, "bugassist: %s: %s\n", Path.c_str(),
                 Err.render().c_str());
    return 1;
  }
  const LocalizeOptions &L = O.Pipeline.Localize;
  // Soft clauses of a WCNF are solved as hard here; warn instead of
  // silently deciding a different formula.
  std::vector<Clause> Clauses = std::move(Parsed->Hard);
  if (!Parsed->Soft.empty()) {
    std::printf("c warning: treating %zu soft clauses as hard (use the "
                "maxsat command for optimization)\n",
                Parsed->Soft.size());
    for (DimacsSoftClause &C : Parsed->Soft)
      Clauses.push_back(std::move(C.Lits));
  }
  std::printf("c %s: %d vars, %zu clauses, threads=%zu\n", Path.c_str(),
              Parsed->NumVars, Clauses.size(), L.Threads);

  // Threads <= 1 degenerates to a plain single solver on this thread.
  Solver::Options SOpts;
  SOpts.Preprocess = L.Preprocess;
  SatRaceResult R = racePortfolioSat(Clauses, Parsed->NumVars, L.Threads,
                                     SOpts, L.Budget.solverBudget());
  std::fputs(
      renderSatAnswer(R, Parsed->NumVars, O.Model, /*Comments=*/true).c_str(),
      stdout);
  return R.Result == LBool::Undef ? ExitBudgetExhausted : ExitComplete;
}

// --- serve -------------------------------------------------------------------

/// SIGINT/SIGTERM -> graceful drain. requestDrain is one atomic store
/// (async-signal-safe); the handlers are installed *without* SA_RESTART so
/// a daemon blocked reading stdin is kicked out of the read by the signal
/// and notices the flag immediately.
extern "C" void serveDrainHandler(int) { LocalizeServer::requestDrain(); }

void installDrainHandlers() {
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = serveDrainHandler;
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = 0; // no SA_RESTART: interrupt blocking reads
  sigaction(SIGINT, &SA, nullptr);
  sigaction(SIGTERM, &SA, nullptr);
}


int cmdServe(const CommandOptions &O) {
  if (!O.Faults.empty()) {
    std::string Error;
    if (!faultinject::armSpec(O.Faults, Error)) {
      std::fprintf(stderr, "bugassist: bad fault spec: %s\n", Error.c_str());
      return ExitInputError;
    }
  }
  installDrainHandlers();

  LocalizeServer Server(O.Serve);
  if (O.Batch.empty()) {
    // Daemon loop: requests on stdin until EOF, responses flushed as their
    // turn in the request order arrives.
    ServeSummary S = Server.run(std::cin, std::cout, std::cerr);
    return S.ExitCode;
  }
  std::ifstream Batch(O.Batch);
  if (!Batch) {
    std::fprintf(stderr, "bugassist: cannot read '%s'\n", O.Batch.c_str());
    return ExitInputError;
  }
  ServeSummary S = Server.run(Batch, std::cout, std::cerr);
  return S.ExitCode;
}

// --- dump-tcas ---------------------------------------------------------------

int cmdDumpTcas(int Argc, char **Argv) {
  if (Argc >= 1 && std::strcmp(Argv[0], "--list") == 0) {
    std::printf("%-4s %-7s %-7s %-10s %s\n", "ver", "type", "errors",
                "bug lines", "description");
    for (const TcasMutant &M : tcasMutants()) {
      std::string Lines;
      for (uint32_t L : M.BugLines)
        Lines += (Lines.empty() ? "" : ",") + std::to_string(L);
      std::printf("v%-3d %-7s %-7d %-10s %s\n", M.Version,
                  errorTypeName(M.Type), M.ErrorCount, Lines.c_str(),
                  M.Description.c_str());
    }
    return 0;
  }
  long Version = 0;
  if (Argc >= 1 && std::strcmp(Argv[0], "golden") != 0) {
    char *End = nullptr;
    Version = std::strtol(Argv[0], &End, 10);
    if (End == Argv[0] || *End != '\0' || Version < 0 || Version > 41) {
      std::fprintf(stderr,
                   "bugassist: dump-tcas takes 0/golden or a version 1..41\n");
      return 1;
    }
  }
  const std::string &Source =
      Version == 0 ? tcasSource()
                   : tcasMutants()[static_cast<size_t>(Version - 1)].Source;
  std::fwrite(Source.data(), 1, Source.size(), stdout);
  if (!Source.empty() && Source.back() != '\n')
    std::printf("\n");
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    return usage(argv[0]);
  const char *Name = argv[1];
  if (std::strcmp(Name, "--help") == 0 || std::strcmp(Name, "-h") == 0 ||
      std::strcmp(Name, "help") == 0) {
    usage(argv[0]);
    return 0;
  }
  const CommandInfo *Info = findCommand(Name);
  if (!Info) {
    std::fprintf(stderr, "bugassist: unknown command '%s'\n", Name);
    return usage(argv[0]);
  }
  int Argc = argc - 2;
  char **Argv = argv + 2;
  if (Info->Cmd == Command::DumpTcas)
    return cmdDumpTcas(Argc, Argv);

  // Every other command but serve takes its input path first.
  const int Positional = Info->Cmd == Command::Serve ? 0 : 1;
  if (Argc < Positional)
    return usage(argv[0]);
  CommandOptions O;
  // Test-only fault campaign: the env var arms one for a whole harness
  // run; an explicit --faults flag overrides it.
  if (const char *Env = std::getenv("BUGASSIST_FAULTS"))
    O.Faults = Env;
  std::string Error;
  if (!parseCommandLine(Info->Cmd, Argc - Positional, Argv + Positional, O,
                        Error)) {
    std::fprintf(stderr, "bugassist: %s\n", Error.c_str());
    return ExitInputError;
  }
  const std::string Path = Positional ? Argv[0] : "";
  switch (Info->Cmd) {
  case Command::Localize:
    return cmdLocalize(Path, O);
  case Command::Repair:
    return cmdRepair(Path, O);
  case Command::Fuzz:
    return cmdFuzz(Path, O);
  case Command::MaxSat:
    return cmdMaxsat(Path, O);
  case Command::Sat:
    return cmdSat(Path, O);
  case Command::Serve:
    return cmdServe(O);
  case Command::DumpTcas:
    break; // dispatched above
  }
  return usage(argv[0]);
}
