//===- OptionTable.cpp - The one table of CLI flags and serve keys --------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/OptionTable.h"

#include "programs/FaultCatalog.h"
#include "programs/Tcas.h"
#include "programs/TcasMutants.h"
#include "serve/Json.h"
#include "support/FileUtil.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>

using namespace bugassist;

namespace {

using K = OptionKind;

constexpr unsigned Loc = cmdBit(Command::Localize);
constexpr unsigned Rep = cmdBit(Command::Repair);
constexpr unsigned Mxs = cmdBit(Command::MaxSat);
constexpr unsigned Sat = cmdBit(Command::Sat);
constexpr unsigned Fuz = cmdBit(Command::Fuzz);
constexpr unsigned Srv = cmdBit(Command::Serve);
constexpr unsigned Prog = Loc | Rep;
constexpr unsigned Solve = Loc | Rep | Mxs | Sat;
constexpr unsigned None = 0;
constexpr uint64_t Unbounded = UINT64_MAX;

// A row's setter: O is the CommandOptions being filled, V the decoded value.
#define SET(...) [](CommandOptions &O, const OptionValue &V) { __VA_ARGS__; }

const std::vector<OptionSpec> Rows = {
    // --- the query budget (every solving command) ----------------------------
    {"--timeout", "timeout", K::Seconds, Solve, Solve, "SECONDS",
     "wall-clock deadline for the whole query, fractional ok (default: none)",
     SET(O.Pipeline.Localize.Budget.TimeoutSeconds = V.Seconds)},
    {"--max-conflicts", "max_conflicts", K::Integer, Solve, Solve, "N",
     "total conflict cap (default: none)",
     SET(O.Pipeline.Localize.Budget.MaxConflicts = V.Uint), 1, Unbounded},
    // Capped so MaxMemoryMb << 20 cannot overflow uint64_t.
    {"--max-memory-mb", "max_memory_mb", K::Integer, Solve, Solve, "N",
     "clause-arena cap per solver, in MiB (default: none)",
     SET(O.Pipeline.Localize.Budget.MaxMemoryMb = V.Uint), 1, 1ull << 30},

    // --- the program and its encoding ----------------------------------------
    {nullptr, "id", K::String, None, Solve, nullptr,
     "echoed in the response frames (default: the request number)",
     SET(O.Id = V.Text)},
    {nullptr, "source", K::String, None, Prog, nullptr, "program text",
     SET(O.Program = V.Text; ++O.ProgramSources)},
    {nullptr, "tcas", K::Integer, None, Prog, nullptr,
     "checked-in TCAS version (0: correct, 1..41: mutants)",
     SET(O.Program = V.Uint == 0 ? tcasSource()
                                 : tcasMutants()[V.Uint - 1].Source;
         ++O.ProgramSources),
     0, 41},
    {nullptr, "file", K::String, None, Solve, nullptr,
     "path of the program or DIMACS file, read by the server",
     SET(O.File = V.Text; ++O.ProgramSources)},
    {nullptr, "wcnf", K::String, None, Mxs, nullptr, "DIMACS/WCNF text",
     SET(O.Program = V.Text; ++O.ProgramSources)},
    {nullptr, "cnf", K::String, None, Sat, nullptr, "DIMACS CNF text",
     SET(O.Program = V.Text; ++O.ProgramSources)},
    {"--entry", "entry", K::String, Prog | Fuz, Prog, "NAME",
     "entry function (default: main)", SET(O.Pipeline.Entry = V.Text)},
    {"--input", "input", K::Input, Loc, Loc, "\"V,[A,B],..\"",
     "the failing input (default: find one by BMC)",
     SET(O.Pipeline.Input = V.Input)},
    {"--input", "inputs", K::Input, Rep, Rep, "\"V,[A,B],..\"",
     "test input, repeatable: the first must fail and drives localization, "
     "all screen candidates",
     SET(O.Inputs.push_back(V.Input)), 0, 0, nullptr, true},
    {"--golden", "golden", K::Integer, Loc, Loc, "N",
     "expected return value for the input (default: none)",
     SET(O.Pipeline.GoldenReturn = V.Int), INT64_MIN, INT64_MAX},
    {"--golden", "goldens", K::Integer, Rep, Rep, "N",
     "expected return of the matching input, repeatable (count must match)",
     SET(O.Goldens.push_back(V.Int)), INT64_MIN, INT64_MAX, nullptr, true},
    {"--no-obligations", "check_obligations", K::NegatedBool, Prog, Prog,
     nullptr, "ignore assert/bounds obligations in the spec",
     SET(O.Pipeline.CheckObligations = V.Bool)},
    {"--no-bounds", "bounds", K::NegatedBool, Prog | Fuz, Prog, nullptr,
     "do not encode array-bounds obligations",
     SET(O.Pipeline.Unroll.CheckArrayBounds = V.Bool; O.UnrollGiven = true)},
    {"--unwind", "unwind", K::Integer, Prog | Fuz, Prog, "N",
     "loop unwinding bound (default: 16)",
     SET(O.Pipeline.Unroll.MaxLoopUnwind = static_cast<int>(V.Uint);
         O.UnrollGiven = true),
     // Well below INT_MAX: the unrolled trace grows linearly in the bound.
     1, 1000000},
    {"--bitwidth", "bitwidth", K::Integer, Prog | Fuz, Prog, "W",
     "word width in bits (default: 16)",
     SET(O.Pipeline.Unroll.BitWidth = static_cast<int>(V.Uint);
         O.UnrollGiven = true),
     1, 64},
    {"--hard-lines", "hard_lines", K::HardLines, Prog | Fuz, Prog, "SPEC",
     "never-blamed lines, e.g. 3,10-12 (default: none)",
     SET(O.Pipeline.Unroll.HardLines.insert(V.Lines.begin(), V.Lines.end()))},

    // --- localization --------------------------------------------------------
    {"--max-diagnoses", "max_diagnoses", K::Integer, Prog, Prog, "N",
     "CoMSS cap (default: 16)",
     SET(O.Pipeline.Localize.MaxDiagnoses = V.Uint), 1, Unbounded},
    {"--weighted", "weighted", K::Flag, Prog, Prog, nullptr,
     "weighted linear-search MaxSAT engine",
     SET(O.Pipeline.Localize.Weighted = V.Bool)},
    {"--threads", nullptr, K::Integer, Solve, None, "N",
     "portfolio width (default: 1)",
     SET(O.Pipeline.Localize.Threads = V.Uint), 1, 64},
    {"--no-preprocess", nullptr, K::NegatedBool, Solve, None, nullptr,
     "disable clause-database simplification",
     SET(O.Pipeline.Localize.Preprocess = V.Bool)},
    {"--json", "json", K::Flag, Prog, Prog, nullptr,
     "JSON report instead of text", SET(O.Json = V.Bool)},
    {"--stats", nullptr, K::Flag, Loc | Mxs, None, nullptr,
     "append solver statistics (nondeterministic)", SET(O.Stats = V.Bool)},

    // --- repair --------------------------------------------------------------
    {"--no-off-by-one", "off_by_one", K::NegatedBool, Rep, Rep, nullptr,
     "skip constant +/-1 mutations", SET(O.Repair.OffByOne = V.Bool)},
    {"--no-op-swap", "op_swap", K::NegatedBool, Rep, Rep, nullptr,
     "skip near-miss operator swaps", SET(O.Repair.OperatorSwap = V.Bool)},
    {"--no-prescreen", "prescreen", K::NegatedBool, Rep, Rep, nullptr,
     "skip the pooled per-line SAT prescreen",
     SET(O.Repair.PrescreenLines = V.Bool)},
    {"--max-candidates", "max_candidates", K::Integer, Rep, Rep, "N",
     "candidate mutants to try (default: 256)",
     SET(O.Repair.MaxCandidates = V.Uint), 1, Unbounded},
    {"--verify-budget", "verify_budget", K::Integer, Rep, Rep, "N",
     "conflict cap per BMC re-verification (default: 200000)",
     SET(O.Repair.VerifyBudget = V.Uint), 0, Unbounded},

    // --- maxsat / sat --------------------------------------------------------
    {"--engine", "engine", K::Enum, Mxs, Mxs, nullptr,
     "MaxSAT engine (default: auto, i.e. fumalik for unit weights, linear "
     "otherwise)",
     SET(O.Engine = V.Text), 0, 0, "auto|fumalik|linear"},
    {"--no-model", "model", K::NegatedBool, Mxs | Sat, Mxs | Sat, nullptr,
     "suppress the v line", SET(O.Model = V.Bool)},

    // --- fuzz ----------------------------------------------------------------
    {"--seed", nullptr, K::Integer, Fuz, None, "N",
     "mutation stream seed (default: 1)", SET(O.Fuzz.Seed = V.Uint), 0,
     Unbounded},
    {"--count", nullptr, K::Integer, Fuz, None, "N",
     "mutants to generate (default: 100)", SET(O.Fuzz.Count = V.Uint), 1,
     100000},
    {"--pool", nullptr, K::Integer, Fuz, None, "N",
     "test-pool size (default: 400 tcas, 256 file)", SET(O.Pool = V.Uint), 1,
     1000000},
    {"--threads", nullptr, K::Integer, Fuz, None, "N",
     "the K in the 1-vs-K differential and mutants judged at once "
     "(default: 4)",
     SET(O.Fuzz.Threads = static_cast<int>(V.Uint)), 1, 64},
    {"--classes", nullptr, K::List, Fuz, None, "a,b,..",
     "restrict to these fault classes (default: all)",
     SET(O.Fuzz.Classes.insert(O.Fuzz.Classes.end(), V.Classes.begin(),
                               V.Classes.end()))},
    {"--max-diagnoses", nullptr, K::Integer, Fuz, None, "N",
     "CoMSS cap per localization (default: 8)",
     SET(O.Fuzz.MaxDiagnoses = V.Uint), 1, Unbounded},
    {"--max-tests", nullptr, K::Integer, Fuz, None, "N",
     "failing tests kept per mutant (default: 4)",
     SET(O.Fuzz.MaxFailingTests = V.Uint), 1, Unbounded},
    {"--no-repair", nullptr, K::NegatedBool, Fuz, None, nullptr,
     "skip Algorithm 2 repair on hits", SET(O.Fuzz.TryRepair = V.Bool)},
    {"--max-candidates", nullptr, K::Integer, Fuz, None, "N",
     "repair candidate cap (default: 64)",
     SET(O.Fuzz.RepairMaxCandidates = V.Uint), 1, Unbounded},
    {"--verify-budget", nullptr, K::Integer, Fuz, None, "N",
     "repair BMC conflict cap (default: 200000)",
     SET(O.Fuzz.RepairVerifyBudget = V.Uint), 0, Unbounded},
    {"--progress", nullptr, K::Flag, Fuz, None, nullptr,
     "progress counter on stderr", SET(O.Progress = V.Bool)},

    // --- serve ---------------------------------------------------------------
    {"--batch", nullptr, K::String, Srv, None, "FILE",
     "answer the requests in FILE and exit (default: a daemon on stdin)",
     SET(O.Batch = V.Text)},
    {"--threads", nullptr, K::Integer, Srv, None, "N",
     "request pool width (default: 1)", SET(O.Serve.Threads = V.Uint), 1,
     64},
    {"--max-retries", nullptr, K::Integer, Srv, None, "N",
     "retries of a request whose worker crashed (default: 2)",
     SET(O.Serve.MaxRetries = static_cast<int>(V.Uint)), 0, 16},
    {"--watchdog", nullptr, K::Seconds, Srv, None, "SECONDS",
     "interrupt any request running longer (default: off)",
     SET(O.Serve.WatchdogSeconds = V.Seconds)},
    {"--faults", nullptr, K::String, Srv, None, "SPEC",
     "arm a test-only fault-injection campaign (default: $BUGASSIST_FAULTS)",
     SET(O.Faults = V.Text)},
};

#undef SET

const std::vector<CommandInfo> Commands = {
    {Command::Localize, "localize", "<prog.ba> [options]",
     "fault-localize a mini-C program", true},
    {Command::Repair, "repair", "<prog.ba> [options]",
     "localize, then suggest a validated fix", true},
    {Command::Fuzz, "fuzz", "<tcas|prog.ba> [options]",
     "differential mutant sweep, JSON scorecard on stdout, exit 1 on a "
     "mismatch (tcas fixes its own unroll options)",
     false},
    {Command::MaxSat, "maxsat", "<file.wcnf> [options]",
     "partial (weighted) MaxSAT, o/s/v output", true},
    {Command::Sat, "sat", "<file.cnf> [options]",
     "plain SAT, raced over the portfolio when --threads > 1", true},
    {Command::Serve, "serve", "[options]",
     "batch/daemon localization service (docs/SERVE.md)", false},
    {Command::DumpTcas, "dump-tcas", "[N | --list]",
     "print TCAS source (0: correct, 1..41: mutants) or the mutant catalog",
     false},
};

std::string boundText(uint64_t V, bool Negative) {
  if (Negative)
    return V == uint64_t(INT64_MAX) + 1 ? "-2^63" : "-" + std::to_string(V);
  if (V == UINT64_MAX)
    return "2^64-1";
  if (V == uint64_t(INT64_MAX))
    return "2^63-1";
  return std::to_string(V);
}

bool parseInteger(const OptionSpec &S, const std::string &T, OptionValue &V) {
  if (T.empty())
    return false;
  char *End = nullptr;
  errno = 0;
  if (S.Min < 0) {
    long long N = std::strtoll(T.c_str(), &End, 10);
    if (End != T.c_str() + T.size() || errno == ERANGE || N < S.Min ||
        (N > 0 && uint64_t(N) > S.Max))
      return false;
    V.Int = N;
    return true;
  }
  // strtoull silently negates "-N"; reject any sign explicitly.
  if (T[0] == '-' || T[0] == '+')
    return false;
  unsigned long long N = std::strtoull(T.c_str(), &End, 10);
  if (End != T.c_str() + T.size() || errno == ERANGE ||
      N < uint64_t(S.Min) || N > S.Max)
    return false;
  V.Uint = N;
  return true;
}

bool parseSeconds(const std::string &T, double &Out) {
  if (T.empty() || T[0] == '-' || T[0] == '+')
    return false;
  char *End = nullptr;
  errno = 0;
  double D = std::strtod(T.c_str(), &End);
  // Anything over 1e9 seconds is a typo, not a deadline.
  if (End != T.c_str() + T.size() || errno == ERANGE || !(D > 0) || D > 1e9)
    return false;
  Out = D;
  return true;
}

bool parseClasses(const std::string &T, std::vector<ErrorType> &Out,
                  std::string &Detail) {
  for (size_t Pos = 0; Pos < T.size();) {
    size_t Comma = T.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = T.size();
    std::string Name = T.substr(Pos, Comma - Pos);
    ErrorType E;
    if (!errorTypeFromName(Name.c_str(), E)) {
      Detail = "unknown fault class '" + Name + "'";
      return false;
    }
    Out.push_back(E);
    Pos = Comma + 1;
  }
  return true;
}

bool isBool(const OptionSpec &S) {
  return S.Kind == K::Flag || S.Kind == K::NegatedBool;
}

/// The row validator both decoders share: \p T is the argv text or the
/// JSON token. \p Detail explains a syntax error where the kind has one.
bool decodeText(const OptionSpec &S, const std::string &T, OptionValue &V,
                std::string &Detail) {
  switch (S.Kind) {
  case K::Flag:
  case K::NegatedBool:
    return false; // no text form
  case K::Integer:
    return parseInteger(S, T, V);
  case K::Seconds:
    return parseSeconds(T, V.Seconds);
  case K::String:
    V.Text = T;
    return true;
  case K::Input: {
    auto In = parseInputVector(T, Detail);
    if (In)
      V.Input = std::move(*In);
    return In.has_value();
  }
  case K::HardLines:
    return parseHardLinesSpec(T, V.Lines);
  case K::Enum:
    for (std::string_view C = S.Choices; !C.empty();) {
      size_t Bar = std::min(C.find('|'), C.size());
      if (C.substr(0, Bar) == T) {
        V.Text = T;
        return true;
      }
      C.remove_prefix(std::min(Bar + 1, C.size()));
    }
    return false;
  case K::List:
    return parseClasses(T, V.Classes, Detail);
  }
  return false;
}

bool decodeJson(const OptionSpec &S, const JsonValue &J, OptionValue &V,
                std::string &Detail) {
  if (isBool(S)) {
    V.Bool = J.BoolVal;
    return J.isBool();
  }
  bool Numeric = S.Kind == K::Integer || S.Kind == K::Seconds;
  return (Numeric ? J.isNumber() : J.isString()) &&
         decodeText(S, J.Text, V, Detail);
}

const OptionSpec *findRow(std::string_view Name, bool Key, unsigned Cmds) {
  for (const OptionSpec &S : Rows) {
    const char *N = Key ? S.Key : S.Flag;
    if (N && Name == N && ((Key ? S.Json : S.Cli) & Cmds))
      return &S;
  }
  return nullptr;
}

std::string requestCommandList() {
  std::string Out;
  for (const CommandInfo &C : Commands)
    if (C.Request)
      Out += std::string(Out.empty() ? "" : ", ") + "\"" + C.Name + "\"";
  return Out;
}

} // namespace

const std::vector<CommandInfo> &bugassist::commands() { return Commands; }

const CommandInfo *bugassist::findCommand(std::string_view Name) {
  for (const CommandInfo &C : Commands)
    if (Name == C.Name)
      return &C;
  return nullptr;
}

const char *bugassist::commandName(Command Cmd) {
  for (const CommandInfo &C : Commands)
    if (C.Cmd == Cmd)
      return C.Name;
  return "unknown";
}

const std::vector<OptionSpec> &bugassist::optionTable() { return Rows; }

RepairRequest CommandOptions::repairRequest() const {
  RepairRequest R;
  R.Entry = Pipeline.Entry;
  R.Unroll = Pipeline.Unroll;
  R.Encode = Pipeline.Encode;
  R.CheckObligations = Pipeline.CheckObligations;
  R.Localize = Pipeline.Localize;
  R.Inputs = Inputs;
  R.Goldens = Goldens;
  R.Repair = Repair;
  return R;
}

std::string bugassist::rangeText(const OptionSpec &S) {
  if (S.Kind == K::Seconds)
    return "(0, 1e9]";
  return "[" +
         boundText(S.Min < 0 ? 0 - uint64_t(S.Min) : uint64_t(S.Min),
                   S.Min < 0) +
         ", " + boundText(S.Max, false) + "]";
}

std::string bugassist::describeValue(const OptionSpec &S) {
  switch (S.Kind) {
  case K::Flag:
  case K::NegatedBool:
    return "a boolean";
  case K::Integer:
    return "an integer in " + rangeText(S);
  case K::Seconds:
    return "a number of seconds in " + rangeText(S);
  case K::String:
    return "a string";
  case K::Input:
    return "an input vector like 3,[1,2],0";
  case K::HardLines:
    return "a line spec like 3,10-12";
  case K::Enum: {
    std::string Out = "one of ";
    for (const char *C = S.Choices; *C; ++C)
      Out += *C == '|' ? std::string(", ") : std::string(1, *C);
    return Out;
  }
  case K::List: {
    std::string Out = "a comma-separated list of fault classes (";
    for (size_t I = 0; I < NumErrorTypes; ++I)
      Out += std::string(I ? "," : "") +
             errorTypeName(static_cast<ErrorType>(I));
    return Out + ")";
  }
  }
  return "";
}

bool bugassist::parseCommandLine(Command C, int Argc, char **Argv,
                                 CommandOptions &O, std::string &Error) {
  for (int I = 0; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    std::string_view Name = Arg.substr(0, Arg.find('='));
    bool Inline = Name.size() < Arg.size();
    const OptionSpec *S = findRow(Name, /*Key=*/false, cmdBit(C));
    if (!S || (Inline && isBool(*S))) {
      Error = std::string("unknown ") + commandName(C) + " option '" +
              std::string(Arg) + "'";
      return false;
    }
    OptionValue V;
    if (isBool(*S)) {
      V.Bool = S->Kind == K::Flag;
    } else {
      if (!Inline && I + 1 == Argc) {
        Error = "missing value for " + std::string(Name);
        return false;
      }
      std::string Text(Inline ? Arg.substr(Name.size() + 1) : Argv[++I]);
      std::string Detail;
      if (!decodeText(*S, Text, V, Detail)) {
        Error = "bad " + std::string(Name) + " value '" + Text +
                "': expected " + describeValue(*S) +
                (Detail.empty() ? "" : " (" + Detail + ")");
        return false;
      }
    }
    S->Set(O, V);
  }
  return true;
}

bool bugassist::checkRepairTests(const CommandOptions &O, std::string &Error) {
  if (O.Inputs.empty()) {
    Error = "repair requires at least one failing input (--input, or a "
            "non-empty 'inputs' array)";
    return false;
  }
  if (!O.Goldens.empty() && O.Goldens.size() != O.Inputs.size()) {
    Error = std::to_string(O.Goldens.size()) + " goldens for " +
            std::to_string(O.Inputs.size()) +
            " inputs: 'goldens' must match 'inputs' in length";
    return false;
  }
  return true;
}

bool bugassist::parseRequest(const JsonValue &Root, Command &C,
                             CommandOptions &O, std::string &Error,
                             ErrorCode &Code) {
  Code = ErrorCode::BadRequest;
  if (!Root.isObject()) {
    Error = "request must be a JSON object";
    return false;
  }
  auto Apply = [&](const std::string &Key, const OptionSpec &S,
                   const JsonValue &J) {
    std::string Detail;
    auto One = [&](const JsonValue &E) {
      OptionValue V;
      if (!decodeJson(S, E, V, Detail))
        return false;
      S.Set(O, V);
      return true;
    };
    bool Ok = S.Repeated ? J.K == JsonValue::Kind::Array : One(J);
    for (size_t I = 0; Ok && S.Repeated && I < J.Elements.size(); ++I)
      Ok = One(J.Elements[I]);
    if (!Ok)
      Error = "field '" + Key + "' must be " +
              (S.Repeated ? "an array, each element " : "") +
              describeValue(S) + (Detail.empty() ? "" : ": " + Detail);
    return Ok;
  };

  // The id first, so even a request rejected below is addressable.
  if (const JsonValue *Id = Root.find("id"))
    if (!Apply("id", *findRow("id", /*Key=*/true, Solve), *Id))
      return false;
  const JsonValue *CmdV = Root.find("cmd");
  if (!CmdV) {
    Error = "missing required field 'cmd'";
    return false;
  }
  const CommandInfo *Info = CmdV->isString() ? findCommand(CmdV->Text)
                                             : nullptr;
  if (!Info || !Info->Request) {
    Error = "field 'cmd' must be one of " + requestCommandList();
    return false;
  }
  C = Info->Cmd;
  for (const auto &[Key, Val] : Root.Members) {
    if (Key == "id" || Key == "cmd")
      continue;
    const OptionSpec *S = findRow(Key, /*Key=*/true, cmdBit(C));
    if (!S) {
      // Strict by design: an unknown (or wrong-command) field is a typo
      // the user wants to hear about, not silently-ignored noise.
      Error = "unknown field '" + Key + "' for cmd \"" + Info->Name + "\"";
      return false;
    }
    if (!Apply(Key, *S, Val))
      return false;
  }

  const bool Prog = C == Command::Localize || C == Command::Repair;
  const char *Wanted = Prog                    ? "'source', 'file', or 'tcas'"
                       : C == Command::MaxSat ? "'wcnf' or 'file'"
                                              : "'cnf' or 'file'";
  if (O.ProgramSources != 1) {
    Error = std::string(O.ProgramSources ? "conflicting program fields"
                                         : "missing program") +
            ": give exactly one of " + Wanted;
    return false;
  }
  if (Root.find("file")) {
    auto Text = readFileToString(O.File);
    if (!Text) {
      Error = "cannot read file '" + O.File + "'";
      Code = ErrorCode::FileUnreadable;
      return false;
    }
    O.Program = std::move(*Text);
  }
  return C != Command::Repair || checkRepairTests(O, Error);
}

std::string bugassist::renderUsage(const char *Argv0) {
  std::string Out = std::string("usage: ") + Argv0 +
                    " <command> [args]\n\ncommands:\n";
  auto Line = [&](const std::string &Left, const std::string &Right,
                  size_t Width) {
    Out += Left;
    Out += Left.size() < Width ? std::string(Width - Left.size(), ' ')
                               : "\n" + std::string(Width, ' ');
    Out += Right + "\n";
  };
  for (const CommandInfo &C : Commands) {
    Line(std::string("  ") + C.Name + " " + C.Args, C.Summary, 34);
    for (const OptionSpec &S : Rows) {
      if (!S.Flag || !(S.Cli & cmdBit(C.Cmd)))
        continue;
      std::string Left = std::string("    ") + S.Flag;
      if (!isBool(S))
        Left += std::string(" ") + (S.Kind == K::Enum ? S.Choices : S.Meta);
      std::string Help = S.Help;
      if (S.Kind == K::Integer || S.Kind == K::Seconds)
        Help += " " + rangeText(S);
      Line(Left, Help, 30);
    }
  }
  Out += "\nexit codes: 0 complete, 1 input or usage error, 2 a resource "
         "budget\nstopped the run (the best-so-far result is printed)\n";
  return Out;
}
