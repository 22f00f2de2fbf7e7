//===- ServeMixed.cpp - Open-loop workload against `bugassist serve` -------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// One `bugassist serve --threads 2` daemon, driven over its stdin/stdout
// pipes by one writer thread (sending on a seeded Poisson schedule) and one
// reader thread (parsing the framed responses). The mix:
//
//   75% hit     localize a TCAS version (Zipf-skewed, so the formula cache
//               answers), with one of its failing tests
//   10% miss    localize a fresh seeded mutant of TCAS (parse + encode +
//               base-session build in the daemon)
//   10% repair  repair a TCAS version (Algorithm 2 on the cached formula)
//    5% bmc     localize the paper's Program 1 without an input (BMC finds
//               the counterexample)
//
// The run is a reference-rate phase, then a fixed ladder of rates climbed
// until a step misses the latency limit or backlogs. Every request is timed
// from its due time to the end of its trailer line, and every `ok` body is
// compared with the bytes the library renders in-process for the same
// request.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "core/Pipeline.h"
#include "lang/AstPrinter.h"
#include "lang/Sema.h"
#include "mutate/MutantGenerator.h"
#include "programs/SmallDemos.h"
#include "programs/Tcas.h"
#include "programs/TcasMutants.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

extern char **environ;

using namespace bugassist;
using namespace perfbench;

namespace {

// --- the schedule ------------------------------------------------------------

// Phases run back to back, each waiting for all of its answers:
//  * reference: ReferenceSegments segments at ReferenceRate, together 64%
//    of --seconds (200 requests each at 25 s); serve latency is read here. op_ms_p50 and op_ms_tail are
//    the lowest p50 and p95 over the segments: each segment repeats the
//    same experiment, and its best filters out host contention, as
//    fastest() does;
//  * saturation: SaturationBursts bursts of SaturationRequests sent at
//    SaturationRate, far above what the daemon answers; answers per second
//    over the fastest burst is its throughput (ops_per_s). A mean over
//    hundreds of requests is far steadier than a latency-limited rate, and
//    the fastest burst filters out host contention, as fastest() does;
//  * ladder (traced runs only): the fixed rates below, climbed until a step
//    misses the latency limit or backlogs; the highest passing rate is
//    serve.max_rps. Near its knee a step's p95 swings by 2x from run to
//    run, which is why it is not an end-to-end (bounded) metric.

/// Requests per second of the reference phase.
constexpr double ReferenceRate = 50;
/// Share of --seconds spent at the reference rate.
constexpr double ReferenceShare = 0.64;
constexpr size_t ReferenceSegments = 4;
constexpr double SaturationRate = 400;
constexpr size_t SaturationBursts = 4;
constexpr size_t SaturationRequests = 250;
/// The fixed rate ladder, 10% steps from about two thirds of the
/// saturation throughput of the parent daemon.
constexpr double Ladder[] = {90,  99,  109, 120, 132, 145, 160, 176,
                             194, 213, 234, 258, 283, 312, 343};
/// Requests per ladder step: enough for a p95 with ten samples beyond it.
constexpr size_t StepRequests = 220;
/// A step passes when its p95 latency stays within this limit.
constexpr double LatencyLimitMs = 100;

enum class PhaseKind { Reference, Saturation, Ladder };
const char *const PhaseNames[] = {"reference", "saturation", "ladder"};

struct PhaseSpec {
  double Rate;
  size_t Count;
  PhaseKind Kind;
};

std::vector<PhaseSpec> phases(double Seconds, bool WithLadder) {
  std::vector<PhaseSpec> P;
  for (size_t I = 0; I < ReferenceSegments; ++I)
    P.push_back({ReferenceRate,
                 static_cast<size_t>(ReferenceRate * Seconds *
                                     ReferenceShare / ReferenceSegments),
                 PhaseKind::Reference});
  for (size_t I = 0; I < SaturationBursts; ++I)
    P.push_back({SaturationRate, SaturationRequests, PhaseKind::Saturation});
  if (WithLadder)
    for (double Rate : Ladder)
      P.push_back({Rate, StepRequests, PhaseKind::Ladder});
  return P;
}

enum class Kind { Hit, Miss, Repair, Bmc };
const char *const KindNames[] = {"hit", "miss", "repair", "bmc"};

struct Request {
  Kind K = Kind::Hit;
  std::string Id;
  std::string Line; ///< the JSON request, newline-terminated
  size_t Phase = 0; ///< index into phases()
  double DueMs = 0; ///< offset from its phase start
  // Oracle inputs.
  size_t Version = 0; ///< hit/repair: index into tcasMutants()
  size_t Test = 0;    ///< hit: index into the version's failing tests
  size_t Miss = 0;    ///< miss: index into the miss programs
};

/// What was sent and what came back for one request.
struct Record {
  double DueMs = 0, SentMs = 0, DoneMs = 0;
  bool Done = false;
  Frame F;
};

struct VersionTests {
  std::vector<InputVector> Failing, Passing;
  std::vector<int64_t> FailingGolden, PassingGolden;
};

struct MissProgram {
  std::string Source;
  InputVector Input;
  int64_t Golden = 0;
};

/// Mutant programs set-up draws for the misses. Each miss request sends
/// one of them with a unique trailing comment, so its source text (the
/// cache key) is new while its report stays the rendered one.
constexpr size_t MissPrograms = 24;

/// Everything set-up generates from the seed.
struct ServeInputs {
  std::vector<VersionTests> Versions; ///< parallel to tcasMutants()
  std::vector<size_t> Hot;            ///< versions with failing tests, Zipf order
  std::vector<MissProgram> Misses;    ///< candidates; the oracle filters them
  uint64_t InterpRuns = 0;
  double InterpMs = 0;
};

const char *const TcasRequestFields =
    ",\"check_obligations\":false,\"bounds\":false,\"bitwidth\":16,"
    "\"hard_lines\":\"69-84\"";

ServeInputs makeInputs(uint64_t Seed, size_t MissCandidates) {
  ServeInputs In;
  std::vector<InputVector> Pool = tcasTestPool(400, Seed);
  DiagEngine Diags;
  std::unique_ptr<Program> Golden = parseAndAnalyze(tcasSource(), Diags);
  ExecOptions EO = tcasExecOptions();
  double T0 = nowMs();
  std::vector<int64_t> GoldenOut = goldenOutputs(*Golden, Pool, "main", EO);
  In.InterpMs += nowMs() - T0;
  In.InterpRuns += Pool.size();
  for (const TcasMutant &M : tcasMutants()) {
    std::unique_ptr<Program> Bad = parseAndAnalyze(M.Source, Diags);
    T0 = nowMs();
    FailingTests FT =
        segregateFailingTests(GoldenOut, *Bad, Pool, "main", EO, 3, 8);
    In.InterpMs += nowMs() - T0;
    In.InterpRuns += Pool.size();
    VersionTests V;
    V.Failing = FT.Inputs;
    V.FailingGolden = FT.Goldens;
    V.Passing = FT.PassingInputs;
    V.PassingGolden = FT.PassingGoldens;
    In.Versions.push_back(std::move(V));
  }
  for (size_t V = 0; V < In.Versions.size(); ++V)
    if (!In.Versions[V].Failing.empty())
      In.Hot.push_back(V);
  Rng R(Seed * 7919 + 17);
  for (size_t I = In.Hot.size(); I > 1; --I)
    std::swap(In.Hot[I - 1], In.Hot[R.below(I)]);

  // Fresh mutants for the cache misses: printed back to source, each with
  // the first pool test it fails.
  MutantGeneratorOptions MO;
  MO.Seed = Seed;
  MO.ProtectedLines = tcasUnrollOptions().HardLines;
  MutantGenerator Gen(*Golden, MO);
  while (In.Misses.size() < MissCandidates) {
    std::vector<GeneratedMutant> Batch = Gen.generate(16);
    if (Batch.empty())
      break;
    for (GeneratedMutant &M : Batch) {
      T0 = nowMs();
      FailingTests FT =
          segregateFailingTests(GoldenOut, *M.Prog, Pool, "main", EO, 1);
      In.InterpMs += nowMs() - T0;
      In.InterpRuns += Pool.size();
      if (FT.Inputs.empty())
        continue;
      In.Misses.push_back({printProgram(*M.Prog), FT.Inputs[0],
                           FT.Goldens[0]});
      if (In.Misses.size() >= MissCandidates)
        break;
    }
  }
  return In;
}

std::string quoted(const std::string &S) { return "\"" + jsonEscape(S) + "\""; }

std::string hitLine(const std::string &Id, const TcasMutant &M,
                    const InputVector &In, int64_t Golden) {
  return "{\"id\":" + quoted(Id) + ",\"cmd\":\"localize\",\"tcas\":" +
         std::to_string(M.Version) + ",\"input\":" +
         quoted(renderInputVector(In)) +
         ",\"golden\":" + std::to_string(Golden) + TcasRequestFields + "}\n";
}

std::string repairLine(const std::string &Id, const TcasMutant &M,
                       const VersionTests &V) {
  std::string Inputs, Goldens;
  auto Add = [&](const InputVector &In, int64_t G) {
    Inputs += (Inputs.empty() ? "" : ",") + quoted(renderInputVector(In));
    Goldens += (Goldens.empty() ? "" : ",") + std::to_string(G);
  };
  for (size_t I = 0; I < V.Failing.size(); ++I)
    Add(V.Failing[I], V.FailingGolden[I]);
  for (size_t I = 0; I < V.Passing.size(); ++I)
    Add(V.Passing[I], V.PassingGolden[I]);
  return "{\"id\":" + quoted(Id) + ",\"cmd\":\"repair\",\"tcas\":" +
         std::to_string(M.Version) + ",\"inputs\":[" + Inputs +
         "],\"goldens\":[" + Goldens + "]" + TcasRequestFields + "}\n";
}

std::string missLine(const std::string &Id, const MissProgram &P) {
  return "{\"id\":" + quoted(Id) + ",\"cmd\":\"localize\",\"source\":" +
         quoted(P.Source + "// request " + Id + "\n") +
         ",\"input\":" + quoted(renderInputVector(P.Input)) +
         ",\"golden\":" + std::to_string(P.Golden) +
         ",\"check_obligations\":false,\"bounds\":false,\"bitwidth\":16}\n";
}

std::string bmcLine(const std::string &Id) {
  return "{\"id\":" + quoted(Id) + ",\"cmd\":\"localize\",\"source\":" +
         quoted(program1Source()) + "}\n";
}

/// Seeded arrival times and kinds for every phase. Hit versions follow a
/// Zipf(1) law over the shuffled hot list; misses cycle through the miss
/// programs.
std::vector<Request> makeSchedule(uint64_t Seed,
                                  const std::vector<PhaseSpec> &Phases,
                                  const ServeInputs &In) {
  Rng R(Seed * 104729 + 3);
  std::vector<double> Zipf;
  double Norm = 0;
  for (size_t I = 0; I < In.Hot.size(); ++I)
    Norm += 1.0 / static_cast<double>(I + 1);
  double Acc = 0;
  for (size_t I = 0; I < In.Hot.size(); ++I) {
    Acc += 1.0 / static_cast<double>(I + 1) / Norm;
    Zipf.push_back(Acc);
  }
  auto PickHot = [&] {
    double U = R.unitReal();
    size_t I = 0;
    while (I + 1 < Zipf.size() && Zipf[I] < U)
      ++I;
    return In.Hot[I];
  };

  // The mix is exact in every block of 20 requests (15 hit, 2 miss,
  // 2 repair, 1 bmc), in seeded order, so no phase gets more of the slow
  // kinds than the mix says by chance.
  std::vector<Kind> Block;
  auto NextKind = [&] {
    if (Block.empty()) {
      Block.assign(15, Kind::Hit);
      Block.insert(Block.end(), {Kind::Miss, Kind::Miss, Kind::Repair,
                                 Kind::Repair, Kind::Bmc});
      for (size_t I = Block.size(); I > 1; --I)
        std::swap(Block[I - 1], Block[R.below(I)]);
    }
    Kind K = Block.back();
    Block.pop_back();
    return K;
  };

  std::vector<Request> Out;
  size_t Misses = 0;
  auto Phase = [&](size_t P, double Rate, size_t Count) {
    double T = 0;
    for (size_t I = 0; I < Count; ++I) {
      T += -std::log(1.0 - R.unitReal()) / Rate * 1e3;
      Request Q;
      Q.Phase = P;
      Q.DueMs = T;
      Q.Id = "p" + std::to_string(P) + "-" + std::to_string(I);
      Q.K = NextKind();
      switch (Q.K) {
      case Kind::Hit:
        Q.Version = PickHot();
        Q.Test = R.below(In.Versions[Q.Version].Failing.size());
        break;
      case Kind::Repair:
        Q.Version = PickHot();
        break;
      case Kind::Miss:
        Q.Miss = Misses++ % In.Misses.size();
        break;
      case Kind::Bmc:
        break;
      }
      Out.push_back(std::move(Q));
    }
  };
  for (size_t P = 0; P < Phases.size(); ++P)
    Phase(P, Phases[P].Rate, Phases[P].Count);
  return Out;
}

// --- the daemon ----------------------------------------------------------------

/// A spawned `bugassist serve` with pipes to its stdin and stdout; stderr
/// (the summary record) goes to a file.
class Daemon {
public:
  Daemon() = default;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() {
    stop();
    if (Out >= 0)
      close(Out);
  }

  bool start(const std::string &Cli, const std::string &ErrPath,
             std::string &Error) {
    int InP[2], OutP[2];
    if (pipe2(InP, O_CLOEXEC) != 0 || pipe2(OutP, O_CLOEXEC) != 0) {
      Error = std::string("pipe: ") + std::strerror(errno);
      return false;
    }
    posix_spawn_file_actions_t FA;
    posix_spawn_file_actions_init(&FA);
    posix_spawn_file_actions_adddup2(&FA, InP[0], 0);
    posix_spawn_file_actions_adddup2(&FA, OutP[1], 1);
    posix_spawn_file_actions_addopen(&FA, 2, ErrPath.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    std::string A0 = Cli;
    char Serve[] = "serve", ThreadsFlag[] = "--threads", Two[] = "2";
    char *Argv[] = {A0.data(), Serve, ThreadsFlag, Two, nullptr};
    int Rc = posix_spawn(&Pid, Cli.c_str(), &FA, nullptr, Argv, environ);
    posix_spawn_file_actions_destroy(&FA);
    close(InP[0]);
    close(OutP[1]);
    In = InP[1];
    Out = OutP[0];
    if (Rc != 0) {
      Pid = -1;
      Error = "spawn " + Cli + ": " + std::strerror(Rc);
      return false;
    }
    return true;
  }

  /// Writes all of \p S to the daemon's stdin.
  bool send(const std::string &S) {
    size_t Off = 0;
    while (Off < S.size()) {
      ssize_t N = write(In, S.data() + Off, S.size() - Off);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Off += static_cast<size_t>(N);
    }
    return true;
  }

  /// Reads whatever stdout has; 0 at EOF, -1 on error.
  ssize_t receive(char *Buf, size_t Size) {
    for (;;) {
      ssize_t N = read(Out, Buf, Size);
      if (N < 0 && errno == EINTR)
        continue;
      return N;
    }
  }

  /// Reads until \p N whole frames have arrived (and no more).
  bool receiveFrames(FrameParser &P, size_t N, std::vector<Frame> &Got,
                     std::string &Error) {
    char Buf[4096];
    while (Got.size() < N) {
      ssize_t Read = receive(Buf, sizeof(Buf));
      if (Read <= 0) {
        Error = "daemon closed its output";
        return false;
      }
      if (!P.feed(std::string_view(Buf, static_cast<size_t>(Read)), Got,
                  Error))
        return false;
    }
    if (Got.size() != N)
      Error = "more frames than requests";
    return Got.size() == N;
  }

  void closeInput() {
    if (In >= 0)
      close(In);
    In = -1;
  }

  /// Closes stdin and waits for the daemon to exit, killing it if it has
  /// not exited within \p GraceMs. Its stdout stays open for the reader,
  /// which sees EOF once the daemon is gone. \returns the exit status (-1
  /// if killed or not running).
  int stop(double GraceMs = 30000) {
    closeInput();
    int Status = -1;
    if (Pid > 0) {
      double Until = nowMs() + GraceMs;
      for (;;) {
        pid_t W = waitpid(Pid, &Status, WNOHANG);
        if (W == Pid)
          break;
        if (W < 0 && errno != EINTR) {
          Status = -1;
          break;
        }
        if (nowMs() > Until) {
          kill(Pid, SIGKILL);
          waitpid(Pid, &Status, 0);
          Status = -1;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      Pid = -1;
    }
    return Status >= 0 && WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  }

private:
  pid_t Pid = -1;
  int In = -1, Out = -1;
};

const char *const PingLine =
    "{\"id\":\"ping\",\"cmd\":\"sat\",\"cnf\":\"p cnf 1 1\\n1 0\\n\"}\n";

/// Starts a daemon and warms it: a trivial request, then one localize of
/// every hot version and of Program 1, so the timed phases start with the
/// formula cache filled. \returns false with \p Error set when any of
/// these is not answered `ok`.
bool startDaemon(Daemon &D, const RunConfig &C, const ServeInputs &In,
                 FrameParser &P, std::string &Error) {
  if (!D.start(C.CliPath, C.OutDir + "/serve-mixed.stderr", Error))
    return false;
  std::string Batch = PingLine;
  size_t Expect = 1;
  for (size_t V : In.Hot) {
    const VersionTests &VT = In.Versions[V];
    Batch += hitLine("warm" + std::to_string(V), tcasMutants()[V],
                     VT.Failing[0], VT.FailingGolden[0]);
    ++Expect;
  }
  Batch += bmcLine("warm-bmc");
  ++Expect;
  if (!D.send(Batch)) {
    Error = "daemon does not read its input";
    return false;
  }
  std::vector<Frame> Got;
  if (!D.receiveFrames(P, Expect, Got, Error))
    return false;
  for (const Frame &F : Got) {
    if (jsonString(F.Header, "status") != "ok") {
      Error = "set-up request " + jsonString(F.Header, "id") +
              " answered with status '" + jsonString(F.Header, "status") + "'";
      return false;
    }
  }
  return true;
}

// --- the oracle -------------------------------------------------------------------

/// In-process renderings of the requests, the bytes each `ok` body must
/// equal. Also times the calls the per-layer metrics read.
struct Oracle {
  const ServeInputs &In;
  std::map<size_t, std::unique_ptr<PreparedProgram>> Prepared;
  std::map<std::pair<size_t, size_t>, std::pair<std::string, bool>> Hits;
  std::map<size_t, std::string> Repairs;
  std::map<size_t, std::string> Misses; ///< only localizable programs
  std::string Bmc;
  bool BmcDetected = false;
  std::vector<double> ParseMs, EncodeMs, RepairMs, Vars, Clauses;
  size_t RepairsFound = 0;

  explicit Oracle(const ServeInputs &In) : In(In) {}

  static PipelineRequest tcasRequest() {
    PipelineRequest R;
    R.Unroll = tcasUnrollOptions();
    R.CheckObligations = false;
    return R;
  }

  const PreparedProgram &prepared(size_t V) {
    auto &P = Prepared[V];
    if (!P) {
      std::string Error;
      PipelineRequest R = tcasRequest();
      P = prepareProgram(tcasMutants()[V].Source, R.Entry, R.Unroll, R.Encode,
                         Error);
    }
    return *P;
  }

  const std::pair<std::string, bool> &hit(size_t V, size_t T) {
    auto It = Hits.find({V, T});
    if (It != Hits.end())
      return It->second;
    PipelineRequest R = tcasRequest();
    R.Input = In.Versions[V].Failing[T];
    R.GoldenReturn = In.Versions[V].FailingGolden[T];
    PipelineResult Res = runLocalizePipeline(prepared(V), R);
    bool Detected = false;
    for (uint32_t L : tcasMutants()[V].BugLines)
      for (uint32_t S : Res.Report.AllLines)
        Detected |= L == S;
    return Hits[{V, T}] = {Res.Status == PipelineStatus::Localized
                               ? renderLocalizeOutput(Res, false)
                               : std::string("<not localized>"),
                           Detected};
  }

  const std::string &repair(size_t V) {
    auto It = Repairs.find(V);
    if (It != Repairs.end())
      return It->second;
    const VersionTests &VT = In.Versions[V];
    RepairRequest R;
    R.Unroll = tcasUnrollOptions();
    R.CheckObligations = false;
    R.Inputs = VT.Failing;
    R.Goldens = VT.FailingGolden;
    R.Inputs.insert(R.Inputs.end(), VT.Passing.begin(), VT.Passing.end());
    R.Goldens.insert(R.Goldens.end(), VT.PassingGolden.begin(),
                     VT.PassingGolden.end());
    double T0 = nowMs();
    RepairPipelineResult Res = runRepairPipeline(prepared(V), R);
    RepairMs.push_back(nowMs() - T0);
    RepairsFound += Res.Repair.Found;
    return Repairs[V] = Res.Code == ErrorCode::Ok
                            ? renderRepairOutput(Res, false)
                            : std::string("<repair not decided>");
  }

  /// Renders miss program \p I. \returns false when it does not localize
  /// (the schedule then skips it).
  bool miss(size_t I) {
    const MissProgram &M = In.Misses[I];
    PipelineRequest R;
    R.Unroll.BitWidth = 16;
    R.Unroll.CheckArrayBounds = false;
    R.CheckObligations = false;
    R.Input = M.Input;
    R.GoldenReturn = M.Golden;
    PreparedProgram P;
    double T0 = nowMs();
    DiagEngine Diags;
    P.Prog = parseAndAnalyze(M.Source, Diags);
    double T1 = nowMs();
    if (!P.Prog)
      return false;
    P.Driver = std::make_unique<BugAssistDriver>(*P.Prog, R.Entry, R.Unroll,
                                                 R.Encode);
    ParseMs.push_back(T1 - T0);
    EncodeMs.push_back(nowMs() - T1);
    const CnfFormula &F = P.Driver->formula().encoded().Formula;
    Vars.push_back(static_cast<double>(F.numVars()));
    Clauses.push_back(static_cast<double>(F.numClauses()));
    PipelineResult Res = runLocalizePipeline(P, R);
    if (Res.Status != PipelineStatus::Localized)
      return false;
    Misses[I] = renderLocalizeOutput(Res, false);
    return true;
  }

  void bmc() {
    PipelineResult Res = runLocalizePipeline(program1Source(), {});
    Bmc = renderLocalizeOutput(Res, false);
    for (uint32_t S : Res.Report.AllLines)
      BmcDetected |= S == program1BugLine();
  }
};

} // namespace

// --- the run ----------------------------------------------------------------------

void perfbench::runServeMixed(const RunConfig &C, Results &R) {
  ServeInputs In;
  Daemon D;
  FrameParser Parser;
  std::string Error;
  bool Started = false;
  // A set-up that is not kept runs its own daemon to the end, answering
  // only the warm-up.
  auto Setup = setupTimer(3, [&](bool Keep) {
    ServeInputs Fresh = makeInputs(C.Seed, MissPrograms);
    Daemon Trial;
    FrameParser P;
    bool Ok = startDaemon(Keep ? D : Trial, C, Fresh, Keep ? Parser : P, Error);
    if (Keep) {
      Started = Ok;
      In = std::move(Fresh);
    } else if (Ok && Trial.stop() != 0) {
      Error = "set-up daemon exited non-zero";
    }
  });
  Setup.run(true);
  if (!Started) {
    R.set("setup_s", Setup.median(), "s");
    R.fail("daemon did not start: " + Error);
    R.Attempted = 1;
    return;
  }

  // The oracle renders every distinct request in-process before the run
  // (miss programs must be known to localize before they are scheduled).
  Oracle O(In);
  std::vector<size_t> GoodMisses;
  for (size_t I = 0; I < In.Misses.size(); ++I)
    if (O.miss(I))
      GoodMisses.push_back(I);
  ServeInputs Scheduled = In;
  Scheduled.Misses.clear();
  for (size_t I : GoodMisses)
    Scheduled.Misses.push_back(In.Misses[I]);
  if (Scheduled.Misses.empty()) {
    R.fail("no miss program localizes in-process");
    R.Attempted = 1;
    return;
  }
  const std::vector<PhaseSpec> Phases = phases(C.Seconds, R.Trace.on());
  std::vector<Request> Reqs = makeSchedule(C.Seed, Phases, Scheduled);
  const std::vector<TcasMutant> &Ms = tcasMutants();
  for (Request &Q : Reqs) {
    switch (Q.K) {
    case Kind::Hit:
      Q.Line = hitLine(Q.Id, Ms[Q.Version],
                       In.Versions[Q.Version].Failing[Q.Test],
                       In.Versions[Q.Version].FailingGolden[Q.Test]);
      O.hit(Q.Version, Q.Test);
      break;
    case Kind::Miss:
      Q.Miss = GoodMisses[Q.Miss];
      Q.Line = missLine(Q.Id, In.Misses[Q.Miss]);
      break;
    case Kind::Repair:
      Q.Line = repairLine(Q.Id, Ms[Q.Version], In.Versions[Q.Version]);
      O.repair(Q.Version);
      break;
    case Kind::Bmc:
      Q.Line = bmcLine(Q.Id);
      break;
    }
  }
  O.bmc();

  // Writer and reader. Phases run back to back; each waits for all of its
  // responses before the next starts, so steps do not overlap.
  std::vector<Record> Recs(Reqs.size());
  std::mutex Mu;
  std::condition_variable Cv;
  size_t Received = 0;
  bool ReaderDone = false;
  std::string ReaderError;
  const bool Tracing = R.Trace.on();
  // A daemon that dies mid-run must fail the run, not kill the benchmark.
  signal(SIGPIPE, SIG_IGN);
  std::vector<Span> LiveSpans;

  std::thread Reader([&] {
    char Buf[1 << 16];
    std::vector<Frame> Got;
    FrameParser &P = Parser;
    std::string Err;
    for (;;) {
      ssize_t N = D.receive(Buf, sizeof(Buf));
      if (N <= 0)
        break;
      Got.clear();
      if (!P.feed(std::string_view(Buf, static_cast<size_t>(N)), Got, Err)) {
        std::lock_guard<std::mutex> L(Mu);
        ReaderError = Err;
        break;
      }
      double Now = nowMs();
      std::lock_guard<std::mutex> L(Mu);
      for (Frame &F : Got) {
        if (Received >= Recs.size()) {
          ReaderError = "more frames than requests";
          break;
        }
        Record &Rec = Recs[Received];
        Rec.F = std::move(F);
        Rec.DoneMs = Now;
        Rec.Done = true;
        // Traced runs record every other reference-phase request's spans
        // as it completes.
        if (Tracing && Received % 2 == 0 &&
            Phases[Reqs[Received].Phase].Kind == PhaseKind::Reference) {
          double Svc = jsonNumber(Rec.F.Trailer, "elapsed_ms");
          LiveSpans.push_back({"request", "serve", Rec.DueMs, Now, -1,
                               Received + 1});
          LiveSpans.push_back({"service", "core", std::max(Rec.DueMs, Now - Svc),
                               Now, -2, Received + 1});
        }
        ++Received;
      }
      Cv.notify_all();
    }
    std::lock_guard<std::mutex> L(Mu);
    ReaderDone = true;
    Cv.notify_all();
  });

  struct StepResult {
    double Rate = 0;
    size_t Sent = 0, Ok = 0, Failed = 0;
    double P50 = 0, P95 = 0, LagP95 = 0;
    double Throughput = 0; ///< answers per second over the phase
    size_t MaxOutstanding = 0;
    bool Backlogged = false, Passed = false;
  };
  std::vector<StepResult> Steps;
  std::vector<double> Lags;
  size_t BacklogMax = 0;
  size_t Sent = 0;
  bool Aborted = false;

  auto Check = [&](size_t I) {
    // \returns true when request I's response is the expected one.
    const Request &Q = Reqs[I];
    const Frame &F = Recs[I].F;
    if (jsonString(F.Header, "id") != Q.Id ||
        jsonString(F.Header, "status") != "ok")
      return false;
    switch (Q.K) {
    case Kind::Hit:
      return F.Body == O.hit(Q.Version, Q.Test).first;
    case Kind::Miss:
      return F.Body == O.Misses[Q.Miss];
    case Kind::Repair:
      return F.Body == O.repair(Q.Version);
    case Kind::Bmc:
      return F.Body == O.Bmc;
    }
    return false;
  };

  std::thread Writer([&] {
    size_t Begin = 0;
    for (size_t Phase = 0; Begin < Reqs.size() && !Aborted; ++Phase) {
      size_t End = Begin;
      while (End < Reqs.size() && Reqs[End].Phase == Phase)
        ++End;
      double Start = nowMs() + 5;
      std::vector<double> Outstanding;
      for (size_t I = Begin; I < End; ++I) {
        double Due = Start + Reqs[I].DueMs;
        double Now = nowMs();
        if (Due > Now)
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(Due - Now));
        {
          std::lock_guard<std::mutex> L(Mu);
          Recs[I].DueMs = Due;
          Recs[I].SentMs = nowMs();
          Outstanding.push_back(static_cast<double>(I - Received));
        }
        if (!D.send(Reqs[I].Line)) {
          Aborted = true;
          break;
        }
        Sent = I + 1;
      }
      std::unique_lock<std::mutex> L(Mu);
      bool AllIn = Cv.wait_for(L, std::chrono::seconds(60), [&] {
        return Received >= Sent || ReaderDone;
      });
      if (!AllIn || Received < Sent) {
        Aborted = true;
        break;
      }
      StepResult S;
      S.Rate = Phases[Phase].Rate;
      std::vector<double> Lat;
      double First = Recs[Begin].DueMs, Last = First;
      for (size_t I = Begin; I < End; ++I) {
        ++S.Sent;
        Last = std::max(Last, Recs[I].DoneMs);
        Lat.push_back(Recs[I].DoneMs - Recs[I].DueMs);
        Lags.push_back(Recs[I].SentMs - Recs[I].DueMs);
        if (Check(I))
          ++S.Ok;
        else
          ++S.Failed;
      }
      S.P50 = percentile(Lat, 50).Value;
      S.P95 = percentile(Lat, 95).Value;
      S.Throughput = ratio(static_cast<double>(S.Sent), (Last - First) / 1e3);
      std::vector<double> PhaseLags(Lags.end() - static_cast<long>(Lat.size()),
                                    Lags.end());
      S.LagP95 = percentile(PhaseLags, 95).Value;
      for (double X : Outstanding)
        S.MaxOutstanding = std::max(S.MaxOutstanding, static_cast<size_t>(X));
      BacklogMax = std::max(BacklogMax, S.MaxOutstanding);
      // Backlogged: the mean outstanding count rises quarter over quarter
      // and ends at least four requests above where it started.
      double Q[4] = {0, 0, 0, 0};
      size_t NQ[4] = {0, 0, 0, 0};
      for (size_t K = 0; K < Outstanding.size(); ++K) {
        size_t Qi = K * 4 / Outstanding.size();
        Q[Qi] += Outstanding[K];
        ++NQ[Qi];
      }
      for (int K = 0; K < 4; ++K)
        Q[K] = NQ[K] ? Q[K] / static_cast<double>(NQ[K]) : 0;
      S.Backlogged = Q[0] < Q[1] && Q[1] < Q[2] && Q[2] < Q[3] &&
                     Q[3] - Q[0] >= 4;
      S.Passed = S.Failed == 0 && !S.Backlogged && S.P95 <= LatencyLimitMs &&
                 reportable(Lat, 95);
      Steps.push_back(S);
      Begin = End;
      L.unlock();
      if (Phases[Phase].Kind == PhaseKind::Ladder && !S.Passed)
        break;
    }
    D.closeInput();
  });

  Writer.join();
  // The daemon exits once stdin closes and its answers are flushed.
  int Exit = D.stop(Aborted ? 2000 : 30000);
  Reader.join();
  double PeakRss = childPeakRssMb();
  Setup.run(false);
  R.set("setup_s", Setup.median(), "s");
  if (Aborted)
    R.fail("the run was aborted: the daemon stopped answering" +
           (ReaderError.empty() ? std::string() : ": " + ReaderError));
  if (Exit != 0)
    R.fail("serve exited with status " + std::to_string(Exit));

  // The summary record is the last line the daemon wrote to stderr.
  std::ifstream ErrFile(C.OutDir + "/serve-mixed.stderr");
  std::string Line, Summary;
  while (std::getline(ErrFile, Line))
    if (!Line.empty() && Line[0] == '{')
      Summary = Line;
  std::string JErr;
  std::optional<JsonValue> Sum = parseJson(Summary, JErr);
  if (!Sum)
    R.fail("no serve summary record: " + JErr);

  // Tally. Only the sent requests count.
  std::vector<std::vector<double>> RefLat(ReferenceSegments);
  std::vector<double> Service, Wait, Traced, Untraced;
  std::vector<double> ByKind[4];
  size_t Hits = 0, MissesSeen = 0;
  // Detection over the distinct hit queries sent (plus Program 1), so the
  // Zipf weight of one hot version does not swing the rate.
  std::set<std::pair<size_t, size_t>> HitQueries;
  bool BmcSeen = false;
  for (size_t I = 0; I < Sent; ++I) {
    const Request &Q = Reqs[I];
    const Record &Rec = Recs[I];
    ++R.Attempted;
    if (!Rec.Done) {
      R.fail(Q.Id + ": no response");
      continue;
    }
    if (!Check(I)) {
      R.fail(Q.Id + " (" + KindNames[static_cast<int>(Q.K)] + "): status '" +
             jsonString(Rec.F.Header, "status") +
             "', body differs from the in-process rendering");
      continue;
    }
    double Lat = Rec.DoneMs - Rec.DueMs;
    double Svc = jsonNumber(Rec.F.Trailer, "elapsed_ms");
    std::string Cache = jsonString(Rec.F.Header, "cache");
    Hits += Cache == "hit";
    MissesSeen += Cache == "miss";
    // Service and wait are read at the reference rate, where the queue is
    // what a user meets, not the overload the saturation bursts build.
    if (Phases[Q.Phase].Kind == PhaseKind::Reference) {
      Service.push_back(Svc);
      Wait.push_back(std::max(0.0, Lat - Svc));
      ByKind[static_cast<int>(Q.K)].push_back(Svc);
      RefLat[Q.Phase].push_back(Lat);
      (I % 2 == 0 ? Traced : Untraced).push_back(Lat);
    }
    if (Q.K == Kind::Hit)
      HitQueries.insert({Q.Version, Q.Test});
    BmcSeen |= Q.K == Kind::Bmc;
  }

  double MaxRps = 0, Saturated = 0;
  for (size_t P = 0; P < Steps.size(); ++P) {
    const PhaseKind Kind = Phases[P].Kind;
    const StepResult &S = Steps[P];
    char Buf[300];
    std::snprintf(Buf, sizeof(Buf),
                  "serve phase %s %.0f req/s: sent %zu, ok %zu, failed %zu, "
                  "p50 %.2f ms, p95 %.2f ms, %.1f answers/s, lag p95 %.3f "
                  "ms, max "
                  "outstanding %zu%s%s",
                  PhaseNames[static_cast<int>(Kind)], S.Rate, S.Sent, S.Ok,
                  S.Failed, S.P50, S.P95, S.Throughput, S.LagP95,
                  S.MaxOutstanding,
                  S.Backlogged ? ", BACKLOGGED" : "",
                  Kind != PhaseKind::Ladder ? ""
                  : S.Passed                ? " -> pass"
                                            : " -> fail");
    R.note(Buf);
    if (Kind == PhaseKind::Ladder && S.Passed)
      MaxRps = S.Rate;
    if (Kind == PhaseKind::Saturation)
      Saturated = std::max(Saturated, S.Throughput);
  }
  Percentile Best50, Best95;
  for (const std::vector<double> &Seg : RefLat) {
    Percentile P50 = percentile(Seg, 50), P95 = tail(Seg);
    if (!Best50.Ok || P50.Value < Best50.Value)
      Best50 = P50;
    if (!Best95.Ok || P95.Value < Best95.Value)
      Best95 = P95;
  }
  R.setPercentile("op_ms_p50", Best50, "ms");
  R.setPercentile("op_ms_tail", Best95, "ms");
  R.set("ops_per_s", Saturated, "1/s");
  R.set("peak_rss_mb", PeakRss, "MiB");
  size_t Detected = BmcSeen && O.BmcDetected;
  for (const auto &[V, T] : HitQueries)
    Detected += O.hit(V, T).second;
  R.set("detect_rate",
        ratio(static_cast<double>(Detected),
              static_cast<double>(HitQueries.size() + BmcSeen)),
        "ratio");

  if (!Tracing)
    return;
  double Runs = static_cast<double>(In.InterpRuns);
  R.set("interp.runs", Runs, "count");
  R.set("interp.runs_per_s", ratio(Runs, In.InterpMs / 1e3), "1/s");
  R.set("lang.parse_ms", median(O.ParseMs), "ms");
  R.set("bmc.encode_ms", median(O.EncodeMs), "ms");
  R.set("bmc.cnf_vars", median(O.Vars), "count");
  R.set("bmc.cnf_clauses", median(O.Clauses), "count");
  R.set("core.repair_ms", median(O.RepairMs), "ms");
  R.set("core.repair_found_ratio",
        ratio(static_cast<double>(O.RepairsFound),
              static_cast<double>(O.RepairMs.size())),
        "ratio");
  R.setPercentile("serve.service_ms_p50", percentile(Service, 50), "ms");
  R.setPercentile("serve.service_ms_p95", percentile(Service, 95), "ms");
  for (int K = 0; K < 4; ++K)
    R.setPercentile(std::string("serve.service_ms.") + KindNames[K],
                    percentile(ByKind[K], 50), "ms");
  R.setPercentile("serve.wait_ms_p50", percentile(Wait, 50), "ms");
  R.setPercentile("serve.wait_ms_p95", percentile(Wait, 95), "ms");
  R.set("serve.cache_hit_ratio",
        ratio(static_cast<double>(Hits), static_cast<double>(Hits + MissesSeen)),
        "ratio");
  R.setPercentile("serve.generator_lag_ms", percentile(Lags, 95), "ms");
  R.set("serve.backlog_max", static_cast<double>(BacklogMax), "count");
  R.set("serve.max_rps", MaxRps, "1/s");
  R.set("serve.respawns", Sum ? jsonNumber(*Sum, "respawns") : 0, "count");
  R.set("serve.retries", Sum ? jsonNumber(*Sum, "retries") : 0, "count");
  for (size_t I = 0; I < LiveSpans.size(); ++I) {
    Span S = LiveSpans[I];
    if (S.Parent == -2)
      S.Parent = static_cast<int>(R.Trace.spans().size()) - 1;
    R.Trace.add(std::move(S));
  }
  reportTrace(R, static_cast<double>(LiveSpans.size() / 2), Traced, Untraced);
}
