//===- bench_repair_offbyone.cpp - Section 6.3, measured -----------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// The strncat off-by-one study: find the violation by BMC, localize with
// the library trusted (its constraints hard, Section 6.3), and synthesize
// the kappa +/- 1 repair of Algorithm 2, timing every stage. The repair
// runs twice -- through the encode-once pipeline seam (prepared driver,
// pooled prescreen) and through the rebuild-everything reference overload
// -- and the candidate-validation funnels of both twins are merged into
// BENCH_solvers.json next to the solver workloads, so the perf tracker
// sees how many candidates each path planned, screened, and verified.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "core/Pipeline.h"
#include "core/Repair.h"
#include "programs/SmallDemos.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace bugassist;

namespace {

/// One twin's workload entry: the wall time plus the Algorithm 2
/// candidate-validation funnel.
std::string workloadEntry(const char *Name, double WallSeconds,
                          const RepairResult &R) {
  char Buf[512];
  std::snprintf(
      Buf, sizeof(Buf),
      "{\"name\": \"%s\", \"wall_s\": %.6f, \"found\": %s, "
      "\"lines_considered\": %llu, \"lines_screened_out\": %llu, "
      "\"prescreen_sat_calls\": %llu, \"candidates_planned\": %llu, "
      "\"candidates_tried\": %llu, \"sema_rejected\": %llu, "
      "\"test_screen_rejected\": %llu, \"bmc_rejected\": %llu, "
      "\"formula_builds\": %llu}",
      Name, WallSeconds, R.Found ? "true" : "false",
      static_cast<unsigned long long>(R.Stats.LinesConsidered),
      static_cast<unsigned long long>(R.Stats.LinesScreenedOut),
      static_cast<unsigned long long>(R.Stats.PrescreenSatCalls),
      static_cast<unsigned long long>(R.Stats.CandidatesPlanned),
      static_cast<unsigned long long>(R.Stats.CandidatesTried),
      static_cast<unsigned long long>(R.Stats.SemaRejected),
      static_cast<unsigned long long>(R.Stats.TestScreenRejected),
      static_cast<unsigned long long>(R.Stats.BmcRejected),
      static_cast<unsigned long long>(R.Stats.FormulaBuilds));
  return Buf;
}

} // namespace

int main(int argc, char **argv) {
  const char *JsonPath = "BENCH_solvers.json";
  for (int I = 1; I < argc; ++I) {
    if (std::strncmp(argv[I], "--json=", 7) == 0)
      JsonPath = argv[I] + 7;
    else if (std::strcmp(argv[I], "--json") == 0 && I + 1 < argc)
      JsonPath = argv[++I];
  }

  UnrollOptions UO;
  UO.BitWidth = 16;
  UO.MaxLoopUnwind = 10;
  UO.TrustedFunctions.insert(program2LibraryFunction());
  UO.HardLines = program2HardLines();
  EncodeOptions EO;
  EO.BitWidth = UO.BitWidth;

  // Encode once through the pipeline seam -- the same prepared driver
  // serves BMC, localization, the prescreen, and the pooled repair twin.
  Timer T;
  std::string Error;
  auto P = prepareProgram(program2Source(), "main", UO, EO, Error);
  if (!P) {
    std::printf("%s", Error.c_str());
    return 1;
  }
  std::printf("encode: %.3fs (%d vars, %zu clauses)\n", T.seconds(),
              P->Driver->formula().encoded().Formula.numVars(),
              P->Driver->formula().encoded().Formula.numClauses());

  T.reset();
  auto Cex = P->Driver->findCounterexample(Spec{});
  std::printf("BMC bounds-violation search: %.3fs -> %s\n", T.seconds(),
              Cex ? "violation found" : "none (unexpected)");
  if (!Cex)
    return 1;

  // Pooled twin: localization and repair through runRepairPipeline, the
  // exact seam the CLI `repair` subcommand and the serve daemon drive.
  RepairRequest R;
  R.Unroll = UO;
  R.Encode = EO;
  R.Inputs = {*Cex};
  R.Repair.OperatorSwap = false; // the study tries the two one-off constants
  T.reset();
  RepairPipelineResult Pooled = runRepairPipeline(*P, R);
  double PooledWall = T.seconds();
  if (Pooled.Status != PipelineStatus::Localized) {
    std::printf("localization failed: %s\n", Pooled.Message.c_str());
    return 1;
  }
  std::printf("pooled localize+repair: %.3fs, suspect lines:", PooledWall);
  for (uint32_t L : Pooled.Report.AllLines)
    std::printf(" %u", L);
  bool CallSite = std::find(Pooled.Report.AllLines.begin(),
                            Pooled.Report.AllLines.end(),
                            program2BugLine()) != Pooled.Report.AllLines.end();
  std::printf("  (call site line %u %s)\n", program2BugLine(),
              CallSite ? "blamed, as in the paper" : "MISSED");

  // Rebuild twin: the reference overload re-encodes per verification, the
  // funnel shows what the pooled seam saves.
  RepairOptions RO;
  RO.Unroll = UO;
  RO.OperatorSwap = false;
  T.reset();
  RepairResult Rebuild =
      repairProgram(*P->Prog, "main", {*Cex}, Spec{}, nullptr, RO);
  double RebuildWall = T.seconds();

  for (const auto &Twin :
       {std::make_pair("pooled", &Pooled.Repair),
        std::make_pair("rebuild", &Rebuild)}) {
    const RepairResult &Fix = *Twin.second;
    std::printf("%s repair: %zu tried of %zu planned (%zu test-rejected, "
                "%zu bmc-rejected, %zu formula builds) -> %s\n", Twin.first,
                Fix.CandidatesTried, Fix.Stats.CandidatesPlanned,
                Fix.Stats.TestScreenRejected, Fix.Stats.BmcRejected,
                Fix.Stats.FormulaBuilds,
                Fix.Found ? Fix.Suggestion.Description.c_str()
                          : "no fix validated");
  }
  if (Pooled.Repair.Found)
    std::printf("paper's outcome: SIZE -> SIZE-1 validated; here: line %u, "
                "%s\n",
                Pooled.Repair.Suggestion.Line,
                Pooled.Repair.Suggestion.Description.c_str());
  bool Agree =
      Pooled.Repair.Found == Rebuild.Found &&
      (!Pooled.Repair.Found ||
       (Pooled.Repair.Suggestion.Line == Rebuild.Suggestion.Line &&
        Pooled.Repair.Suggestion.Description ==
            Rebuild.Suggestion.Description));
  if (!Agree)
    std::printf("TWIN MISMATCH: pooled and rebuild disagree\n");

  // The twins replace only their own entries; the solver workloads stay.
  if (!mergeBenchJson(JsonPath, {},
                      {workloadEntry("repair_offbyone_pooled", PooledWall,
                                     Pooled.Repair),
                       workloadEntry("repair_offbyone_rebuild", RebuildWall,
                                     Rebuild)},
                      /*RepairOwner=*/true, Error)) {
    std::printf("bench JSON not written: %s\n", Error.c_str());
    return 1;
  }
  std::printf("merged the repair twins into %s\n", JsonPath);

  return Pooled.Repair.Found && CallSite && Agree ? 0 : 1;
}
