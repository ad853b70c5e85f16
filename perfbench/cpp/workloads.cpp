//===- perfbench/cpp/workloads.cpp - Seeded workload inputs ---------------===//
//
// Part of the PSketch project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds each workload's problems from the run's seed: rows are sampled
/// from the hand-written target program (the paper's methodology), written
/// to CSV for the program to read, and read back so every check scores
/// exactly the rows the program saw.
///
//===----------------------------------------------------------------------===//

#include "perfbench.h"

#include "likelihood/DatasetIO.h"
#include "likelihood/Likelihood.h"
#include "suite/Prepare.h"

#include <cmath>
#include <fstream>
#include <sstream>

using namespace psketch;

namespace perfbench {
namespace {

/// The generating program of `multi_observe_telemetry`: three channels
/// around distinct means, returned (so observed) as columns a, b, c, plus
/// a drift term no column observes: the shape
/// examples/sketches/multi_observe.psk sketches.  The channels are measured
/// with sd 0.5, finer than the sketch's fixed unit sd, and a completion of
/// a mean hole can only add variance, so no walk reaches the target LL
/// (about 200 nats short at 240 rows).  time_to_target_s is then the
/// censored post-setup time on this workload: with unit-sd channels the
/// first passage came after about 1,000 proposals, and its median over a
/// run's walks varied with the generated rows by 0.25 to 0.32 (spread
/// across ten seeds).
const char *ChannelsTarget = R"(
program Channels() {
  a: real;
  b: real;
  c: real;
  drift: real;
  a ~ Gaussian(3.0, 0.5);
  b ~ Gaussian(0.0 - 2.0, 0.5);
  c ~ Gaussian(7.0, 0.5);
  drift ~ Gaussian(0.0, 1.0);
  return a, b, c;
}
)";

const char *MultiObserveSketchPath = "examples/sketches/multi_observe.psk";

/// splitmix64 finalizer: a workload's data seed from the run seed and a
/// per-problem salt, so problems of one run draw unrelated rows.
uint64_t mixSeed(uint64_t Seed, uint64_t Salt) {
  uint64_t Z = Seed * 0x9e3779b97f4a7c15ULL + Salt + 0x632be59bd9b4e019ULL;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

/// Generates \p B's rows, writes them to \p CsvPath, reads them back and
/// fills \p P (sketch, inputs, data, target LL).  \p B.DataSeed and
/// \p B.DatasetSize select the rows.
bool prepareProblem(const Benchmark &B, const std::string &CsvPath,
                    Problem &P, std::string &Err) {
  DiagEngine Diags;
  std::optional<PreparedBenchmark> Prep = prepareBenchmark(B, Diags);
  if (!Prep) {
    Err = B.Name + ": cannot prepare inputs: " + Diags.str();
    return false;
  }
  if (!writeDatasetCsvFile(CsvPath, Prep->Data)) {
    Err = B.Name + ": cannot write " + CsvPath;
    return false;
  }
  std::optional<Dataset> Back = readDatasetCsvFile(CsvPath, Diags);
  if (!Back || Back->numRows() != B.DatasetSize) {
    Err = B.Name + ": cannot read back " + CsvPath + ": " + Diags.str();
    return false;
  }
  P.Name = B.Name;
  P.SketchSource = B.SketchSource;
  P.CsvPath = CsvPath;
  P.Inputs = Prep->Inputs;
  P.Data = std::move(*Back);

  // The target LL on the rows as read back, batched and row-wise; the two
  // must agree before the target can serve as the reference.
  auto F = LikelihoodFunction::compile(*Prep->TargetLowered, P.Data,
                                       B.Synth.Algebra);
  if (!F) {
    Err = B.Name + ": target likelihood failed to compile";
    return false;
  }
  P.TargetLL = F->logLikelihood(P.Data);
  const double RowWise = F->logLikelihoodRowwise(P.Data);
  if (!std::isfinite(P.TargetLL) ||
      std::fabs(P.TargetLL - RowWise) >
          RescoreRelTol * std::max(1.0, std::fabs(P.TargetLL))) {
    std::ostringstream OS;
    OS.precision(17);
    OS << B.Name << ": target LL " << P.TargetLL << " (batched) vs "
       << RowWise << " (row-wise)";
    Err = OS.str();
    return false;
  }
  P.TargetThreshold = P.TargetLL - (TargetAbsTol +
                                    TargetPerRowTol * double(B.DatasetSize));
  return true;
}

/// Table 1's configuration of \p B reduced to one chain on one thread.
SynthesisConfig singleChain(const SynthesisConfig &Table1) {
  SynthesisConfig C = Table1;
  C.Chains = 1;
  C.Threads = 1;
  return C;
}

} // namespace

bool buildWorkload(const std::string &Name, uint64_t Seed,
                   const std::string &WorkDir, Workload &W,
                   std::string &Err) {
  if (Name == "paper_suite") {
    // The 16 Table 1 benchmarks at their paper dataset sizes, each on
    // one chain with Table 1's seed and a quarter of its iteration budget:
    // a round then takes about 2.5 s, so a run has enough rounds for a
    // steady median (a full-budget round takes 8 to 22 s).
    for (const Benchmark &Spec : allBenchmarks()) {
      Benchmark B = Spec;
      B.DataSeed = mixSeed(Seed, Spec.DataSeed);
      Problem P;
      if (!prepareProblem(B, WorkDir + "/" + B.Name + ".csv", P, Err))
        return false;
      P.Config = singleChain(B.Synth);
      P.Config.Iterations = B.Synth.Iterations / 4;
      W.Problems.push_back(std::move(P));
    }
    return true;
  }
  if (Name == "trueskill_50k") {
    // Row cost dominates: 50,000 rows of the TrueSkill target, scored by
    // the TrueSkill sketch on one chain with Table 1's seed.
    const Benchmark *Spec = findBenchmark("TrueSkill");
    if (!Spec) {
      Err = "TrueSkill benchmark missing from the suite";
      return false;
    }
    Benchmark B = *Spec;
    B.DatasetSize = 50000;
    B.DataSeed = mixSeed(Seed, Spec->DataSeed);
    Problem P;
    if (!prepareProblem(B, WorkDir + "/trueskill_50k.csv", P, Err))
      return false;
    P.Config = singleChain(B.Synth);
    // Short walks, many per run: per-walk cost varies with the path the
    // walk takes, and the run's median needs many walks to be steady.
    P.Config.Iterations = 100;
    W.Problems.push_back(std::move(P));
    return true;
  }
  if (Name == "multi_observe_telemetry") {
    // One long chain on 240 rows with every side output on; per-proposal
    // cost is small, so bookkeeping, caches and telemetry dominate.
    std::ifstream In(MultiObserveSketchPath);
    if (!In) {
      Err = std::string("cannot read ") + MultiObserveSketchPath;
      return false;
    }
    std::stringstream Text;
    Text << In.rdbuf();
    Benchmark B;
    B.Name = "MultiObserve";
    B.TargetSource = ChannelsTarget;
    B.SketchSource = Text.str();
    B.MakeInputs = [] { return InputBindings(); };
    B.DatasetSize = 240;
    B.DataSeed = mixSeed(Seed, 17);
    Problem P;
    if (!prepareProblem(B, WorkDir + "/channels.csv", P, Err))
      return false;
    P.SketchPath = MultiObserveSketchPath;
    P.Config.Iterations = 15000;
    P.Config.Chains = 1;
    P.Config.Threads = 1;
    P.Config.Seed = 11;
    P.Telemetry = true;
    P.TraceOut = WorkDir + "/trace.jsonl";
    P.MetricsOut = WorkDir + "/metrics.json";
    P.CheckpointOut = WorkDir + "/run.ckpt";
    // Deposits at 0, 4500, 9000 and 13500, then the final state (which
    // the end of the run writes twice); keeping three files leaves the
    // iteration-13500 snapshot for the resume check.
    P.CheckpointEvery = 4500;
    P.CheckpointKeep = 3;
    W.Problems.push_back(std::move(P));
    return true;
  }
  Err = "unknown workload '" + Name + "'";
  return false;
}

} // namespace perfbench
