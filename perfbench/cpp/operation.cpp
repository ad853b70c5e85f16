//===- perfbench/cpp/operation.cpp - One synthesis call and its checks ----===//
//
// Part of the PSketch project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One operation: a synthesis call through Session, timed from outside
/// with a per-iteration progress callback, and the checks of its outputs
/// against computations made apart from the search.
///
//===----------------------------------------------------------------------===//

#include "perfbench.h"

#include "api/Session.h"
#include "ast/ASTPrinter.h"
#include "likelihood/Likelihood.h"
#include "obs/Json.h"
#include "obs/Trace.h"
#include "parse/Parser.h"
#include "sem/Lower.h"
#include "sem/TypeCheck.h"
#include "synth/Checkpoint.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <tuple>

using namespace psketch;

namespace perfbench {
namespace {

std::string fmt(double V) {
  std::ostringstream OS;
  OS.precision(17);
  OS << V;
  return OS.str();
}

/// What the progress callback saw during one call.
struct ProgressLog {
  bool Seen = false;
  Clock::time_point First;
  unsigned FirstIter = 0;
  double LastBest = -std::numeric_limits<double>::infinity();
  bool Monotone = true;
  bool Reached = false;
  Clock::time_point ReachedAt;
};

/// Check (1): re-parse the best program as printed, lower it and score it
/// row by row (no batching, SIMD, column cache, slice factoring, score
/// cache, simplifier or fusion); it must match the reported best LL.
void checkRescore(const Problem &P, const SynthesisResult &R,
                  std::vector<std::string> &Errs) {
  if (!R.BestProgram) {
    Errs.push_back(P.Name + ": no best program");
    return;
  }
  DiagEngine Diags;
  std::unique_ptr<Program> Printed =
      parseProgramSource(toString(*R.BestProgram), Diags);
  if (!Printed || !typeCheck(*Printed, Diags)) {
    Errs.push_back(P.Name + ": printed best program does not re-parse: " +
                   Diags.str());
    return;
  }
  std::unique_ptr<LoweredProgram> LP = lowerProgram(*Printed, P.Inputs, Diags);
  if (!LP || !checkDefiniteAssignment(*LP, Diags)) {
    Errs.push_back(P.Name + ": printed best program does not lower");
    return;
  }
  LikelihoodOptions Plain;
  Plain.Simplify = false;
  Plain.Tape.Fuse = false;
  Plain.Tape.Simd = false;
  auto F = LikelihoodFunction::compile(*LP, P.Data, P.Config.Algebra,
                                       nullptr, Plain);
  if (!F) {
    Errs.push_back(P.Name + ": printed best program does not compile");
    return;
  }
  const double RowWise = F->logLikelihoodRowwise(P.Data);
  const double Best = R.BestLogLikelihood;
  if (!(std::fabs(RowWise - Best) <=
        RescoreRelTol * std::max(1.0, std::fabs(Best))))
    Errs.push_back(P.Name + ": best LL " + fmt(Best) +
                   " but the printed program re-scores to " + fmt(RowWise));
}

/// Check (4): counters agree with each other.  No proposal category
/// exceeds the proposals; score-cache probes and evaluations may also come
/// from the initial draws, at most MaxInitTries per chain.
void checkCounters(const Problem &P, const SynthesisStats &S,
                   std::vector<std::string> &Errs) {
  const uint64_t Chains = P.Config.Chains;
  const uint64_t Expect = Chains * uint64_t(P.Config.Iterations);
  if (S.Proposed != Expect)
    Errs.push_back(P.Name + ": proposed " + std::to_string(S.Proposed) +
                   " != chains x iterations " + std::to_string(Expect));
  const uint64_t WithInit = S.Proposed + Chains * P.Config.MaxInitTries;
  const std::tuple<const char *, uint64_t, uint64_t> Parts[] = {
      {"accepted", S.Accepted, S.Proposed},
      {"invalid", S.Invalid, S.Proposed},
      {"slice_skip", S.SliceSkip, S.Proposed},
      {"score_cache_hits", S.CacheHits, S.Proposed},
      {"score_cache_probes", uint64_t(S.CacheHits) + S.CacheMisses, WithInit},
      {"scored", S.Scored, WithInit}};
  for (const auto &[Name, Count, Limit] : Parts)
    if (Count > Limit)
      Errs.push_back(P.Name + ": " + Name + " " + std::to_string(Count) +
                     " exceeds " + std::to_string(Limit));
  if (S.InvalidType + S.InvalidDomain + S.InvalidStatic != S.Invalid)
    Errs.push_back(P.Name + ": invalid breakdown does not sum to invalid");
}

/// Side outputs of the telemetry workload: the JSONL trace reads back
/// with one event per proposal, the metrics file's synth.proposed equals
/// the run's counter, and resuming from the mid-walk snapshot ends where
/// the uninterrupted walk ended.
void checkTelemetry(const Problem &P, uint64_t Seed, const SynthesisResult &R,
                    std::vector<std::string> &Errs) {
  {
    std::ifstream In(P.TraceOut);
    std::string Err;
    std::optional<ParsedTrace> T = readJsonlTrace(In, Err);
    if (!T)
      Errs.push_back(P.Name + ": trace does not read back: " + Err);
    else if (T->Events.size() != R.Stats.Proposed)
      Errs.push_back(P.Name + ": trace holds " +
                     std::to_string(T->Events.size()) + " events, expected " +
                     std::to_string(R.Stats.Proposed));
  }
  {
    std::ifstream In(P.MetricsOut);
    std::stringstream Text;
    Text << In.rdbuf();
    std::string Err;
    std::optional<JsonValue> J = parseJson(Text.str(), Err);
    const JsonValue *Counters = J ? J->get("counters") : nullptr;
    std::optional<uint64_t> Proposed =
        Counters ? Counters->getUInt64("synth.proposed") : std::nullopt;
    if (!Proposed || *Proposed != R.Stats.Proposed)
      Errs.push_back(P.Name + ": metrics file synth.proposed does not match "
                              "the run (" +
                     (J ? std::string("value ") +
                              (Proposed ? std::to_string(*Proposed) : "none")
                        : "parse error: " + Err) +
                     ")");
  }
  // The newest rotated snapshot taken before the walk's end.
  std::string Snapshot;
  RunCheckpoint CP;
  for (unsigned K = 1; K < P.CheckpointKeep && Snapshot.empty(); ++K) {
    const std::string Path = P.CheckpointOut + "." + std::to_string(K);
    std::string Err;
    if (!readCheckpointFile(Path, CP, Err)) {
      Errs.push_back(P.Name + ": " + Err);
      return;
    }
    if (!CP.ChainStates.empty() &&
        CP.ChainStates[0].NextIter < P.Config.Iterations)
      Snapshot = Path;
  }
  if (Snapshot.empty()) {
    Errs.push_back(P.Name + ": no mid-walk snapshot among the rotated "
                            "checkpoints");
    return;
  }
  Session S;
  S.sketchFile(P.SketchPath).dataFile(P.CsvPath).inputs(P.Inputs);
  S.configure(P.Config);
  S.seed(Seed);
  S.budget().ResumePath = Snapshot;
  Session::Outcome O = S.run();
  if (!O.ok()) {
    Errs.push_back(P.Name + ": resume failed: " + O.Error.Message);
    return;
  }
  bool Same = O.Result.BestLogLikelihood == R.BestLogLikelihood &&
              O.Result.BestCompletions.size() == R.BestCompletions.size();
  for (size_t I = 0; Same && I != R.BestCompletions.size(); ++I)
    Same = toString(*O.Result.BestCompletions[I]) ==
           toString(*R.BestCompletions[I]);
  if (!Same)
    Errs.push_back(P.Name + ": resume from iteration " +
                   std::to_string(CP.ChainStates[0].NextIter) +
                   " ends at best LL " + fmt(O.Result.BestLogLikelihood) +
                   " instead of " + fmt(R.BestLogLikelihood));
}

} // namespace

OpResult runOperation(const Problem &P, unsigned Round, bool StageTimers) {
  OpResult Op;
  if (P.Telemetry) {
    std::error_code EC;
    std::filesystem::remove(P.TraceOut, EC);
    std::filesystem::remove(P.MetricsOut, EC);
    for (unsigned K = 0; K < P.CheckpointKeep; ++K)
      std::filesystem::remove(
          K ? P.CheckpointOut + "." + std::to_string(K) : P.CheckpointOut, EC);
  }

  ProgressLog Log;
  Session S;
  if (P.SketchPath.empty())
    S.sketchSource(P.SketchSource, P.Name);
  else
    S.sketchFile(P.SketchPath);
  S.dataFile(P.CsvPath).inputs(P.Inputs);
  S.configure(P.Config);
  S.seed(P.Config.Seed + Round);
  SynthesisConfig &C = S.config();
  C.StageTimers = StageTimers;
  C.ProgressEvery = 1;
  const double Threshold = P.TargetThreshold;
  C.Progress = [&Log, Threshold](const SynthesisConfig::ProgressUpdate &U) {
    const Clock::time_point Now = Clock::now();
    if (!Log.Seen) {
      Log.Seen = true;
      Log.First = Now;
      Log.FirstIter = U.Iter;
    }
    if (U.BestLL < Log.LastBest)
      Log.Monotone = false;
    Log.LastBest = U.BestLL;
    if (!Log.Reached && U.BestLL >= Threshold) {
      Log.Reached = true;
      Log.ReachedAt = Now;
    }
  };
  if (P.Telemetry) {
    S.telemetry().TraceOut = P.TraceOut;
    S.telemetry().MetricsOut = P.MetricsOut;
    S.budget().CheckpointPath = P.CheckpointOut;
    S.budget().CheckpointEvery = P.CheckpointEvery;
    S.budget().CheckpointKeep = P.CheckpointKeep;
  }

  const Clock::time_point Start = Clock::now();
  Session::Outcome O = S.run();
  const Clock::time_point End = Clock::now();

  if (!O.ok() || !O.Result.Succeeded || !Log.Seen) {
    Op.Failed = true;
    Op.Failure = P.Name + ": synthesis failed: " +
                 (O.ok() ? std::string("no result") : O.Error.Message);
    return Op;
  }
  Op.SetupS = secondsBetween(Start, Log.First);
  Op.PostSetupS = secondsBetween(Log.First, End);
  Op.PostSetupProposals = O.Result.Stats.Proposed - Log.FirstIter;
  Op.Reached = Log.Reached;
  Op.TimeToTargetS =
      Log.Reached ? secondsBetween(Log.First, Log.ReachedAt) : Op.PostSetupS;
  Op.Result = std::move(O.Result);

  // Check (3): best-so-far never decreases and ends at the reported best.
  if (!Log.Monotone)
    Op.CheckErrors.push_back(P.Name + ": best-so-far LL decreased");
  if (Log.LastBest != Op.Result.BestLogLikelihood)
    Op.CheckErrors.push_back(P.Name + ": last progress best " +
                             fmt(Log.LastBest) + " != reported best " +
                             fmt(Op.Result.BestLogLikelihood));
  checkRescore(P, Op.Result, Op.CheckErrors);
  checkCounters(P, Op.Result.Stats, Op.CheckErrors);
  if (P.Telemetry)
    checkTelemetry(P, P.Config.Seed + Round, Op.Result, Op.CheckErrors);
  return Op;
}

} // namespace perfbench
