//===- perfbench/cpp/layers.cpp - Traced per-layer measurement ------------===//
//
// Part of the PSketch project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run.  For each problem it runs the operation once untraced
/// and once with the program's stage timers on (nothing else: metrics and
/// diagnostics stay as the workload sets them), then replays each layer's
/// public calls on the best program until the replay has run long enough
/// to give a stable per-call figure.  Spans are recorded here, around the
/// public calls; nothing inside the program is instrumented.
///
//===----------------------------------------------------------------------===//

#include "perfbench.h"

#include "ast/ASTPrinter.h"
#include "likelihood/ColumnarDataset.h"
#include "likelihood/DatasetIO.h"
#include "likelihood/Likelihood.h"
#include "obs/Convergence.h"
#include "parse/Parser.h"
#include "sem/Lower.h"
#include "sem/TypeCheck.h"
#include "support/Rng.h"
#include "synth/Checkpoint.h"
#include "synth/Mutate.h"

#include <filesystem>

using namespace psketch;

namespace perfbench {
namespace {

/// Runs \p Fn at least \p MinReps times and for at least \p MinSeconds;
/// returns seconds per call.
template <typename Fn>
double perCall(Fn &&F, double MinSeconds = 0.02, unsigned MinReps = 3) {
  unsigned N = 0;
  const Clock::time_point T0 = Clock::now();
  double Elapsed = 0;
  do {
    F();
    ++N;
    Elapsed = secondsBetween(T0, Clock::now());
  } while (N < MinReps || Elapsed < MinSeconds);
  return Elapsed / N;
}

/// Keeps a replayed result alive so the call cannot be optimized out.
volatile double Sink = 0;

double fileBytes(const std::string &Path) {
  std::error_code EC;
  const uintmax_t N = std::filesystem::file_size(Path, EC);
  return EC ? 0.0 : double(N);
}

/// Counters and stage spans of the traced operation.
void addRunFigures(const SynthesisStats &S, LayerSums &Sums) {
  const StageTimes &T = S.Stage;
  const double Lower = T.seconds(Stage::LowerCompile);
  const double Eval = T.seconds(Stage::EvalBatch);
  const double Probe = T.seconds(Stage::CacheProbe);
  const double Static = T.seconds(Stage::StaticCheck);
  Sums["synth.walk_s"] += S.Seconds;
  Sums["likelihood.lower_compile_s"] += Lower;
  Sums["likelihood.eval_batch_s"] += Eval;
  Sums["synth.cache_probe_s"] += Probe;
  Sums["analysis.static_check_s"] += Static;
  Sums["synth.other_s"] += S.Seconds - (Lower + Eval + Probe + Static);

  Sums["likelihood.tape_raw_ins"] += double(S.TapeRawIns);
  Sums["likelihood.tape_final_ins"] += double(S.TapeFinalIns);
  Sums["likelihood.rows_scored"] += double(S.RowsScored);
  Sums["likelihood.colcache_hits"] += double(S.ColCacheHits);
  Sums["likelihood.colcache_misses"] += double(S.ColCacheMisses);
  Sums["synth.slice_group_hits"] += double(S.SliceGroupHits);
  Sums["synth.slice_group_misses"] += double(S.SliceGroupMisses);
  Sums["synth.slice_rows_evaluated"] += double(S.SliceRowsEvaluated);
  Sums["synth.slice_skip"] += double(S.SliceSkip);
  Sums["synth.proposed"] += double(S.Proposed);
  Sums["synth.scored"] += double(S.Scored);
  Sums["synth.score_cache_hits"] += double(S.CacheHits);
  Sums["#score_cache_misses"] += double(S.CacheMisses);
  Sums["synth.invalid"] += double(S.Invalid);
  Sums["analysis.static_rejects"] += double(S.InvalidStatic);
}

/// Replays of the parse, CSV, synthesizer-construction, compile, eval,
/// mutate and classify layers on \p Best.
void replayLayers(const Problem &P, const SynthesisResult &Best,
                  LayerSums &Sums, std::vector<std::string> &Errs) {
  Sums["parse.sketch_s"] += perCall([&] {
    DiagEngine Diags;
    std::unique_ptr<Program> Sk = parseProgramSource(P.SketchSource, Diags);
    if (Sk)
      Sink = Sink + double(typeCheck(*Sk, Diags).has_value());
  }, 0.005, 1);
  Sums["likelihood.csv_read_s"] += perCall([&] {
    DiagEngine Diags;
    std::optional<Dataset> D = readDatasetCsvFile(P.CsvPath, Diags);
    Sink = Sink + double(D ? D->numRows() : 0);
  }, 0.005, 1);

  DiagEngine Diags;
  std::unique_ptr<Program> Sketch = parseProgramSource(P.SketchSource, Diags);
  std::unique_ptr<Program> Printed =
      parseProgramSource(toString(*Best.BestProgram), Diags);
  if (!Sketch || !typeCheck(*Sketch, Diags) || !Printed ||
      !typeCheck(*Printed, Diags)) {
    Errs.push_back(P.Name + ": replay cannot re-parse: " + Diags.str());
    return;
  }
  std::unique_ptr<Synthesizer> Synth;
  Sums["synth.init_s"] += perCall([&] {
    Synth = std::make_unique<Synthesizer>(*Sketch, P.Inputs, P.Data,
                                          P.Config);
  }, 0.005, 1);

  std::unique_ptr<LoweredProgram> LP = lowerProgram(*Printed, P.Inputs, Diags);
  if (!LP) {
    Errs.push_back(P.Name + ": replay cannot lower the best program");
    return;
  }
  std::optional<LikelihoodFunction> F;
  Sums["#compile_s"] += perCall([&] {
    F = LikelihoodFunction::compile(*LP, P.Data, P.Config.Algebra, nullptr,
                                    P.Config.Likelihood);
  });
  if (!F) {
    Errs.push_back(P.Name + ": replay cannot compile the best program");
    return;
  }
  const ColumnarDataset Cols(P.Data);
  const double EvalPerCall =
      perCall([&] { Sink = Sink + F->logLikelihood(Cols); });
  Sums["#eval_rows"] += double(Cols.numRows());
  Sums["#eval_s"] += EvalPerCall;

  Rng R(P.Config.Seed);
  Mutator M(Synth->holeSignatures(), P.Config.Gen, P.Config.Mut, R);
  Sums["#mutate_s"] += perCall([&] {
    Sink = Sink + double(M.propose(Best.BestCompletions).size());
  });

  CachedScore Verdict;
  Sums["#classify_s"] +=
      perCall([&] { Verdict = Synth->classifyCompletions(Best.BestCompletions); });
  // The uncached verdict of the best tuple is its reported score.
  if (Verdict.Reason != RejectReason::None ||
      Verdict.LL != Best.BestLogLikelihood)
    Errs.push_back(P.Name + ": classifyCompletions disagrees with the "
                            "reported best LL");
  Sums["#replayed"] += 1;
}

/// Side-output layers of the telemetry workload.
void replayTelemetry(const Problem &P, const SynthesisResult &Traced,
                     LayerSums &Sums, std::vector<std::string> &Errs) {
  if (!Traced.ChainLLTraces.empty()) {
    const Clock::time_point T0 = Clock::now();
    Sink = Sink + effectiveSampleSize(Traced.ChainLLTraces) +
           splitRHat(Traced.ChainLLTraces);
    Sums["obs.convergence_s"] += secondsBetween(T0, Clock::now());
  }
  if (!P.Telemetry)
    return;
  Sums["obs.trace_bytes"] += fileBytes(P.TraceOut);
  Sums["synth.checkpoint_bytes"] += fileBytes(P.CheckpointOut);
  RunCheckpoint CP;
  std::string Err;
  bool Read = true;
  Sums["synth.checkpoint_read_s"] += perCall([&] {
    Read = Read && readCheckpointFile(P.CheckpointOut, CP, Err);
  });
  if (!Read) {
    Errs.push_back(P.Name + ": final checkpoint does not read back: " + Err);
    return;
  }
  Sums["synth.checkpoint_serialize_s"] +=
      perCall([&] { Sink = Sink + double(serializeCheckpoint(CP).size()); });
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

} // namespace

unsigned traceProblem(const Problem &P, unsigned Round, LayerSums &Sums,
                      std::vector<std::string> &Failures,
                      std::vector<std::string> &CheckErrors) {
  OpResult Plain = runOperation(P, Round, /*StageTimers=*/false);
  OpResult Traced = runOperation(P, Round, /*StageTimers=*/true);
  unsigned Failed = 0;
  for (OpResult *Op : {&Plain, &Traced}) {
    if (Op->Failed) {
      ++Failed;
      Failures.push_back(Op->Failure);
    }
    CheckErrors.insert(CheckErrors.end(), Op->CheckErrors.begin(),
                       Op->CheckErrors.end());
  }
  if (Failed)
    return Failed;
  Sums["bench.trace_overhead_s"] +=
      Traced.Result.Stats.Seconds - Plain.Result.Stats.Seconds;
  addRunFigures(Traced.Result.Stats, Sums);
  replayLayers(P, Traced.Result, Sums, CheckErrors);
  replayTelemetry(P, Traced.Result, Sums, CheckErrors);
  return 0;
}

std::vector<std::pair<std::string, double>>
layerMetrics(const LayerSums &Sums, unsigned Rounds) {
  auto Get = [&](const char *Name) {
    auto It = Sums.find(Name);
    return It == Sums.end() ? 0.0 : It->second;
  };
  const double PerRound = Rounds ? 1.0 / Rounds : 0.0;
  const double Replayed = Get("#replayed");
  std::vector<std::pair<std::string, double>> Out;
  // Per-round sums.
  for (const char *Name :
       {"parse.sketch_s", "likelihood.csv_read_s", "synth.init_s",
        "likelihood.lower_compile_s", "likelihood.tape_raw_ins",
        "likelihood.tape_final_ins", "likelihood.eval_batch_s",
        "likelihood.rows_scored", "likelihood.colcache_hits",
        "likelihood.colcache_misses", "synth.slice_group_hits",
        "synth.slice_group_misses", "synth.slice_rows_evaluated",
        "synth.slice_skip", "synth.proposed", "synth.scored",
        "synth.score_cache_hits", "synth.invalid", "synth.cache_probe_s",
        "synth.other_s", "synth.walk_s", "analysis.static_rejects",
        "analysis.static_check_s", "obs.convergence_s", "obs.trace_bytes",
        "synth.checkpoint_bytes", "synth.checkpoint_serialize_s",
        "synth.checkpoint_read_s", "bench.trace_overhead_s"})
    Out.emplace_back(Name, Get(Name) * PerRound);
  // Per-call replays, averaged over the replayed problems; ratios.
  Out.emplace_back("likelihood.compile_us",
                   ratio(Get("#compile_s"), Replayed) * 1e6);
  Out.emplace_back("likelihood.eval_rows_per_s",
                   ratio(Get("#eval_rows"), Get("#eval_s")));
  Out.emplace_back("likelihood.colcache_hit_ratio",
                   ratio(Get("likelihood.colcache_hits"),
                         Get("likelihood.colcache_hits") +
                             Get("likelihood.colcache_misses")));
  Out.emplace_back("synth.score_cache_hit_ratio",
                   ratio(Get("synth.score_cache_hits"),
                         Get("synth.score_cache_hits") +
                             Get("#score_cache_misses")));
  Out.emplace_back("synth.mutate_us", ratio(Get("#mutate_s"), Replayed) * 1e6);
  Out.emplace_back("analysis.classify_us",
                   ratio(Get("#classify_s"), Replayed) * 1e6);
  return Out;
}

} // namespace perfbench
