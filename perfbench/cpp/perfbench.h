//===- perfbench/cpp/perfbench.h - Shared types of the benchmark ----------===//
//
// Part of the PSketch project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark runs PSKETCH from outside, through the public
/// `Session` API, on generated inputs.  A workload is a list of synthesis
/// problems; one *round* runs each problem once, and one *operation* is
/// one synthesis call plus the checks on its outputs.  See README.md for
/// the workloads, metrics and checks.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PERFBENCH_H
#define PERFBENCH_PERFBENCH_H

#include "likelihood/Dataset.h"
#include "sem/Bindings.h"
#include "synth/Synthesizer.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

/// Relative tolerance between the synthesizer's reported best LL and the
/// independent row-wise re-score of the printed best program.
constexpr double RescoreRelTol = 1e-9;

/// "Close to the target": a run reaches the target once its best-so-far
/// LL is at least TargetLL - (TargetAbsTol + TargetPerRowTol * rows).
constexpr double TargetAbsTol = 2.0;
constexpr double TargetPerRowTol = 0.02;

/// One synthesis problem of a workload round.
struct Problem {
  std::string Name;
  /// Sketch text handed to Session::sketchSource; empty when the
  /// sketch is read from SketchPath (Session::sketchFile).
  std::string SketchSource;
  std::string SketchPath;
  std::string CsvPath;      ///< Generated rows, read by the program.
  psketch::InputBindings Inputs;
  /// Core knobs (iterations, one chain, seed) plus the problem's own
  /// proposal grammar (grow/shrink, arithmetic ops); every layer knob
  /// keeps its default.
  psketch::SynthesisConfig Config;
  psketch::Dataset Data; ///< The CSV as read back: what the program scores.
  double TargetLL = 0;   ///< Target program's LL on Data (batched path).
  double TargetThreshold = 0;

  /// Telemetry workload: JSONL trace, metrics file and periodic
  /// checkpoints, as `psketch synth --trace-out --metrics-out
  /// --checkpoint-out --checkpoint-every` writes them.
  bool Telemetry = false;
  std::string TraceOut, MetricsOut, CheckpointOut;
  unsigned CheckpointEvery = 0;
  unsigned CheckpointKeep = 0;
};

struct Workload {
  std::vector<Problem> Problems;
};

/// Generates \p Name's inputs from \p Seed under \p WorkDir and computes
/// each problem's target LL.  False with \p Err on an unknown workload or
/// a failure to produce the inputs.
bool buildWorkload(const std::string &Name, uint64_t Seed,
                   const std::string &WorkDir, Workload &W, std::string &Err);

/// Everything one operation measured and produced.
struct OpResult {
  /// The program returned an error or no result; Failure says which.
  bool Failed = false;
  std::string Failure;
  /// Failed output checks (empty when every check passed).
  std::vector<std::string> CheckErrors;
  /// Call start to first progress callback, which fires after the first
  /// MH iteration.
  double SetupS = 0;
  double PostSetupS = 0;  ///< First progress callback to call return.
  uint64_t PostSetupProposals = 0;
  double TimeToTargetS = 0; ///< Censored at PostSetupS when not reached.
  bool Reached = false;
  psketch::SynthesisResult Result;
};

/// Runs one synthesis call for \p P through Session and checks its
/// outputs.  The walk's seed is P.Config.Seed + \p Round, so every round
/// of a run walks afresh while the run as a whole stays reproducible.
/// \p StageTimers turns on the program's stage timers (traced runs only).
OpResult runOperation(const Problem &P, unsigned Round, bool StageTimers);

/// Per-layer figures, summed over a run's operations.
using LayerSums = std::map<std::string, double>;

/// Traced measurement of one problem: an untraced and a stage-timed
/// operation, then replays of each layer's public calls on the best
/// program.  Adds its figures to \p Sums; returns the number of failed
/// operations (of two) and appends failure reasons to \p Failures and
/// failed checks to \p CheckErrors.
unsigned traceProblem(const Problem &P, unsigned Round, LayerSums &Sums,
                      std::vector<std::string> &Failures,
                      std::vector<std::string> &CheckErrors);

/// Finalizes \p Sums (accumulated over \p Rounds rounds) into the
/// per-layer metrics named in BENCHMARK.json.
std::vector<std::pair<std::string, double>>
layerMetrics(const LayerSums &Sums, unsigned Rounds);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_H
