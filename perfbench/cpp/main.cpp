//===- perfbench/cpp/main.cpp - Benchmark entry point ---------------------===//
//
// Part of the PSketch project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///
/// Runs whole rounds of the workload's operations for about S seconds and
/// prints, as the last line of standard output, one JSON object with the
/// keys correct, attempted, failed and metrics: the end-to-end metrics
/// with --trace 0, the per-layer metrics with --trace 1, each a bare
/// number (run.py adds the units from BENCHMARK.json).  Exits 1 when an
/// operation failed or an output check did not hold, 2 on a bad
/// invocation.
///
//===----------------------------------------------------------------------===//

#include "perfbench.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

using namespace perfbench;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    const std::string Flag = Argv[I];
    const char *Val = Argv[I + 1];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = Val;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(Val, &End, 10);
      HaveSeed = End && *End == '\0' && *Val;
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(Val, &End);
      HaveSeconds = End && *End == '\0' && A.Seconds > 0;
    } else if (Flag == "--trace") {
      if (std::strcmp(Val, "0") && std::strcmp(Val, "1"))
        return false;
      A.Trace = Val[0] == '1';
    } else {
      return false;
    }
  }
  return Argc % 2 == 1 && HaveWorkload && HaveSeed && HaveSeconds;
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N == 0 ? 0.0 : N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// One operation's figures as a round process reports them.
struct OpRecord {
  size_t Problem = 0;
  double SetupS = 0, PostSetupS = 0, Proposals = 0, TimeToTargetS = 0;
  bool Reached = false;
  double BestLL = 0;
};

/// Everything one round reported back to the parent.
struct RoundReport {
  unsigned Attempted = 0, Failed = 0;
  std::vector<OpRecord> Ops;
  std::vector<std::string> Failures, CheckErrors;
  LayerSums Layers;
  double PeakRssMiB = 0; ///< Peak resident memory of the round's process.
};

std::string oneLine(std::string S) {
  for (char &C : S)
    if (C == '\n' || C == '\t')
      C = ' ';
  return S;
}

/// Runs round \p Round of \p W and renders its report, one record per
/// line: `op`, `failed`, `check` and `layer` records, then `end`.
std::string runRound(const Workload &W, unsigned Round, bool Trace) {
  std::string Out;
  char Buf[512];
  unsigned Attempted = 0;
  LayerSums Layers;
  for (size_t I = 0; I != W.Problems.size(); ++I) {
    const Problem &P = W.Problems[I];
    std::vector<std::string> Failures, Checks;
    if (Trace) {
      const unsigned F = traceProblem(P, Round, Layers, Failures, Checks);
      Attempted += 2;
      for (unsigned K = 0; K != F; ++K)
        Out += "failed\t" + oneLine(Failures[K]) + "\n";
    } else {
      OpResult Op = runOperation(P, Round, /*StageTimers=*/false);
      ++Attempted;
      Checks = Op.CheckErrors;
      if (Op.Failed) {
        Out += "failed\t" + oneLine(Op.Failure) + "\n";
      } else {
        std::snprintf(Buf, sizeof(Buf),
                      "op\t%zu\t%.17g\t%.17g\t%llu\t%.17g\t%d\t%.17g\n", I,
                      Op.SetupS, Op.PostSetupS,
                      (unsigned long long)Op.PostSetupProposals,
                      Op.TimeToTargetS, int(Op.Reached),
                      Op.Result.BestLogLikelihood);
        Out += Buf;
      }
    }
    for (const std::string &C : Checks)
      Out += "check\t" + oneLine(C) + "\n";
  }
  for (const auto &[Name, Value] : Layers) {
    std::snprintf(Buf, sizeof(Buf), "layer\t%s\t%.17g\n", Name.c_str(), Value);
    Out += Buf;
  }
  Out += "end\t" + std::to_string(Attempted) + "\n";
  return Out;
}

std::vector<std::string> splitTabs(const std::string &Line) {
  std::vector<std::string> F;
  size_t Pos = 0;
  for (size_t Tab; (Tab = Line.find('\t', Pos)) != std::string::npos;
       Pos = Tab + 1)
    F.push_back(Line.substr(Pos, Tab - Pos));
  F.push_back(Line.substr(Pos));
  return F;
}

/// Runs one round in a child process, so that each round's peak memory is
/// its own and no round inherits another's heap.  A round whose process
/// dies counts all of its operations as failed.
RoundReport forkRound(const Workload &W, unsigned Round, bool Trace) {
  RoundReport R;
  const unsigned Expected = unsigned(W.Problems.size()) * (Trace ? 2 : 1);
  int Fds[2];
  std::fflush(nullptr);
  pid_t Pid = ::pipe(Fds) == 0 ? ::fork() : -1;
  if (Pid == 0) {
    ::close(Fds[0]);
    const std::string Report = runRound(W, Round, Trace);
    size_t Done = 0;
    while (Done < Report.size()) {
      const ssize_t N = ::write(Fds[1], Report.data() + Done,
                                Report.size() - Done);
      if (N <= 0)
        ::_exit(1);
      Done += size_t(N);
    }
    ::_exit(0);
  }
  std::string Text;
  if (Pid > 0) {
    ::close(Fds[1]);
    char Buf[4096];
    for (ssize_t N; (N = ::read(Fds[0], Buf, sizeof(Buf))) != 0;)
      if (N > 0)
        Text.append(Buf, size_t(N));
      else if (errno != EINTR)
        break;
    ::close(Fds[0]);
  }
  int Status = 0;
  struct rusage RU = {};
  const bool Exited = Pid > 0 && ::wait4(Pid, &Status, 0, &RU) == Pid &&
                      WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
  bool Ended = false;
  size_t Pos = 0;
  for (size_t NL; (NL = Text.find('\n', Pos)) != std::string::npos;
       Pos = NL + 1) {
    const std::vector<std::string> F = splitTabs(Text.substr(Pos, NL - Pos));
    if (F[0] == "op" && F.size() == 8) {
      OpRecord Op;
      Op.Problem = std::stoul(F[1]);
      Op.SetupS = std::stod(F[2]);
      Op.PostSetupS = std::stod(F[3]);
      Op.Proposals = std::stod(F[4]);
      Op.TimeToTargetS = std::stod(F[5]);
      Op.Reached = F[6] == "1";
      Op.BestLL = std::stod(F[7]);
      R.Ops.push_back(Op);
    } else if (F[0] == "failed" && F.size() == 2) {
      ++R.Failed;
      R.Failures.push_back(F[1]);
    } else if (F[0] == "check" && F.size() == 2) {
      R.CheckErrors.push_back(F[1]);
    } else if (F[0] == "layer" && F.size() == 3) {
      R.Layers[F[1]] += std::stod(F[2]);
    } else if (F[0] == "end" && F.size() == 2) {
      R.Attempted = unsigned(std::stoul(F[1]));
      Ended = true;
    }
  }
  if (!Exited || !Ended || R.Attempted != Expected) {
    R = RoundReport();
    R.Attempted = R.Failed = Expected;
    R.Failures.push_back("round " + std::to_string(Round) +
                         ": its process did not finish");
    return R;
  }
  R.PeakRssMiB = double(RU.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
  return R;
}

/// Prints the result line.  Each metric is printed as a bare number;
/// run.py adds the units declared in BENCHMARK.json.
void printResult(bool Correct, unsigned Attempted, unsigned Failed,
                 const std::vector<std::pair<std::string, double>> &Metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %u, \"failed\": %u, "
              "\"metrics\": {",
              Correct ? "true" : "false", Attempted, Failed);
  for (size_t I = 0; I != Metrics.size(); ++I)
    std::printf("%s\"%s\": %.17g", I ? ", " : "", Metrics[I].first.c_str(),
                Metrics[I].second);
  std::printf("}}\n");
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr, "usage: perfbench --workload NAME --seed N "
                         "--seconds S --trace 0|1\n");
    return 2;
  }
  // Generated inputs and side outputs live here for the run's lifetime.
  const std::string WorkDir =
      ".bench_build/work/run-" + std::to_string(::getpid());
  std::error_code EC;
  std::filesystem::create_directories(WorkDir, EC);
  if (EC) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", WorkDir.c_str());
    return 2;
  }
  struct WorkDirCleanup {
    std::string Dir;
    ~WorkDirCleanup() {
      std::error_code E;
      std::filesystem::remove_all(Dir, E);
    }
  } Cleanup{WorkDir};

  Workload W;
  std::string Err;
  if (!buildWorkload(A.Workload, A.Seed, WorkDir, W, Err)) {
    std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
    return 2;
  }

  unsigned Attempted = 0, Failed = 0, Rounds = 0;
  std::vector<std::string> Failures, CheckErrors;
  // Each end-to-end figure is taken per round; the run reports the median
  // over its rounds, which a rare slow or memory-hungry walk cannot move.
  std::vector<double> RoundRate, RoundTimeToTarget, RoundSetup, RoundRss;
  std::vector<unsigned> Reached(W.Problems.size(), 0);
  std::vector<double> LastBest(W.Problems.size(), 0);
  LayerSums Layers;

  // Whole rounds only: a round starts while the run is short of its
  // budget by at least the mean round length so far.
  const Clock::time_point Start = Clock::now();
  do {
    RoundReport R = forkRound(W, Rounds, A.Trace);
    Attempted += R.Attempted;
    Failed += R.Failed;
    Failures.insert(Failures.end(), R.Failures.begin(), R.Failures.end());
    CheckErrors.insert(CheckErrors.end(), R.CheckErrors.begin(),
                       R.CheckErrors.end());
    for (const auto &[Name, Value] : R.Layers)
      Layers[Name] += Value;
    double Setup = 0, PostSetup = 0, Proposals = 0, TimeToTarget = 0;
    for (const OpRecord &Op : R.Ops) {
      std::printf("  round %u %-14s setup %.4f s  walk %.4f s  %.0f "
                  "proposals  target %s at %.4f s\n",
                  Rounds, W.Problems[Op.Problem].Name.c_str(), Op.SetupS,
                  Op.PostSetupS, Op.Proposals,
                  Op.Reached ? "reached" : "censored", Op.TimeToTargetS);
      Setup += Op.SetupS;
      PostSetup += Op.PostSetupS;
      Proposals += Op.Proposals;
      TimeToTarget += Op.TimeToTargetS;
      Reached[Op.Problem] += Op.Reached;
      LastBest[Op.Problem] = Op.BestLL;
    }
    RoundRate.push_back(PostSetup > 0 ? Proposals / PostSetup : 0.0);
    RoundTimeToTarget.push_back(TimeToTarget);
    RoundSetup.push_back(Setup);
    RoundRss.push_back(R.PeakRssMiB);
    ++Rounds;
  } while (secondsBetween(Start, Clock::now()) * (Rounds + 1) / Rounds <=
           A.Seconds);

  for (const std::string &E : Failures)
    std::fprintf(stderr, "operation failed: %s\n", E.c_str());
  for (const std::string &E : CheckErrors)
    std::fprintf(stderr, "check failed: %s\n", E.c_str());

  std::printf("workload %s seed %llu: %u rounds, %u operations, %u failed, "
              "%zu check failures\n",
              A.Workload.c_str(), (unsigned long long)A.Seed, Rounds,
              Attempted, Failed, CheckErrors.size());
  std::vector<std::pair<std::string, double>> Metrics;
  if (A.Trace) {
    Metrics = layerMetrics(Layers, Rounds);
  } else {
    // Reach counts are printed for reference; they are not a metric.
    unsigned ReachCount = 0;
    for (size_t I = 0; I != W.Problems.size(); ++I) {
      const Problem &P = W.Problems[I];
      std::printf("  %-14s last best LL %14.4f  target LL %14.4f  threshold "
                  "%14.4f  reached in %u of %u rounds\n",
                  P.Name.c_str(), LastBest[I], P.TargetLL, P.TargetThreshold,
                  Reached[I], Rounds);
      ReachCount += Reached[I];
    }
    std::printf("reached the target in %u of %zu operations\n", ReachCount,
                size_t(Rounds) * W.Problems.size());
    Metrics = {{"proposals_per_s", median(RoundRate)},
               {"time_to_target_s", median(RoundTimeToTarget)},
               {"setup_s", median(RoundSetup)},
               {"peak_rss_mb", median(RoundRss)}};
  }
  const bool Correct = CheckErrors.empty();
  std::fflush(stdout);
  printResult(Correct, Attempted, Failed, Metrics);
  return Correct && Failed == 0 ? 0 : 1;
}
