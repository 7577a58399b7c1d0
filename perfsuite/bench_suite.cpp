//===- bench_suite.cpp - End-to-end and per-layer benchmark suite ---------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One benchmark driver with four workloads, each a closed loop of one client
/// thread over a seeded request list (README.md says why each exists and
/// what every metric means):
///
///   table1   - the five Table 1 TOSA models through the native pass manager
///              and through the same pipeline as an interpreted script;
///   tdl_opt  - one fresh Session per request over text files, as one
///              `tdl-opt` invocation with --pass-pipeline or --transform;
///   match_2k - transform.foreach_match with five deep matchers over a
///              2000-function payload;
///   tune_cfg - --target=cfg strategy dispatch with autotuning and a tuning
///              database, then execution of the generated code.
///
///   bench_suite --workload <name> --seed <n> --seconds <s> --trace <0|1>
///               --strategy-dir <dir> --out <results dir>
///
/// Each workload also does its payload work along a native path, with no
/// Transform script (the pass manager, the pass-pipeline arm, a C++ walk,
/// direct tiling and lowering calls); its output is a reference the script
/// path is checked against, and script time over native time is the
/// paper's overhead.
///
/// Requests run in whole rounds, each input class once per round in a seeded
/// order, so every run measures the same mix. One untimed warm-up round comes
/// first. Layers are timed from outside their public entry points; only
/// instrumentation the library already has is read. With --trace 1 every
/// other round runs with the span collector armed: those rounds give the
/// Chrome trace, the self-time split and trace.overhead_pct, the unarmed
/// rounds give the per-layer metrics. The last line of stdout is one JSON
/// object with the request counts and every metric measured.
///
//===----------------------------------------------------------------------===//

#include "core/Analysis.h"
#include "core/Transform.h"
#include "core/TransformLibrary.h"
#include "dialect/Dialects.h"
#include "exec/Executor.h"
#include "exec/Workloads.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "loops/LoopUtils.h"
#include "lowering/Passes.h"
#include "pass/Pass.h"
#include "support/Session.h"
#include "support/Stream.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace tdl;
namespace fs = std::filesystem;

namespace {

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// Runs \p F inside a span of \p Category (recorded only while the collector
/// is armed) and returns its wall-clock seconds.
template <typename Fn>
double timed(std::string_view Name, std::string_view Category, Fn &&F) {
  telemetry::ScopedSpan Span(Name, Category);
  Clock::time_point Start = Clock::now();
  F();
  return secondsSince(Start);
}

/// Linearly interpolated percentile (numpy's default); 0 without samples.
double percentile(std::vector<double> Values, double Pct) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  double Rank = Pct / 100.0 * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(Rank);
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Rank - static_cast<double>(Lo);
  return Values[Lo] + Frac * (Values[Hi] - Values[Lo]);
}

double median(const std::vector<double> &Values) {
  return percentile(Values, 50);
}

double mean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0;
  double Sum = 0;
  for (double V : Values)
    Sum += V;
  return Sum / static_cast<double>(Values.size());
}

double geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0;
  double LogSum = 0;
  for (double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

int64_t countOps(Operation *Root) {
  int64_t N = 0;
  Root->walk([&](Operation *) { ++N; });
  return N;
}

int64_t counterDelta(const telemetry::MetricsSnapshot &Delta,
                     const std::string &Name) {
  auto It = Delta.Counters.find(Name);
  return It == Delta.Counters.end() ? 0 : It->second;
}

double durationMs(const telemetry::MetricsSnapshot &Delta,
                  const std::string &Name) {
  auto It = Delta.Durations.find(Name);
  return It == Delta.Durations.end() ? 0 : It->second.TotalNanos / 1e6;
}

/// Wall time of every phase named \p Name in a Session run report.
double phaseMs(const RunReport &Report, std::string_view Name) {
  double Ms = 0;
  for (const RunReport::Phase &Phase : Report.Phases)
    if (Phase.Name == Name)
      Ms += Phase.WallNanos / 1e6;
  return Ms;
}

std::string jsonNumber(double Value) {
  if (!std::isfinite(Value))
    return "null";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
  return Buf;
}

bool writeTextFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::trunc);
  Out << Text;
  return static_cast<bool>(Out);
}

/// Peak resident set size of this process in MB (VmHWM: unlike getrusage,
/// it does not inherit the launching process's peak across exec).
double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

/// The calibration kernel's typical time on the 4-core Xeon host (2.1 GHz)
/// the README's numbers come from: the reference speed times are scaled to.
constexpr double ReferenceCalibrationMs = 3.2;

/// Keeps the calibration kernel's walk observable, so it cannot be
/// optimised away.
volatile int64_t CalibrationSink;

/// A fixed task shaped like IR work: a tree of individually allocated nodes
/// with op-like names, built in pseudo-random order and walked while
/// counting names in a map. It is the benchmark's own code, so no library
/// change moves it; its time tracks how fast the shared host runs right
/// now, which changes with load from other tenants.
double calibrationKernelMs() {
  struct Node {
    Node *Parent = nullptr;
    std::vector<Node *> Children;
    std::string Name;
    int64_t Value = 0;
  };
  constexpr int NumNodes = 12000;
  Clock::time_point Start = Clock::now();
  std::vector<std::unique_ptr<Node>> Nodes;
  Nodes.reserve(NumNodes);
  uint64_t X = 88172645463325252ull;
  for (int I = 0; I < NumNodes; ++I) {
    auto N = std::make_unique<Node>();
    N->Name = "op" + std::to_string(I % 977);
    N->Value = I;
    if (I > 0) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      N->Parent = Nodes[X % static_cast<uint64_t>(I)].get();
      N->Parent->Children.push_back(N.get());
    }
    Nodes.push_back(std::move(N));
  }
  std::map<std::string, int64_t> Names;
  int64_t Sum = 0;
  std::vector<Node *> Stack = {Nodes[0].get()};
  while (!Stack.empty()) {
    Node *N = Stack.back();
    Stack.pop_back();
    Sum += N->Value + ++Names[N->Name];
    Stack.insert(Stack.end(), N->Children.begin(), N->Children.end());
  }
  CalibrationSink = Sum;
  return secondsSince(Start) * 1e3;
}

int fatal(const std::string &Message) {
  std::fprintf(stderr, "error: %s\n", Message.c_str());
  return 1;
}

/// A Context with the dialects the in-memory workloads use.
std::unique_ptr<Context> makeContext() {
  auto Ctx = std::make_unique<Context>();
  registerAllDialects(*Ctx);
  registerTransformDialect(*Ctx);
  return Ctx;
}

/// Builds and drops one Context. The first allocations after a request has
/// freed a large payload pay for glibc sorting the freed chunks (about
/// 1.5 ms after match_2k's payload, ten times the set-up itself); a set-up
/// probe calls this first, so it times set-up work, not the heap the
/// previous request left.
void settleHeap() { (void)makeContext(); }

/// A directory for generated input files, removed with its contents.
class WorkDir {
public:
  WorkDir(const std::string &Parent, const std::string &Name)
      : Dir(Parent + "/work-" + Name + "-" + std::to_string(::getpid())) {
    fs::create_directories(Dir);
  }
  ~WorkDir() {
    std::error_code Ignored;
    fs::remove_all(Dir, Ignored);
  }
  WorkDir(const WorkDir &) = delete;
  WorkDir &operator=(const WorkDir &) = delete;

  std::string path(const std::string &File) const { return Dir + "/" + File; }

private:
  std::string Dir;
};

/// One `tdl-opt` invocation through the Session facade: construction, the
/// three set-up steps, and run(), with its output captured.
struct Invocation {
  std::string Out, Err;
  raw_string_ostream OS{Out}, ES{Err};
  std::unique_ptr<Session> S;
  double CtorSeconds = 0, SetupSeconds = 0, RunSeconds = 0;
  bool Ok = false;

  explicit Invocation(RunOptions Options) {
    Clock::time_point Start = Clock::now();
    {
      telemetry::ScopedSpan SetupSpan("session:setup", "session");
      S = std::make_unique<Session>(std::move(Options), OS, ES);
      CtorSeconds = secondsSince(Start);
      Ok = succeeded(S->loadLibraries()) && succeeded(S->scanStrategies()) &&
           succeeded(S->openTuningDB());
    }
    SetupSeconds = secondsSince(Start);
    if (Ok)
      RunSeconds = timed("tdl-opt:run", "session",
                         [&] { Ok = succeeded(S->run()); });
  }
  Invocation(const Invocation &) = delete;
  Invocation &operator=(const Invocation &) = delete;
};

//===----------------------------------------------------------------------===//
// Recorder
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  std::string StrategyDir;
  std::string OutDir;
};

/// The per-layer metrics a traced run reports, in BENCHMARK.json order. A
/// layer a workload does not reach reports 0.
const char *const LayerMetrics[] = {
    "support.context_ms",
    "ir.parse_mb_per_s",
    "ir.verify_ms",
    "ir.print_ms",
    "pass.ops_per_s",
    "interp.script_over_native",
    "interp.wrapper_ms",
    "interp.typecheck_ms",
    "interp.executed_ops",
    "engine.matcher_invocations",
    "engine.match_yield",
    "engine.match_pct",
    "engine.commit_pct",
    "engine.shard4_speedup",
    "library.parses",
    "strategy.tuning_db.hits",
    "strategy.tuning_db.misses",
    "strategy.cold_dispatch_ms",
    "strategy.warm_dispatch_ms",
    "autotune.evaluations",
    "autotune.evaluation_pct",
    "exec.elements_per_s",
    "exec.lowered_over_structured",
    "trace.overhead_pct",
};

/// Spans kept for the Chrome trace file (the first armed request's).
constexpr size_t MaxTraceSpans = 50000;

/// Seconds between two runs of the calibration kernel.
constexpr double CalibrationPeriodSeconds = 0.1;

/// Everything one run measures: request outcomes, compile times per arm,
/// set-up times, per-layer samples, span self times, and the host speed.
class Recorder {
public:
  explicit Recorder(const Args &A) : A(A) {
    for (int I = 0; I < 5; ++I)
      calibrate();
  }

  bool traced() const { return A.Trace; }
  /// Whether samples taken now feed the reported metrics: inside the window
  /// and, in a traced run, in a round without spans.
  bool keeping() const { return Recording && !Armed; }

  /// One untimed warm-up round, then whole rounds until the window closes.
  void runRounds(const std::function<void()> &Round) {
    Round();
    Recording = true;
    Clock::time_point Start = Clock::now();
    for (int64_t I = 0; secondsSince(Start) < A.Seconds; ++I) {
      Armed = traced() && I % 2 == 1;
      Round();
      if (keeping())
        RoundThroughput.push_back(measured(RoundOps / RoundSeconds));
      RoundOps = 0;
      RoundSeconds = 0;
      ++Rounds;
    }
    WindowSeconds = secondsSince(Start);
    Recording = Armed = false;
  }

  void beginRequest() {
    if (Armed)
      telemetry::SpanCollector::instance().start();
  }
  /// Closes one request: its outcome, the seconds the system spent on it,
  /// and the payload ops it processed.
  void endRequest(bool Ok, const std::string &What, double Seconds,
                  int64_t PayloadOps) {
    if (Armed)
      addSpans(telemetry::SpanCollector::instance().finish());
    outcome(Ok, What);
    if (keeping()) {
      RoundSeconds += Seconds;
      RoundOps += PayloadOps;
    }
    if (secondsSince(LastCalibration) >= CalibrationPeriodSeconds)
      calibrate();
  }
  /// Counts one checked operation; a failure is reported on stderr.
  void outcome(bool Ok, const std::string &What) {
    ++Attempted;
    if (Ok)
      return;
    if (++Failed <= 5)
      std::fprintf(stderr, "FAILED: %s\n", What.c_str());
  }

  void compile(const std::string &Arm, double Seconds) {
    if (Recording)
      (Armed ? ArmedCompileMs : CompileMs)[Arm].push_back(
          measured(Seconds * 1e3));
  }
  /// One request's script-driven time over the native path's time for the
  /// same payload work. The two run back to back, so host speed cancels.
  void scriptVsNative(const std::string &Class, double ScriptSeconds,
                      double NativeSeconds) {
    if (keeping())
      ScriptOverNative[Class].push_back(ScriptSeconds / NativeSeconds);
    sample("interp.wrapper_ms", (ScriptSeconds - NativeSeconds) * 1e3);
  }
  /// Geometric mean over input classes of each class's median ratio.
  double scriptOverNative() const {
    std::vector<double> PerClass;
    for (const auto &[Class, Ratios] : ScriptOverNative)
      PerClass.push_back(median(Ratios));
    return geomean(PerClass);
  }
  /// Set-up is measured in every round, warm-up included.
  void setup(double Seconds, double ContextSeconds) {
    SetupSeconds.push_back(measured(Seconds));
    ContextMs.push_back(ContextSeconds * 1e3);
  }
  /// A per-request layer value reported as the median.
  void sample(const std::string &Name, double Value) {
    if (keeping())
      LayerSamples[Name].push_back(Value);
  }
  /// A per-request (or per-group) count reported as the mean, which is
  /// exact over whole rounds.
  void count(const std::string &Name, double Value) {
    if (keeping())
      LayerCounts[Name].push_back(Value);
  }
  void set(const std::string &Name, double Value) { LayerFixed[Name] = Value; }

  /// Registry delta over \p F in traced runs; untraced runs skip the
  /// snapshots.
  template <typename Fn> telemetry::MetricsSnapshot registryDelta(Fn &&F) {
    if (!traced()) {
      F();
      return {};
    }
    auto &Registry = telemetry::MetricsRegistry::instance();
    telemetry::MetricsSnapshot Before = Registry.snapshot();
    F();
    return telemetry::diffSnapshots(Registry.snapshot(), Before);
  }

  /// Prints the summary, writes the result files and the JSON line; returns
  /// the exit code.
  int finish();

private:
  /// An end-to-end measurement and how many calibration runs preceded it.
  struct Sample {
    double Value;
    size_t Calibrations;
  };
  Sample measured(double Value) const { return {Value, CalibrationMs.size()}; }

  /// How much slower than the reference the host ran around \p S: the
  /// median of the two calibration runs before it and the two after it,
  /// over the reference time.
  double hostSlowdown(const Sample &S) const {
    size_t Begin = S.Calibrations >= 2 ? S.Calibrations - 2 : 0;
    size_t End = std::min(S.Calibrations + 2, CalibrationMs.size());
    return median({CalibrationMs.begin() + Begin,
                   CalibrationMs.begin() + End}) /
           ReferenceCalibrationMs;
  }
  /// \p Samples as measured or, with \p Scaled, at the reference host
  /// speed: times are divided by the slowdown around them, rates multiplied.
  /// A load burst from another tenant inside a run is scaled away too.
  std::vector<double> values(const std::vector<Sample> &Samples, bool Scaled,
                             bool Rate = false) const {
    std::vector<double> Values;
    for (const Sample &S : Samples) {
      double Slowdown = Scaled ? hostSlowdown(S) : 1.0;
      Values.push_back(Rate ? S.Value * Slowdown : S.Value / Slowdown);
    }
    return Values;
  }
  /// Geometric mean over arms of each arm's \p Pct-th percentile.
  double
  compilePercentile(const std::map<std::string, std::vector<Sample>> &ByArm,
                    double Pct, bool Scaled = true) const {
    std::vector<double> PerArm;
    for (const auto &[Arm, Samples] : ByArm)
      PerArm.push_back(percentile(values(Samples, Scaled), Pct));
    return geomean(PerArm);
  }
  /// The end-to-end times and rates, scaled or as measured.
  std::vector<std::pair<std::string, double>> endToEnd(bool Scaled) const {
    return {
        {"setup_s", median(values(SetupSeconds, Scaled))},
        {"compile_ms.p50", compilePercentile(CompileMs, 50, Scaled)},
        {"compile_ms.p90", compilePercentile(CompileMs, 90, Scaled)},
        {"throughput_ops_per_s",
         median(values(RoundThroughput, Scaled, /*Rate=*/true))},
    };
  }
  double layerValue(const std::string &Name) const;
  void addSpans(std::vector<telemetry::Span> Spans);
  /// Runs the calibration kernel on its own short-lived thread: glibc gives
  /// that thread its own malloc arena, so the kernel's time does not depend
  /// on the heap the workload left behind.
  void calibrate() {
    double Ms = 0;
    std::thread Kernel([&] { Ms = calibrationKernelMs(); });
    Kernel.join();
    CalibrationMs.push_back(Ms);
    LastCalibration = Clock::now();
  }

  const Args &A;
  bool Recording = false;
  bool Armed = false;
  int64_t Rounds = 0;
  double WindowSeconds = 0;
  int64_t Attempted = 0, Failed = 0;
  /// Payload ops and request seconds of the current round, and ops per
  /// second of each finished round.
  double RoundOps = 0, RoundSeconds = 0;
  std::vector<Sample> RoundThroughput;
  std::map<std::string, std::vector<Sample>> CompileMs, ArmedCompileMs;
  std::map<std::string, std::vector<double>> ScriptOverNative;
  std::vector<Sample> SetupSeconds;
  std::vector<double> ContextMs;
  std::map<std::string, std::vector<double>> LayerSamples, LayerCounts;
  std::map<std::string, double> LayerFixed;
  std::map<std::string, int64_t> SelfNanos;
  std::vector<telemetry::Span> TraceSpans;
  std::vector<double> CalibrationMs;
  Clock::time_point LastCalibration;
};

/// Self time per span category: each span's duration minus the part its
/// direct children cover.
void Recorder::addSpans(std::vector<telemetry::Span> Spans) {
  std::sort(Spans.begin(), Spans.end(),
            [](const telemetry::Span &L, const telemetry::Span &R) {
              if (L.ThreadId != R.ThreadId)
                return L.ThreadId < R.ThreadId;
              if (L.StartNanos != R.StartNanos)
                return L.StartNanos < R.StartNanos;
              return L.DurNanos > R.DurNanos;
            });
  std::vector<int64_t> ChildNanos(Spans.size(), 0);
  std::vector<size_t> Open;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const telemetry::Span &S = Spans[I];
    while (!Open.empty() &&
           (Spans[Open.back()].ThreadId != S.ThreadId ||
            Spans[Open.back()].StartNanos + Spans[Open.back()].DurNanos <=
                S.StartNanos))
      Open.pop_back();
    if (!Open.empty())
      ChildNanos[Open.back()] += S.DurNanos;
    Open.push_back(I);
  }
  for (size_t I = 0; I < Spans.size(); ++I)
    SelfNanos[Spans[I].Category] +=
        std::max<int64_t>(0, Spans[I].DurNanos - ChildNanos[I]);
  if (TraceSpans.empty()) {
    TraceSpans = std::move(Spans);
    if (TraceSpans.size() > MaxTraceSpans)
      TraceSpans.resize(MaxTraceSpans);
  }
}

double Recorder::layerValue(const std::string &Name) const {
  if (auto It = LayerFixed.find(Name); It != LayerFixed.end())
    return It->second;
  if (auto It = LayerSamples.find(Name); It != LayerSamples.end())
    return median(It->second);
  if (auto It = LayerCounts.find(Name); It != LayerCounts.end())
    return mean(It->second);
  return 0;
}

int Recorder::finish() {
  if (Attempted == 0 || CompileMs.empty() || RoundThroughput.empty())
    return fatal("no request completed inside the measured window");

  double HostSlowdown = median(CalibrationMs) / ReferenceCalibrationMs;
  std::vector<std::pair<std::string, double>> Metrics;
  if (!traced()) {
    Metrics = endToEnd(/*Scaled=*/true);
    Metrics.emplace_back("peak_rss_mb", peakRssMb());
  } else {
    LayerFixed["support.context_ms"] = median(ContextMs);
    LayerFixed["interp.script_over_native"] = scriptOverNative();
    if (!ArmedCompileMs.empty())
      LayerFixed["trace.overhead_pct"] =
          100.0 * (compilePercentile(ArmedCompileMs, 50) /
                       compilePercentile(CompileMs, 50) -
                   1.0);
    for (const char *Name : LayerMetrics)
      Metrics.emplace_back(Name, layerValue(Name));
  }

  // Human-readable summary.
  std::printf("\nworkload %s, seed %llu, %s run: %lld rounds in %.2f s, "
              "%lld requests, %lld failed\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              traced() ? "traced" : "untraced", static_cast<long long>(Rounds),
              WindowSeconds, static_cast<long long>(Attempted),
              static_cast<long long>(Failed));
  std::printf("  host slowdown %.3f (calibration kernel median %.3f ms over "
              "%zu runs, reference %.1f ms)\n",
              HostSlowdown, median(CalibrationMs), CalibrationMs.size(),
              ReferenceCalibrationMs);
  for (const auto &[Arm, Samples] : CompileMs) {
    std::vector<double> Ms = values(Samples, /*Scaled=*/true);
    std::printf("  arm %-14s %6zu samples, p50 %.3f ms, p90 %.3f ms\n",
                Arm.c_str(), Ms.size(), percentile(Ms, 50),
                percentile(Ms, 90));
  }
  int64_t SelfTotal = 0;
  for (const auto &[Category, Nanos] : SelfNanos)
    SelfTotal += Nanos;
  if (SelfTotal > 0) {
    std::printf("  self time by span category (armed rounds):\n");
    for (const auto &[Category, Nanos] : SelfNanos)
      std::printf("    %-14s %6.2f %%\n", Category.c_str(),
                  100.0 * Nanos / SelfTotal);
  }

  // BENCH_suite_<workload>[_trace].json: flat keys, readable by
  // tdl-bench-diff.
  std::string Bench = "suite_" + A.Workload + (traced() ? "_trace" : "");
  std::string Json = "{\n  " + telemetry::jsonQuoted("bench") + ": " +
                     telemetry::jsonQuoted(Bench);
  auto Key = [&](const std::string &Name, double Value) {
    Json += ",\n  " + telemetry::jsonQuoted(Name) + ": " + jsonNumber(Value);
  };
  Key("seed", static_cast<double>(A.Seed));
  Key("attempted", static_cast<double>(Attempted));
  Key("failed", static_cast<double>(Failed));
  Key("host_slowdown", HostSlowdown);
  // The unscaled values, so the effect of host-speed scaling stays visible.
  if (!traced())
    for (const auto &[Name, Value] : endToEnd(/*Scaled=*/false))
      Key("raw." + Name, Value);
  for (const auto &[Arm, Ms] : CompileMs)
    Key("samples." + Arm, static_cast<double>(Ms.size()));
  for (const auto &[Name, Value] : Metrics)
    Key(traced() ? "layer." + Name : Name, Value);
  for (const auto &[Category, Nanos] : SelfNanos)
    Key("layer.self_pct." + Category, 100.0 * Nanos / SelfTotal);
  Json += "\n}\n";
  if (!writeTextFile(A.OutDir + "/BENCH_" + Bench + ".json", Json))
    return fatal("cannot write BENCH_" + Bench + ".json");
  if (traced()) {
    std::string Trace;
    raw_string_ostream TraceOS(Trace);
    telemetry::writeChromeTrace(TraceSpans, TraceOS);
    if (!writeTextFile(A.OutDir + "/" + A.Workload + ".trace.json", Trace))
      return fatal("cannot write the Chrome trace");
  }

  std::string Line = "{\"attempted\": " + std::to_string(Attempted) +
                     ", \"failed\": " + std::to_string(Failed) +
                     ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I)
    Line += (I ? ", " : "") + telemetry::jsonQuoted(Metrics[I].first) + ": " +
            jsonNumber(Metrics[I].second);
  std::printf("%s}}\n", Line.c_str());
  std::fflush(stdout);
  return Failed == 0 ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// table1: native pass manager vs the same pipeline as a Transform script
//===----------------------------------------------------------------------===//

struct Table1Model {
  const char *Name;
  int64_t NumOps;
  double PaperMlirMs;
  double PaperTransformMs;
};

/// Table 1 of the paper: op counts and its measured compile times.
const Table1Model Table1Models[] = {
    {"Squeezenet", 126, 16.6, 16.9},
    {"GPT-2", 2861, 185.4, 190.0},
    {"Mobile BERT", 4134, 316.7, 317.7},
    {"Whisper (dec)", 847, 457.5, 462.3},
    {"BERT-base", 1182, 1315.3, 1348.6},
};
constexpr int NumModels = 5;

/// Seeded variants of each model that table1 and tdl_opt cycle through,
/// one per round: the medians do not hinge on the op mix of one draw, and
/// the set of inputs (and so the memory they take) stays bounded.
constexpr int NumModelVariants = 16;

/// The paper's bound on interpretation overhead.
constexpr double PaperOverheadPct = 2.6;

/// The generator seed of model variant \p Variant in a run with \p Seed.
uint64_t modelSeed(uint64_t Seed, int64_t Variant) {
  return Seed * 1000003 + static_cast<uint64_t>(Variant);
}

/// The Table 1 rows, the Figure 6 series and the verdict against the
/// paper's bound. \p TransformOverNative is the run's script_over_native.
void printTable1(const std::vector<double> (&NativeMs)[NumModels],
                 const std::vector<double> (&TransformMs)[NumModels],
                 double TransformOverNative) {
  std::printf("\nTable 1: TOSA->Linalg pipeline, native pass manager vs "
              "Transform script (median ms per request)\n");
  std::printf("%-15s %6s | %10s %10s %9s | paper: %7s %7s %6s\n", "model",
              "#ops", "native", "transform", "overhead", "native", "transf",
              "ovh");
  for (int M = 0; M < NumModels; ++M) {
    const Table1Model &Model = Table1Models[M];
    double Native = median(NativeMs[M]), Transform = median(TransformMs[M]);
    std::printf("%-15s %6lld | %10.3f %10.3f %8.2f%% | %13.1f %7.1f %5.1f%%\n",
                Model.Name, static_cast<long long>(Model.NumOps), Native,
                Transform, 100.0 * (Transform / Native - 1.0),
                Model.PaperMlirMs, Model.PaperTransformMs,
                100.0 * (Model.PaperTransformMs / Model.PaperMlirMs - 1.0));
  }
  std::printf("Figure 6 series (x = native ms, y = transform ms):");
  for (int M = 0; M < NumModels; ++M)
    std::printf(" (%.3f, %.3f)", median(NativeMs[M]), median(TransformMs[M]));
  double Overhead = 100.0 * (TransformOverNative - 1.0);
  std::printf("\noverhead (geomean over models of the median per-request "
              "ratio): %.2f%% -> %s against the paper's <= %.1f%%\n",
              Overhead, Overhead <= PaperOverheadPct ? "PASS" : "FAIL",
              PaperOverheadPct);
}

/// What table1 builds before its requests: Context, dialects, the parsed
/// pipeline and the equivalent script.
struct Table1Setup {
  std::unique_ptr<Context> Ctx;
  std::vector<PipelineElement> Elements;
  OwningOpRef Script; ///< Declared after Ctx, so destroyed before it.
};

/// Builds \p S (which must be empty) and records the time it took. Set-up
/// is measured once per round as well, since the host's speed drifts.
bool buildTable1Setup(Recorder &R, Table1Setup &S) {
  Clock::time_point Start = Clock::now();
  double ContextSeconds =
      timed("context", "setup", [&] { S.Ctx = makeContext(); });
  std::string Pipeline = workloads::getTosaPipeline();
  FailureOr<std::vector<PipelineElement>> Parsed =
      parsePassPipeline(*S.Ctx, Pipeline);
  if (failed(Parsed))
    return false;
  S.Elements = *Parsed;
  S.Script = buildTransformScriptFromPipeline(*S.Ctx, Pipeline);
  R.setup(secondsSince(Start), ContextSeconds);
  return true;
}

int runTable1(const Args &A, Recorder &R) {
  Table1Setup S;
  if (!buildTable1Setup(R, S))
    return fatal("cannot parse the Table 1 pipeline");

  std::vector<double> NativeMs[NumModels], TransformMs[NumModels];
  std::mt19937_64 Rng(A.Seed);
  int64_t RequestIndex = 0, Round = 0;
  R.runRounds([&] {
    settleHeap();
    Table1Setup Probe;
    (void)buildTable1Setup(R, Probe);
    int Order[NumModels] = {0, 1, 2, 3, 4};
    std::shuffle(std::begin(Order), std::end(Order), Rng);
    for (int M : Order) {
      const Table1Model &Model = Table1Models[M];
      uint64_t Seed =
          modelSeed(A.Seed, Round % NumModelVariants * NumModels + M);
      OwningOpRef NativeMod =
          workloads::buildSyntheticTosaModel(*S.Ctx, Model.NumOps, Seed);
      OwningOpRef TransformMod =
          workloads::buildSyntheticTosaModel(*S.Ctx, Model.NumOps, Seed);
      int64_t ModelOps = countOps(NativeMod.get());
      bool NativeOk = false, TransformOk = false;
      double NativeSeconds = 0, TransformSeconds = 0;
      telemetry::MetricsSnapshot Delta;
      auto RunNative = [&] {
        NativeSeconds = timed("pass-manager:run", "pass", [&] {
          PassManager PM(*S.Ctx);
          NativeOk = succeeded(buildPassManager(PM, S.Elements)) &&
                     succeeded(PM.run(NativeMod.get()));
        });
      };
      auto RunTransform = [&] {
        Delta = R.registryDelta([&] {
          TransformSeconds = timed("applyTransforms", "interp", [&] {
            TransformOk =
                succeeded(applyTransforms(TransformMod.get(), S.Script.get()));
          });
        });
      };

      R.beginRequest();
      // Alternate which arm runs first so neither always gets warm caches.
      if (RequestIndex++ % 2 == 0) {
        RunNative();
        RunTransform();
      } else {
        RunTransform();
        RunNative();
      }
      bool Verified = false;
      std::string Printed;
      double VerifySeconds = timed("verify", "ir", [&] {
        Verified = succeeded(verify(TransformMod.get()));
      });
      double PrintSeconds = timed("print", "ir", [&] {
        Printed = printOperationToString(TransformMod.get());
      });
      bool Ok = NativeOk && TransformOk && Verified &&
                Printed == printOperationToString(NativeMod.get());
      R.compile("transform", TransformSeconds);
      R.endRequest(Ok, std::string("table1 ") + Model.Name,
                   NativeSeconds + TransformSeconds, 2 * ModelOps);
      R.scriptVsNative(Model.Name, TransformSeconds, NativeSeconds);
      if (R.keeping()) {
        NativeMs[M].push_back(NativeSeconds * 1e3);
        TransformMs[M].push_back(TransformSeconds * 1e3);
      }
      R.sample("ir.verify_ms", VerifySeconds * 1e3);
      R.sample("ir.print_ms", PrintSeconds * 1e3);
      R.sample("pass.ops_per_s", ModelOps / NativeSeconds);
      if (R.traced() && R.keeping()) {
        R.sample("interp.typecheck_ms",
                 1e3 * timed("analyzeHandleTypes", "interp",
                             [&] {
                               (void)analyzeHandleTypes(S.Script.get());
                             }));
        R.count("interp.executed_ops",
                counterDelta(Delta, "interp.executed_ops"));
      }
    }
    ++Round;
  });

  printTable1(NativeMs, TransformMs, R.scriptOverNative());
  return 0;
}

//===----------------------------------------------------------------------===//
// tdl_opt: one Session per request over text files, as tdl-opt runs
//===----------------------------------------------------------------------===//

int runTdlOpt(const Args &A, Recorder &R) {
  // Inputs are written once: variants of the five Table 1 models as text,
  // and the Table 1 pipeline both as a pipeline string and as a script.
  WorkDir Work(A.OutDir, "tdl_opt");
  std::string Pipeline = workloads::getTosaPipeline();
  std::string ScriptPath = Work.path("pipeline_script.mlir");
  std::string ScriptText;
  struct ModelFile {
    std::string Path;
    int64_t Ops = 0, Bytes = 0;
    /// hashContent() of each arm's output, computed untimed; a request is
    /// checked against the other arm's output on the same file. Hashes keep
    /// the 160 reference outputs out of the process's peak memory.
    uint64_t Reference[2] = {0, 0};
  };
  ModelFile Files[NumModels][NumModelVariants];
  {
    std::unique_ptr<Context> Ctx = makeContext();
    ScriptText = printOperationToString(
        buildTransformScriptFromPipeline(*Ctx, Pipeline).get());
    if (!writeTextFile(ScriptPath, ScriptText))
      return fatal("cannot write " + ScriptPath);
    for (int M = 0; M < NumModels; ++M)
      for (int V = 0; V < NumModelVariants; ++V) {
        OwningOpRef Model = workloads::buildSyntheticTosaModel(
            *Ctx, Table1Models[M].NumOps,
            modelSeed(A.Seed, V * NumModels + M));
        std::string Text = printOperationToString(Model.get());
        ModelFile &File = Files[M][V];
        File.Path = Work.path("model" + std::to_string(M) + "_" +
                              std::to_string(V) + ".mlir");
        File.Ops = countOps(Model.get());
        File.Bytes = static_cast<int64_t>(Text.size());
        if (!writeTextFile(File.Path, Text))
          return fatal("cannot write " + File.Path);
      }
  }

  const char *const ArmNames[2] = {"pass-pipeline", "transform"};
  auto Options = [&](const ModelFile &File, int Arm) {
    RunOptions Options;
    Options.PayloadPath = File.Path;
    if (Arm == 0)
      Options.PassPipeline = Pipeline;
    else
      Options.TransformScript = ScriptPath;
    return Options;
  };
  for (auto &Variants : Files)
    for (ModelFile &File : Variants)
      for (int Arm = 0; Arm < 2; ++Arm) {
        Invocation Inv(Options(File, Arm));
        if (!Inv.Ok)
          return fatal("reference run failed: " + Inv.Err);
        File.Reference[Arm] = hashContent(Inv.Out);
      }

  std::mt19937_64 Rng(A.Seed);
  int64_t Round = 0;
  R.runRounds([&] {
    // Each model's run time per arm in this round; the transform arm over
    // the pass-pipeline arm is the round's script-vs-native ratio.
    double RunSeconds[NumModels][2] = {};
    std::vector<std::pair<int, int>> Order;
    for (int M = 0; M < NumModels; ++M)
      for (int Arm = 0; Arm < 2; ++Arm)
        Order.emplace_back(M, Arm);
    std::shuffle(Order.begin(), Order.end(), Rng);
    for (auto [M, Arm] : Order) {
      const ModelFile &File = Files[M][Round % NumModelVariants];
      R.beginRequest();
      std::optional<Invocation> Inv;
      telemetry::MetricsSnapshot Delta =
          R.registryDelta([&] { Inv.emplace(Options(File, Arm)); });
      bool Ok = Inv->Ok && hashContent(Inv->Out) == File.Reference[1 - Arm];
      R.setup(Inv->SetupSeconds, Inv->CtorSeconds);
      R.compile(ArmNames[Arm], Inv->RunSeconds);
      if (Ok) {
        RunSeconds[M][Arm] = Inv->RunSeconds;
        if (RunSeconds[M][1 - Arm] > 0)
          R.scriptVsNative(Table1Models[M].Name, RunSeconds[M][1],
                           RunSeconds[M][0]);
      }
      if (Ok && R.traced() && R.keeping()) {
        const RunReport &Report = Inv->S->getLastRunReport();
        R.sample("ir.parse_mb_per_s",
                 File.Bytes / 1e3 / phaseMs(Report, "load"));
        if (Arm == 0)
          R.sample("pass.ops_per_s",
                   File.Ops * 1e3 / phaseMs(Report, ArmNames[Arm]));
        R.count("interp.executed_ops",
                counterDelta(Delta, "interp.executed_ops"));
        Operation *Payload = Inv->S->getPayload();
        R.sample("ir.verify_ms", 1e3 * timed("verify", "ir",
                                             [&] { (void)verify(Payload); }));
        R.sample("ir.print_ms", 1e3 * timed("print", "ir", [&] {
                                  (void)printOperationToString(Payload);
                                }));
        if (Arm == 1) {
          OwningOpRef Script =
              parseSourceString(Inv->S->getContext(), ScriptText);
          R.sample("interp.typecheck_ms",
                   1e3 * timed("analyzeHandleTypes", "interp", [&] {
                     (void)analyzeHandleTypes(Script.get());
                   }));
        }
      }
      R.endRequest(Ok,
                   std::string("tdl_opt ") + Table1Models[M].Name + " " +
                       ArmNames[Arm] + ": " + Inv->Err,
                   Inv->SetupSeconds + Inv->RunSeconds, File.Ops);
    }
    ++Round;
  });
  return 0;
}

//===----------------------------------------------------------------------===//
// match_2k: foreach_match with deep matchers over 2000 functions
//===----------------------------------------------------------------------===//

struct MatchCategory {
  const char *Tag;
  const char *OpName;
  int PerFunction; ///< How many ops of this kind each generated function has.
};

const MatchCategory MatchCategories[] = {
    {"cat_loop", "scf.for", 2},      {"cat_load", "memref.load", 1},
    {"cat_add", "arith.addf", 1},    {"cat_mul", "arith.mulf", 1},
    {"cat_store", "memref.store", 1},
};

/// \p NumFuncs functions, each a two-deep loop nest over a seeded
/// memref<AxBxf64> with one load, addf, mulf and store.
std::string matchPayload(int NumFuncs, std::mt19937_64 &Rng) {
  std::uniform_int_distribution<int> Dim(8, 32);
  std::string Text = "\"builtin.module\"() ({\n";
  for (int F = 0; F < NumFuncs; ++F) {
    std::string DimA = std::to_string(Dim(Rng));
    std::string DimB = std::to_string(Dim(Rng));
    std::string MemTy = "memref<" + DimA + "x" + DimB + "xf64>";
    Text += "  \"func.func\"() ({\n  ^bb0(%m: " + MemTy + R"():
    %lb = "arith.constant"() {value = 0 : index} : () -> (index)
    %ua = "arith.constant"() {value = )" + DimA + R"( : index} : () -> (index)
    %ub = "arith.constant"() {value = )" + DimB + R"( : index} : () -> (index)
    %one = "arith.constant"() {value = 1 : index} : () -> (index)
    "scf.for"(%lb, %ua, %one) ({
    ^outer(%i: index):
      "scf.for"(%lb, %ub, %one) ({
      ^inner(%j: index):
        %v = "memref.load"(%m, %i, %j)
          : ()" + MemTy + R"(, index, index) -> (f64)
        %w = "arith.addf"(%v, %v) : (f64, f64) -> (f64)
        %x = "arith.mulf"(%w, %v) : (f64, f64) -> (f64)
        "memref.store"(%x, %m, %i, %j)
          : (f64, )" + MemTy + R"(, index, index) -> ()
        "scf.yield"() : () -> ()
      }) : (index, index, index) -> ()
      "scf.yield"() : () -> ()
    }) : (index, index, index) -> ()
    "func.return"() : () -> ()
  }) {sym_name = "f)" + std::to_string(F) + "\", function_type = (" + MemTy +
            ") -> ()} : () -> ()\n";
  }
  return Text + "}) : () -> ()\n";
}

/// match_2k's native path: the annotation the script asks for, written as one
/// C++ walk. Its output is also the reference for which ops the script
/// annotates.
void annotateNatively(Operation *Payload) {
  Attribute Unit = UnitAttr::get(Payload->getContext());
  Payload->walk([&](Operation *Op) {
    for (const MatchCategory &C : MatchCategories)
      if (Op->getName() == C.OpName)
        Op->setAttr(C.Tag, Unit);
  });
}

/// The annotations under \p Payload: per op in walk order, one bit per
/// category. With \p Strip, the annotations are removed as they are read.
std::vector<uint8_t> takeAnnotations(Operation *Payload, bool Strip) {
  std::vector<uint8_t> Bits;
  Payload->walk([&](Operation *Op) {
    uint8_t OpBits = 0;
    for (size_t I = 0; I < std::size(MatchCategories); ++I)
      if (Op->hasAttr(MatchCategories[I].Tag)) {
        OpBits |= uint8_t(1) << I;
        if (Strip)
          Op->removeAttr(MatchCategories[I].Tag);
      }
    Bits.push_back(OpBits);
  });
  return Bits;
}

/// What is wrong with \p Annotations (from takeAnnotations) against the
/// per-category counts the generator put into \p NumFuncs functions; empty
/// when they match.
std::string checkCounts(const std::vector<uint8_t> &Annotations,
                        int NumFuncs) {
  std::string Why;
  for (size_t I = 0; I < std::size(MatchCategories); ++I) {
    int64_t Seen = std::count_if(
        Annotations.begin(), Annotations.end(),
        [&](uint8_t Bits) { return Bits & (uint8_t(1) << I); });
    if (Seen != int64_t(MatchCategories[I].PerFunction) * NumFuncs)
      Why += std::string(MatchCategories[I].Tag) + " annotated " +
             std::to_string(Seen) + " times; ";
  }
  return Why;
}

/// One foreach_match over (matcher, annotate-action) pairs whose matchers do
/// not start with match.operation_name, so no name prefilter applies and
/// every payload op enters the interpreter for every pair until one claims
/// it.
std::string deepMatchScript() {
  std::string Sequences, Matchers, Actions;
  for (const MatchCategory &C : MatchCategories) {
    std::string Tag = C.Tag;
    Sequences += R"(
  "transform.named_sequence"() ({
  ^bb0(%op: !transform.any_op):
    %0 = "transform.match.operands"(%op) {min = 0 : index}
      : (!transform.any_op) -> (!transform.any_op)
    %1 = "transform.match.operation_name"(%0) {op_names = [")" +
                 std::string(C.OpName) + R"("]}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.yield"() : () -> ()
  }) {sym_name = "is_)" + Tag + R"("} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%op: !transform.any_op):
    "transform.annotate"(%op) {name = ")" + Tag + R"("}
      : (!transform.any_op) -> ()
    "transform.yield"() : () -> ()
  }) {sym_name = "mark_)" + Tag + R"("} : () -> ()
)";
    Matchers += (Matchers.empty() ? "@is_" : ", @is_") + Tag;
    Actions += (Actions.empty() ? "@mark_" : ", @mark_") + Tag;
  }
  return "\"builtin.module\"() ({" + Sequences + R"(
  "transform.named_sequence"() ({
  ^bb0(%root: !transform.any_op):
    %u = "transform.foreach_match"(%root) {matchers = [)" +
         Matchers + "], actions = [" + Actions + R"(]}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.yield"() : () -> ()
  }) {sym_name = "__transform_main"} : () -> ()
}) : () -> ()
)";
}

int runMatch2k(const Args &A, Recorder &R) {
  constexpr int NumFuncs = 2000;
  std::mt19937_64 Rng(A.Seed);
  std::string PayloadText = matchPayload(NumFuncs, Rng);
  std::string ScriptText = deepMatchScript();

  // Set-up: Context, dialects, script parse. It is measured once per round
  // as well, since the host's speed drifts.
  auto SetUp = [&](std::unique_ptr<Context> &Ctx, OwningOpRef &Script) {
    Clock::time_point Start = Clock::now();
    double ContextSeconds =
        timed("context", "setup", [&] { Ctx = makeContext(); });
    Script = parseSourceString(*Ctx, ScriptText, "match_2k-script");
    R.setup(secondsSince(Start), ContextSeconds);
    return static_cast<bool>(Script);
  };
  std::unique_ptr<Context> Ctx;
  OwningOpRef Script; // declared after Ctx, so destroyed before it
  if (!SetUp(Ctx, Script))
    return fatal("cannot parse the match_2k script");

  /// A parsed payload. With native annotation, the native walk annotates it
  /// right after the parse; its annotations, checked against the
  /// generator's counts, are kept as the reference for the script's and
  /// stripped.
  struct Parsed {
    OwningOpRef Payload;
    double ParseSeconds = 0, NativeSeconds = 0;
    std::vector<uint8_t> NativeAnnotations;
    std::string Why;
  };
  auto Parse = [&](bool WithNative) {
    Parsed Result;
    Result.ParseSeconds = timed("parse", "ir", [&] {
      Result.Payload = parseSourceString(*Ctx, PayloadText, "match_2k");
    });
    if (Result.Payload && WithNative) {
      Result.NativeSeconds = timed("annotate-natively", "native", [&] {
        annotateNatively(Result.Payload.get());
      });
      Result.NativeAnnotations =
          takeAnnotations(Result.Payload.get(), /*Strip=*/true);
      Result.Why = checkCounts(Result.NativeAnnotations, NumFuncs);
    }
    if (!Result.Payload)
      Result.Why = "payload does not parse";
    return Result;
  };

  /// Applies the script to \p P's payload and checks its annotations: op by
  /// op against the native walk's if \p P has them, else against the
  /// generator's counts. A non-empty Why says what went wrong.
  struct Applied {
    double ApplySeconds = 0;
    int64_t Annotated = 0;
    std::string Why;
    telemetry::MetricsSnapshot Delta;
  };
  auto Apply = [&](const Parsed &P, const TransformOptions &Options) {
    Applied Result;
    Result.Why = P.Why;
    if (!P.Payload)
      return Result;
    bool Ok = false;
    Result.Delta = R.registryDelta([&] {
      Result.ApplySeconds = timed("applyTransforms", "interp", [&] {
        Ok = succeeded(applyTransforms(P.Payload.get(), Script.get(), Options));
      });
    });
    std::vector<uint8_t> Annotations =
        takeAnnotations(P.Payload.get(), /*Strip=*/false);
    for (uint8_t Bits : Annotations)
      Result.Annotated += __builtin_popcount(Bits);
    if (!Ok)
      Result.Why += "applyTransforms failed";
    else if (P.NativeAnnotations.empty())
      Result.Why += checkCounts(Annotations, NumFuncs);
    else if (Annotations != P.NativeAnnotations)
      Result.Why += "annotations differ from the native walk's";
    return Result;
  };

  int64_t PayloadOps = 0;
  {
    OwningOpRef Payload = parseSourceString(*Ctx, PayloadText, "match_2k");
    if (!Payload)
      return fatal("the match_2k payload does not parse");
    PayloadOps = countOps(Payload.get());
  }

  // One parse serves three requests. Stripping the script's annotations
  // after a request leaves the payload as parsed, so each request starts
  // from the same input; the run gets more compile samples in the same
  // time, which its 90th percentile needs.
  constexpr int RequestsPerParse = 3;
  R.runRounds([&] {
    {
      settleHeap();
      std::unique_ptr<Context> ProbeCtx;
      OwningOpRef ProbeScript;
      (void)SetUp(ProbeCtx, ProbeScript);
    }
    Parsed P;
    for (int I = 0; I < RequestsPerParse; ++I) {
      R.beginRequest();
      if (I == 0)
        P = Parse(/*WithNative=*/true);
      else if (P.Payload)
        (void)takeAnnotations(P.Payload.get(), /*Strip=*/true);
      Applied Run = Apply(P, TransformOptions());
      bool Verified = false;
      double VerifySeconds = 0;
      if (P.Payload)
        VerifySeconds = timed("verify", "ir", [&] {
          Verified = succeeded(verify(P.Payload.get()));
        });
      if (!Verified)
        Run.Why += " output does not verify";
      R.compile("foreach_match", Run.ApplySeconds);
      if (Run.Why.empty())
        R.scriptVsNative("foreach_match", Run.ApplySeconds, P.NativeSeconds);
      R.endRequest(Run.Why.empty(), "match_2k: " + Run.Why,
                   (I == 0 ? P.ParseSeconds : 0) + Run.ApplySeconds,
                   PayloadOps);
      if (!R.traced() || !R.keeping() || !Run.Why.empty())
        continue;
      double ApplyMs = Run.ApplySeconds * 1e3;
      int64_t Invocations =
          counterDelta(Run.Delta, "interp.matcher_invocations");
      if (I == 0)
        R.sample("ir.parse_mb_per_s",
                 PayloadText.size() / 1e6 / P.ParseSeconds);
      R.sample("ir.verify_ms", VerifySeconds * 1e3);
      R.sample("ir.print_ms", 1e3 * timed("print", "ir", [&] {
                                (void)printOperationToString(P.Payload.get());
                              }));
      R.sample("interp.typecheck_ms",
               1e3 * timed("analyzeHandleTypes", "interp",
                           [&] { (void)analyzeHandleTypes(Script.get()); }));
      R.count("interp.executed_ops",
              counterDelta(Run.Delta, "interp.executed_ops"));
      R.count("engine.matcher_invocations", Invocations);
      R.count("engine.match_yield",
              static_cast<double>(Run.Annotated) / Invocations);
      R.sample("engine.match_pct",
               100.0 * durationMs(Run.Delta, "engine.match") / ApplyMs);
      R.sample("engine.commit_pct",
               100.0 * durationMs(Run.Delta, "engine.commit") / ApplyMs);
    }
  });

  // The parallel engine's case, traced runs only: 4 match and commit
  // shards against serial, whose output must be byte-identical.
  if (R.traced()) {
    std::vector<double> SerialMs, ShardedMs;
    std::string SerialOut;
    for (int I = 0; I < 20; ++I) {
      bool Sharded = I % 2 == 1;
      TransformOptions Options;
      Options.MatchShards = Options.CommitShards = Sharded ? 4 : 1;
      Parsed P = Parse(/*WithNative=*/false);
      Applied Run = Apply(P, Options);
      std::string Out =
          P.Payload ? printOperationToString(P.Payload.get()) : "";
      if (!Sharded)
        SerialOut = Out;
      else if (Run.Why.empty() && Out != SerialOut)
        Run.Why = "4-shard output differs from serial";
      R.outcome(Run.Why.empty(), "match_2k shards: " + Run.Why);
      (Sharded ? ShardedMs : SerialMs).push_back(Run.ApplySeconds * 1e3);
    }
    R.set("engine.shard4_speedup", median(SerialMs) / median(ShardedMs));
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// tune_cfg: tuned strategy dispatch to CFG form, then execution
//===----------------------------------------------------------------------===//

const int TuneSizes[] = {16, 24, 32, 48, 64};
constexpr int NumTuneSizes = 5;
/// Requests per tuning-database group: one cold, then warm ones.
constexpr int GroupSize = 5;

/// `@square_all`: squares every element of an NxN buffer in a two-deep
/// loop nest, the shape the deep-lowering strategy's matcher accepts.
std::string squarePayload(int N) {
  std::string Size = std::to_string(N);
  std::string MemTy = "memref<" + Size + "x" + Size + "xf64>";
  return "\"builtin.module\"() ({\n  \"func.func\"() ({\n  ^bb0(%m: " + MemTy +
         R"():
    %lb = "arith.constant"() {value = 0 : index} : () -> (index)
    %ub = "arith.constant"() {value = )" + Size + R"( : index} : () -> (index)
    %step = "arith.constant"() {value = 1 : index} : () -> (index)
    "scf.for"(%lb, %ub, %step) ({
    ^bi(%i: index):
      "scf.for"(%lb, %ub, %step) ({
      ^bj(%j: index):
        %v = "memref.load"(%m, %i, %j)
          : ()" + MemTy + R"(, index, index) -> (f64)
        %w = "arith.mulf"(%v, %v) : (f64, f64) -> (f64)
        "memref.store"(%w, %m, %i, %j)
          : (f64, )" + MemTy + R"(, index, index) -> ()
        "scf.yield"() : () -> ()
      }) : (index, index, index) -> ()
      "scf.yield"() : () -> ()
    }) : (index, index, index) -> ()
    "func.return"() : () -> ()
  }) {sym_name = "square_all", function_type = ()" + MemTy +
         R"() -> ()} : () -> ()
}) : () -> ()
)";
}

/// tune_cfg's native path: what the deep-lowering strategy does, as direct
/// C++ calls. Tiles the outer loop nest of \p Root by the \p Config the
/// strategy bound (tile_i, tile_j), then runs convert-scf-to-cf on \p Root.
/// Returns the seconds taken, or a negative value on failure.
double
lowerNatively(Operation *Root,
              const std::vector<std::pair<std::string, int64_t>> &Config) {
  std::vector<int64_t> Sizes;
  for (const char *Name : {"tile_i", "tile_j"})
    for (const auto &[Param, Value] : Config)
      if (Param == Name)
        Sizes.push_back(Value);
  Operation *Outer = nullptr;
  Root->walk([&](Operation *Op) {
    if (!Outer && Op->getName() == "scf.for" && Op->getParentOp() &&
        Op->getParentOp()->getName() == "func.func")
      Outer = Op;
  });
  if (Sizes.size() != 2 || !Outer)
    return -1;
  bool Ok = false;
  double Seconds = timed("tile+convert-scf-to-cf", "native", [&] {
    Ok = succeeded(loops::tileLoopNest(Outer, Sizes)) &&
         succeeded(runRegisteredPass("convert-scf-to-cf", Root));
  });
  return Ok ? Seconds : -1;
}

/// Runs `@square_all` of \p Exec on \p Input and checks every element
/// against x*x computed here. Returns the run's seconds, or a negative
/// value on a failed run or a wrong element.
double runSquareAll(exec::Executor &Exec, const std::vector<double> &Input,
                    int N) {
  exec::Buffer Mem = exec::Buffer::alloc({N, N});
  *Mem.Data = Input;
  bool Ran = false;
  double Seconds = timed("executor:run", "exec", [&] {
    Ran = succeeded(
        Exec.run("square_all", {exec::RuntimeValue::makeBuffer(Mem)}));
  });
  if (!Ran)
    return -1;
  for (size_t I = 0; I < Input.size(); ++I)
    if ((*Mem.Data)[I] != Input[I] * Input[I])
      return -1;
  return Seconds;
}

int runTuneCfg(const Args &A, Recorder &R) {
  WorkDir Work(A.OutDir, "tune_cfg");
  const std::string &StrategyDir = A.StrategyDir;
  std::string DBPath = Work.path("tuning.tdb");

  // Inputs, written once; the structured forms stay parsed so the generated
  // code's run time can be set against them.
  std::unique_ptr<Context> Ctx = makeContext();
  std::string PayloadPaths[NumTuneSizes];
  int64_t PayloadOps[NumTuneSizes], PayloadBytes[NumTuneSizes];
  OwningOpRef Structured[NumTuneSizes];
  for (int S = 0; S < NumTuneSizes; ++S) {
    std::string Text = squarePayload(TuneSizes[S]);
    PayloadPaths[S] =
        Work.path("square" + std::to_string(TuneSizes[S]) + ".mlir");
    PayloadBytes[S] = static_cast<int64_t>(Text.size());
    if (!writeTextFile(PayloadPaths[S], Text))
      return fatal("cannot write " + PayloadPaths[S]);
    Structured[S] = parseSourceString(*Ctx, Text, PayloadPaths[S]);
    if (!Structured[S])
      return fatal("the square_all payload does not parse");
    PayloadOps[S] = countOps(Structured[S].get());
  }
  std::string LibraryText;
  if (!readFileToString(StrategyDir + "/deep_lowering.mlir", LibraryText))
    return fatal("cannot read " + StrategyDir + "/deep_lowering.mlir");
  OwningOpRef Library = parseSourceString(*Ctx, LibraryText, "deep_lowering");
  if (!Library)
    return fatal("the strategy library does not parse");

  std::mt19937_64 Rng(A.Seed);
  std::uniform_real_distribution<double> Value(-4.0, 4.0);

  auto Group = [&](int S) {
    const int N = TuneSizes[S];
    std::error_code Ignored;
    fs::remove(DBPath, Ignored);
    std::string ColdIR;
    int64_t Hits = 0, Misses = 0;
    for (int I = 0; I < GroupSize; ++I) {
      const bool Cold = I == 0;
      RunOptions Options;
      Options.PayloadPath = PayloadPaths[S];
      Options.StrategyDirs = {StrategyDir};
      Options.Target = "cfg";
      Options.TuneBudget = 8;
      Options.TuningDBPath = DBPath;

      R.beginRequest();
      std::optional<Invocation> Inv;
      telemetry::MetricsSnapshot Delta =
          R.registryDelta([&] { Inv.emplace(Options); });
      const RunReport &Report = Inv->S->getLastRunReport();
      std::string Why = Inv->Ok ? "" : "tdl-opt failed: " + Inv->Err;
      if (Why.empty() && Report.Strategy.TuningDB != (Cold ? "miss" : "hit"))
        Why = "tuning-db " + Report.Strategy.TuningDB;
      if (Why.empty() && (Report.Strategy.TuneEvaluations > 0) != Cold)
        Why = std::to_string(Report.Strategy.TuneEvaluations) + " evaluations";
      std::string IR;
      if (Why.empty())
        IR = printOperationToString(Inv->S->getPayload());
      if (Cold)
        ColdIR = IR;
      else if (Why.empty() && IR != ColdIR)
        Why = "warm output differs from cold output";

      // Warm requests against the native path: the same tiling and
      // lowering on a copy of the structured input must print the same IR.
      if (!Cold && Why.empty()) {
        OwningOpRef Native(Structured[S]->clone());
        double NativeSeconds =
            lowerNatively(Native.get(), Report.Strategy.Config);
        if (NativeSeconds < 0)
          Why = "native tiling and lowering failed";
        else if (printOperationToString(Native.get()) != IR)
          Why = "output differs from the native tiling and lowering";
        else
          R.scriptVsNative("N=" + std::to_string(N),
                           phaseMs(Report, "dispatch") / 1e3, NativeSeconds);
      }

      // Run the generated code twice on seeded inputs (the first run also
      // compiles it); time the second.
      std::vector<double> Input(static_cast<size_t>(N) * N);
      for (double &X : Input)
        X = Value(Rng);
      double ExecSeconds = -1;
      if (Why.empty()) {
        exec::Executor Exec(Inv->S->getPayload());
        if (runSquareAll(Exec, Input, N) >= 0)
          ExecSeconds = runSquareAll(Exec, Input, N);
        if (ExecSeconds < 0)
          Why = "generated code computes a wrong result";
      }
      R.setup(Inv->SetupSeconds, Inv->CtorSeconds);
      R.compile(Cold ? "cold" : "warm", Inv->RunSeconds);
      R.endRequest(Why.empty(), "tune_cfg N=" + std::to_string(N) + ": " + Why,
                   Inv->SetupSeconds + Inv->RunSeconds +
                       std::max(ExecSeconds, 0.0),
                   PayloadOps[S]);
      if (!R.traced() || !R.keeping() || !Why.empty())
        continue;

      double RunMs = Inv->RunSeconds * 1e3;
      R.sample(Cold ? "strategy.cold_dispatch_ms" : "strategy.warm_dispatch_ms",
               phaseMs(Report, "dispatch"));
      (Cold ? Misses : Hits) += 1;
      if (Cold) {
        R.count("autotune.evaluations", Report.Strategy.TuneEvaluations);
        R.sample("autotune.evaluation_pct",
                 100.0 * durationMs(Delta, "autotune.evaluation") / RunMs);
      }
      R.sample("ir.parse_mb_per_s",
               PayloadBytes[S] / 1e3 / phaseMs(Report, "load"));
      Operation *Payload = Inv->S->getPayload();
      R.sample("ir.verify_ms",
               1e3 * timed("verify", "ir", [&] { (void)verify(Payload); }));
      R.sample("ir.print_ms", 1e3 * timed("print", "ir", [&] {
                                (void)printOperationToString(Payload);
                              }));
      R.sample("interp.typecheck_ms",
               1e3 * timed("analyzeHandleTypes", "interp",
                           [&] { (void)analyzeHandleTypes(Library.get()); }));
      R.count("interp.executed_ops",
              counterDelta(Delta, "interp.executed_ops"));
      R.count("engine.matcher_invocations",
              counterDelta(Delta, "interp.matcher_invocations"));
      R.sample("engine.match_pct",
               100.0 * durationMs(Delta, "engine.match") / RunMs);
      R.count("library.parses", counterDelta(Delta, "library.parses"));
      R.sample("exec.elements_per_s", N * N / ExecSeconds);
      exec::Executor StructuredExec(Structured[S].get());
      double StructuredSeconds = runSquareAll(StructuredExec, Input, N);
      StructuredSeconds = runSquareAll(StructuredExec, Input, N);
      R.sample("exec.lowered_over_structured", ExecSeconds / StructuredSeconds);
    }
    if (R.traced() && R.keeping()) {
      R.count("strategy.tuning_db.hits", Hits);
      R.count("strategy.tuning_db.misses", Misses);
    }
  };

  R.runRounds([&] {
    int Order[NumTuneSizes] = {0, 1, 2, 3, 4};
    std::shuffle(std::begin(Order), std::end(Order), Rng);
    for (int S : Order)
      Group(S);
  });
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  Args A;
  bool HaveSeed = false, HaveSeconds = false;
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string Flag = argv[I], Value = argv[I + 1];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = Value;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(Value.c_str(), &End, 10);
      HaveSeed = *End == '\0' && !Value.empty();
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(Value.c_str(), &End);
      HaveSeconds = *End == '\0' && A.Seconds > 0;
    } else if (Flag == "--trace") {
      A.Trace = Value == "1";
    } else if (Flag == "--strategy-dir") {
      A.StrategyDir = Value;
    } else if (Flag == "--out") {
      A.OutDir = Value;
    }
  }
  if (argc % 2 == 0 || !HaveSeed || !HaveSeconds || A.StrategyDir.empty() ||
      A.OutDir.empty()) {
    std::fprintf(stderr,
                 "usage: %s --workload <table1|tdl_opt|match_2k|tune_cfg> "
                 "--seed <n> --seconds <s> --trace <0|1> --strategy-dir <dir> "
                 "--out <dir>\n",
                 argv[0]);
    return 2;
  }

  std::map<std::string, std::function<int(const Args &, Recorder &)>>
      Workloads = {{"table1", runTable1}, {"tdl_opt", runTdlOpt},
                   {"match_2k", runMatch2k}, {"tune_cfg", runTuneCfg}};
  auto It = Workloads.find(A.Workload);
  if (It == Workloads.end()) {
    std::fprintf(stderr, "error: unknown workload '%s'\n",
                 A.Workload.c_str());
    return 2;
  }
  Recorder R(A);
  if (int Code = It->second(A, R))
    return Code;
  return R.finish();
}
