//===- bench_ablation_interpreter.cpp - Interpreter micro-costs ------------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation microbenchmarks (google-benchmark) of the interpreter's layers:
/// per-transform-op dispatch cost, handle matching over growing payloads,
/// consume-time invalidation over growing payloads with and without live
/// handles, the cost of one foreach_match matcher invocation, and macro
/// (include) execution vs. pre-inlined scripts.
///
//===----------------------------------------------------------------------===//

#include "core/Analysis.h"
#include "core/MatcherEngine.h"
#include "core/Transform.h"
#include "dialect/Dialects.h"
#include "exec/Workloads.h"
#include "ir/Parser.h"
#include "support/Telemetry.h"

#include <benchmark/benchmark.h>
#include <chrono>

using namespace tdl;

namespace {

struct Fixture {
  Context Ctx;
  Fixture() {
    registerAllDialects(Ctx);
    registerTransformDialect(Ctx);
  }
  static Fixture &get() {
    static Fixture F;
    return F;
  }
};

OwningOpRef makeScript(Context &Ctx, const std::string &Body) {
  std::string Source = R"("transform.named_sequence"() ({
  ^bb0(%root: !transform.any_op):
)" + Body + R"(    "transform.yield"() : () -> ()
  }) {sym_name = "__transform_main"} : () -> ()
)";
  return parseSourceString(Ctx, Source, "bench-script");
}

/// Dispatch cost: a chain of N param.constant ops (no payload work).
void BM_InterpreterDispatch(benchmark::State &State) {
  Context &Ctx = Fixture::get().Ctx;
  std::string Body;
  for (int I = 0; I < State.range(0); ++I)
    Body += "    %p" + std::to_string(I) +
            " = \"transform.param.constant\"() {value = 1 : index} : () -> "
            "(!transform.param)\n";
  OwningOpRef Script = makeScript(Ctx, Body);
  OwningOpRef Payload(builtin::buildModule(Ctx, Location::unknown()));
  for (auto _ : State) {
    benchmark::DoNotOptimize(
        applyTransforms(Payload.get(), Script.get()).succeeded());
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_InterpreterDispatch)->Arg(10)->Arg(100)->Arg(1000);

/// match.op over payloads of growing size.
void BM_MatchOverPayload(benchmark::State &State) {
  Context &Ctx = Fixture::get().Ctx;
  OwningOpRef Payload =
      workloads::buildSyntheticTosaModel(Ctx, State.range(0), 3);
  OwningOpRef Script = makeScript(
      Ctx, "    %m = \"transform.match.op\"(%root) {op_name = \"tosa.add\"}"
           " : (!transform.any_op) -> (!transform.any_op)\n");
  for (auto _ : State) {
    benchmark::DoNotOptimize(
        applyTransforms(Payload.get(), Script.get()).succeeded());
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_MatchOverPayload)->Arg(100)->Arg(1000)->Arg(4000);

/// Invalidation tracking: consume a whole-module handle over a Table 1 sized
/// model (range(0) ops) while range(1) other handles are live, each holding
/// one payload op spread evenly over the model. Only the consume is timed;
/// binding the handles is set-up.
void BM_InvalidationTracking(benchmark::State &State) {
  Context &Ctx = Fixture::get().Ctx;
  OwningOpRef Payload =
      workloads::buildSyntheticTosaModel(Ctx, State.range(0), 3);
  std::vector<Operation *> Ops;
  Payload->walk([&](Operation *Op) { Ops.push_back(Op); });
  int64_t NumLive = State.range(1);
  // Block arguments serve as handle values; the script never runs.
  std::string Args = "%root: !transform.any_op";
  for (int64_t I = 0; I < NumLive; ++I)
    Args += ", %h" + std::to_string(I) + ": !transform.any_op";
  OwningOpRef Handles = parseSourceString(
      Ctx,
      "\"transform.named_sequence\"() ({\n^bb0(" + Args +
          "):\n  \"transform.yield\"() : () -> ()\n}) {sym_name = "
          "\"handles\"} : () -> ()\n",
      "bench-handles");
  Block &HandleBlock = Handles->getRegion(0).front();
  Value Root = HandleBlock.getArgument(0);
  for (auto _ : State) {
    TransformState Tracked(Payload.get());
    Tracked.setPayload(Root, {Payload.get()});
    for (int64_t I = 0; I < NumLive; ++I)
      Tracked.setPayload(HandleBlock.getArgument(I + 1),
                         {Ops[(I + 1) * Ops.size() / (NumLive + 1)]});
    auto Start = std::chrono::steady_clock::now();
    Tracked.consume(Root);
    auto End = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(Tracked.isInvalidated(Root));
    State.SetIterationTime(std::chrono::duration<double>(End - Start).count());
  }
  State.counters["payload_ops"] = static_cast<double>(Ops.size());
}
// Names read BM_InvalidationTracking/<ops>/<live>.
BENCHMARK(BM_InvalidationTracking)
    ->ArgsProduct({{126, 1182, 4134}, {0, 16}})
    ->UseManualTime();

/// Matcher invocation cost: the match phase of range(0) (matcher) pairs over
/// 200 functions, each a two-deep loop nest with one load, addf, mulf and
/// store. The matchers start with match.operands, so no name prefilter
/// applies and every op enters the interpreter for each pair until one
/// claims it. Only the walk is timed; `ns_per_invocation` is its time
/// divided by the matcher invocations it made.
void BM_MatcherInvocation(benchmark::State &State) {
  Context &Ctx = Fixture::get().Ctx;
  const char *OpNames[] = {"scf.for", "memref.load", "arith.addf",
                           "arith.mulf", "memref.store"};
  int64_t NumPairs = State.range(0);
  std::string Payload = "\"builtin.module\"() ({\n";
  for (int F = 0; F < 200; ++F)
    Payload += R"(  "func.func"() ({
  ^bb0(%m: memref<16x8xf64>):
    %lb = "arith.constant"() {value = 0 : index} : () -> (index)
    %ua = "arith.constant"() {value = 16 : index} : () -> (index)
    %ub = "arith.constant"() {value = 8 : index} : () -> (index)
    %one = "arith.constant"() {value = 1 : index} : () -> (index)
    "scf.for"(%lb, %ua, %one) ({
    ^outer(%i: index):
      "scf.for"(%lb, %ub, %one) ({
      ^inner(%j: index):
        %v = "memref.load"(%m, %i, %j)
          : (memref<16x8xf64>, index, index) -> (f64)
        %w = "arith.addf"(%v, %v) : (f64, f64) -> (f64)
        %x = "arith.mulf"(%w, %v) : (f64, f64) -> (f64)
        "memref.store"(%x, %m, %i, %j)
          : (f64, memref<16x8xf64>, index, index) -> ()
        "scf.yield"() : () -> ()
      }) : (index, index, index) -> ()
      "scf.yield"() : () -> ()
    }) : (index, index, index) -> ()
    "func.return"() : () -> ()
  }) {sym_name = "f)" + std::to_string(F) +
               R"(", function_type = (memref<16x8xf64>) -> ()} : () -> ()
)";
  OwningOpRef PayloadRoot =
      parseSourceString(Ctx, Payload + "}) : () -> ()\n", "bench-payload");
  std::string Matchers;
  for (int64_t P = 0; P < NumPairs; ++P)
    Matchers += R"(
  "transform.named_sequence"() ({
  ^bb0(%op: !transform.any_op):
    %0 = "transform.match.operands"(%op) {min = 0 : index}
      : (!transform.any_op) -> (!transform.any_op)
    %1 = "transform.match.operation_name"(%0) {op_names = [")" +
                std::string(OpNames[P % 5]) + R"("]}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.yield"() : () -> ()
  }) {sym_name = "is_)" + std::to_string(P) + R"("} : () -> ()
)";
  OwningOpRef Script = parseSourceString(
      Ctx, "\"builtin.module\"() ({" + Matchers + "}) : () -> ()\n",
      "bench-matchers");
  telemetry::Counter &Invocations =
      telemetry::counter("interp.matcher_invocations");
  int64_t Total = 0;
  double Seconds = 0;
  for (auto _ : State) {
    TransformInterpreter Interp(PayloadRoot.get(), Script.get());
    MatcherEngine Engine(Interp, Script.get(), "bench");
    for (int64_t P = 0; P < NumPairs; ++P)
      (void)Engine.addPair(StringAttr::get(Ctx, "is_" + std::to_string(P)),
                           Attribute());
    std::vector<MatcherEngine::Match> Matches;
    int64_t Before = Invocations.get();
    auto Start = std::chrono::steady_clock::now();
    DiagnosedSilenceableFailure Result =
        Engine.match({PayloadRoot.get()}, /*RestrictRoot=*/false, Matches);
    auto End = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(Matches.data());
    Total += Invocations.get() - Before;
    if (!Result.succeeded())
      State.SkipWithError("match phase failed");
    double Walk = std::chrono::duration<double>(End - Start).count();
    Seconds += Walk;
    State.SetIterationTime(Walk);
  }
  if (Total == 0)
    return;
  State.counters["invocations"] =
      static_cast<double>(Total) / static_cast<double>(State.iterations());
  State.counters["ns_per_invocation"] = Seconds * 1e9 / Total;
}
// Names read BM_MatcherInvocation/<pairs>.
BENCHMARK(BM_MatcherInvocation)->Arg(1)->Arg(5)->UseManualTime();

/// Macro execution vs. pre-inlined scripts (Section 3.4 simplification).
void BM_IncludeVsInlined(benchmark::State &State) {
  Context &Ctx = Fixture::get().Ctx;
  bool Inlined = State.range(0) == 1;
  std::string MacroCall;
  for (int I = 0; I < 16; ++I)
    MacroCall += "        \"transform.include\"(%root) {callee = @macro} : "
                 "(!transform.any_op) -> ()\n";
  std::string Source = R"(
    "builtin.module"() ({
      "transform.named_sequence"() ({
      ^bb0(%arg: !transform.any_op):
        %m = "transform.match.op"(%arg) {op_name = "tosa.add"}
          : (!transform.any_op) -> (!transform.any_op)
        "transform.yield"() : () -> ()
      }) {sym_name = "macro"} : () -> ()
      "transform.named_sequence"() ({
      ^bb0(%root: !transform.any_op):
)" + MacroCall + R"(        "transform.yield"() : () -> ()
      }) {sym_name = "__transform_main"} : () -> ()
    }) : () -> ()
  )";
  OwningOpRef Script = parseSourceString(Ctx, Source, "macro-bench");
  if (Inlined)
    (void)inlineIncludes(Script.get());
  OwningOpRef Payload = workloads::buildSyntheticTosaModel(Ctx, 200, 5);
  for (auto _ : State) {
    benchmark::DoNotOptimize(
        applyTransforms(Payload.get(), Script.get()).succeeded());
  }
}
BENCHMARK(BM_IncludeVsInlined)->Arg(0)->Arg(1);

} // namespace

BENCHMARK_MAIN();
