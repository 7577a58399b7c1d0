//===- MatcherEngineTest.cpp - MatcherEngine client tests ----------------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the MatcherEngine subsystem shared by `transform.foreach_match`,
/// `transform.collect_matching`, and match-driven `transform.apply_patterns`:
/// walk-order claims and diagnostics, matcher and action errors, consuming
/// actions, collect_matching semantics (typed results, parameter
/// forwarding, the empty-match case), and per-match pattern sets.
///
//===----------------------------------------------------------------------===//

#include "core/Analysis.h"
#include "core/Transform.h"

#include "dialect/Dialects.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

using namespace tdl;

namespace {

class MatcherEngineTest : public ::testing::Test {
protected:
  MatcherEngineTest() {
    registerAllDialects(Ctx);
    registerTransformDialect(Ctx);
  }

  /// A module with \p NumFuncs top-level functions, each holding a loop
  /// with a load/add/store body.
  OwningOpRef makeManyFuncPayload(int NumFuncs) {
    std::string Funcs;
    for (int F = 0; F < NumFuncs; ++F) {
      Funcs += R"(
        "func.func"() ({
        ^bb0(%m: memref<8x8xf64>):
          %lb = "arith.constant"() {value = 0 : index} : () -> (index)
          %ub = "arith.constant"() {value = 8 : index} : () -> (index)
          %one = "arith.constant"() {value = 1 : index} : () -> (index)
          "scf.for"(%lb, %ub, %one) ({
          ^body(%i: index):
            %v = "memref.load"(%m, %i, %lb)
              : (memref<8x8xf64>, index, index) -> (f64)
            %w = "arith.addf"(%v, %v) : (f64, f64) -> (f64)
            "memref.store"(%w, %m, %i, %lb)
              : (f64, memref<8x8xf64>, index, index) -> ()
            "scf.yield"() : () -> ()
          }) : (index, index, index) -> ()
          "func.return"() : () -> ()
        }) {sym_name = "f)" +
               std::to_string(F) + R"(",
            function_type = (memref<8x8xf64>) -> ()} : () -> ()
      )";
    }
    return parseSourceString(
        Ctx, "\"builtin.module\"() ({" + Funcs + "}) : () -> ()");
  }

  OwningOpRef makeScriptModule(std::string_view Sequences) {
    return parseSourceString(Ctx,
                             R"("builtin.module"() ({)" +
                                 std::string(Sequences) + R"(}) : () -> ()
    )",
                             "script");
  }

  int64_t countAttr(Operation *Root, std::string_view Name) {
    int64_t Count = 0;
    Root->walk([&](Operation *Op) { Count += Op->hasAttr(Name); });
    return Count;
  }

  std::string printed(Operation *Root) {
    std::string Text;
    raw_string_ostream Stream(Text);
    Root->print(Stream);
    return Text;
  }

  int64_t countOps(Operation *Root, std::string_view Name) {
    int64_t Count = 0;
    Root->walk([&](Operation *Op) { Count += Op->getName() == Name; });
    return Count;
  }

  Context Ctx;
};

//===----------------------------------------------------------------------===//
// Match phase
//===----------------------------------------------------------------------===//

/// Two (matcher, action) pairs whose matches land in every function, with a
/// forwarded-yield action feeding a trailing result.
static const char *const AnnotatingPairs = R"(
  "transform.named_sequence"() ({
  ^bb0(%op: !transform.any_op):
    %0 = "transform.match.operation_name"(%op) {op_names = ["scf.for"]}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.yield"() : () -> ()
  }) {sym_name = "is_loop"} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%loop: !transform.any_op):
    "transform.annotate"(%loop) {name = "marked_loop"}
      : (!transform.any_op) -> ()
    "transform.yield"(%loop) : (!transform.any_op) -> ()
  }) {sym_name = "mark_loop"} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%op: !transform.any_op):
    %0 = "transform.match.operation_name"(%op) {op_names = ["memref.load"]}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.yield"() : () -> ()
  }) {sym_name = "is_load"} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%load: !transform.any_op):
    "transform.annotate"(%load) {name = "marked_load"}
      : (!transform.any_op) -> ()
    "transform.yield"(%load) : (!transform.any_op) -> ()
  }) {sym_name = "mark_load"} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%root: !transform.any_op):
    %u, %loops = "transform.foreach_match"(%root)
      {matchers = [@is_loop, @is_load], actions = [@mark_loop, @mark_load],
       flatten_results}
      : (!transform.any_op) -> (!transform.any_op, !transform.any_op)
    "transform.annotate"(%loops) {name = "forwarded"}
      : (!transform.any_op) -> ()
    "transform.yield"() : () -> ()
  }) {sym_name = "__transform_main"} : () -> ()
)";

TEST_F(MatcherEngineTest, MatcherInvocationsSkipPrefilteredCandidates) {
  // Both matchers start with match.operation_name, so only the five loops
  // reach @is_loop and only the five loads reach @is_load: one invocation
  // per claimed op, none for the other ops of the walk.
  OwningOpRef Script = makeScriptModule(AnnotatingPairs);
  OwningOpRef Payload = makeManyFuncPayload(5);
  ASSERT_TRUE(Script);
  ASSERT_TRUE(Payload);
  telemetry::Counter &Invocations =
      telemetry::counter("interp.matcher_invocations");
  int64_t Before = Invocations.get();
  ASSERT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  EXPECT_EQ(Invocations.get() - Before, 10);
  EXPECT_EQ(countAttr(Payload.get(), "marked_loop"), 5);
  EXPECT_EQ(countAttr(Payload.get(), "marked_load"), 5);
}

TEST_F(MatcherEngineTest, DefiniteMatcherErrorIsReported) {
  // A malformed matcher op is a definite error: the walk surfaces it and
  // fails the interpretation.
  static const char *const BrokenMatcher = R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      %0 = "transform.match.operation_name"(%op) {}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "broken"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      "transform.yield"() : () -> ()
    }) {sym_name = "noop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %u = "transform.foreach_match"(%root)
        {matchers = [@broken], actions = [@noop]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )";
  OwningOpRef Script = makeScriptModule(BrokenMatcher);
  ASSERT_TRUE(Script);
  OwningOpRef Payload = makeManyFuncPayload(6);
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(Capture.contains("op_names"));
}

TEST_F(MatcherEngineTest, RemarksReplayOncePerClaimedOp) {
  // Overlapping roots: the module root and every function are roots at
  // once, so each addf is reachable from two roots. The walk's visit-once
  // rule must replay the matcher's remark exactly once per claimed op.
  static const char *const RemarkPairs = R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      %0 = "transform.match.operation_name"(%op) {op_names = ["arith.addf"]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.debug.emit_remark"(%0) {message = "claimed an add"}
        : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "is_add"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      "transform.yield"() : () -> ()
    }) {sym_name = "noop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %funcs = "transform.match.op"(%root) {op_name = "func.func"}
        : (!transform.any_op) -> (!transform.any_op)
      %both = "transform.merge_handles"(%root, %funcs)
        : (!transform.any_op, !transform.any_op) -> (!transform.any_op)
      %u = "transform.foreach_match"(%both)
        {matchers = [@is_add], actions = [@noop]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )";
  OwningOpRef Script = makeScriptModule(RemarkPairs);
  ASSERT_TRUE(Script);
  OwningOpRef Payload = makeManyFuncPayload(4);
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  ASSERT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  int64_t Remarks = 0;
  for (const Diagnostic &Diag : Capture.getDiagnostics())
    Remarks += Diag.Message.find("claimed an add") != std::string::npos;
  EXPECT_EQ(Remarks, 4);
}

TEST_F(MatcherEngineTest, MatcherErrorReplaysPriorRemarks) {
  // A definite error mid-walk must still replay the successful matchers'
  // remarks from before the error point, and none after it. Pair 1
  // remarks on loops; pair 2's typed argument prefilters it to
  // func.return, where its malformed body is a definite error. The first
  // func subtree holds one loop before its return, so exactly one remark
  // precedes the error.
  static const char *const RemarkThenError = R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      %0 = "transform.match.operation_name"(%op) {op_names = ["scf.for"]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.debug.emit_remark"(%0) {message = "saw a loop"}
        : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "remark_loop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.op<"func.return">):
      %0 = "transform.match.operation_name"(%op) {}
        : (!transform.op<"func.return">) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "broken_on_return"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      "transform.yield"() : () -> ()
    }) {sym_name = "noop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %u = "transform.foreach_match"(%root)
        {matchers = [@remark_loop, @broken_on_return],
         actions = [@noop, @noop]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )";
  OwningOpRef Script = makeScriptModule(RemarkThenError);
  ASSERT_TRUE(Script);
  OwningOpRef Payload = makeManyFuncPayload(6);
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(Capture.contains("op_names"));
  int64_t Remarks = 0;
  for (const Diagnostic &Diag : Capture.getDiagnostics())
    Remarks += Diag.Message.find("saw a loop") != std::string::npos;
  EXPECT_EQ(Remarks, 1);
}

TEST_F(MatcherEngineTest, ErasingActionThenFailingReportsWithoutCandidate) {
  // The action fully unrolls (erases) its matched loop, then fails on a
  // missing forwarded yield. The error message is built after the action
  // ran, so it must not read the erased candidate op (ASan-guarded).
  OwningOpRef Payload = makeManyFuncPayload(1);
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      %0 = "transform.match.operation_name"(%op) {op_names = ["scf.for"]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "is_loop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%loop: !transform.any_op):
      "transform.loop.unroll"(%loop) {full} : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "unroll_no_yield"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %u, %extra = "transform.foreach_match"(%root)
        {matchers = [@is_loop], actions = [@unroll_no_yield]}
        : (!transform.any_op) -> (!transform.any_op, !transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Script);
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
  // The diagnostic still names the matched op via its pre-captured name.
  EXPECT_TRUE(Capture.contains("on payload op 'scf.for'"));
  EXPECT_TRUE(Capture.contains("forwarded results are expected"));
}

//===----------------------------------------------------------------------===//
// collect_matching
//===----------------------------------------------------------------------===//

TEST_F(MatcherEngineTest, CollectMatchingTypedResults) {
  // All loops collected through a typed matcher into a typed handle; the
  // script passes the static type check and the handle holds every loop.
  OwningOpRef Payload = makeManyFuncPayload(3);
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.op<"scf.for">):
      "transform.yield"(%op) : (!transform.op<"scf.for">) -> ()
    }) {sym_name = "is_loop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %loops = "transform.collect_matching"(%root) {matcher = @is_loop}
        : (!transform.any_op) -> (!transform.op<"scf.for">)
      "transform.annotate"(%loops) {name = "collected"}
        : (!transform.op<"scf.for">) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Payload);
  ASSERT_TRUE(Script);
  EXPECT_TRUE(analyzeHandleTypes(Script.get()).empty());
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  EXPECT_EQ(countAttr(Payload.get(), "collected"), 3);
  Payload->walk([&](Operation *Op) {
    if (Op->hasAttr("collected")) {
      EXPECT_EQ(Op->getName(), "scf.for");
    }
  });
}

TEST_F(MatcherEngineTest, CollectMatchingEmptyMatchSucceeds) {
  // No payload op matches: unlike match.op, collect_matching succeeds with
  // an empty handle (annotate over it is a no-op).
  OwningOpRef Payload = makeManyFuncPayload(2);
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.op<"linalg.matmul">):
      "transform.yield"(%op) : (!transform.op<"linalg.matmul">) -> ()
    }) {sym_name = "is_matmul"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %mm = "transform.collect_matching"(%root) {matcher = @is_matmul}
        : (!transform.any_op) -> (!transform.op<"linalg.matmul">)
      "transform.annotate"(%mm) {name = "never"}
        : (!transform.op<"linalg.matmul">) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Script);
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  EXPECT_EQ(countAttr(Payload.get(), "never"), 0);
}

TEST_F(MatcherEngineTest, CollectMatchingForwardsHandlesAndParams) {
  // The matcher yields the candidate and a parameter; collect_matching
  // concatenates both across matches (one param per matched load).
  OwningOpRef Payload = makeManyFuncPayload(2);
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      %0 = "transform.match.operation_name"(%op) {op_names = ["memref.load"]}
        : (!transform.any_op) -> (!transform.any_op)
      %p = "transform.param.constant"() {value = 1 : index}
        : () -> (!transform.param)
      "transform.yield"(%0, %p) : (!transform.any_op, !transform.param) -> ()
    }) {sym_name = "load_with_param"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %loads, %flags = "transform.collect_matching"(%root)
        {matcher = @load_with_param}
        : (!transform.any_op) -> (!transform.any_op, !transform.param)
      "transform.assert"(%flags) {message = "params must be forwarded"}
        : (!transform.param) -> ()
      "transform.annotate"(%loads) {name = "collected_load"}
        : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Script);
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  EXPECT_EQ(countAttr(Payload.get(), "collected_load"), 2);
}

TEST_F(MatcherEngineTest, CollectMatchingArityMismatchIsDefiniteError) {
  OwningOpRef Payload = makeManyFuncPayload(1);
  // The matcher forwards one value but the op declares two results.
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.op<"scf.for">):
      "transform.yield"(%op) : (!transform.op<"scf.for">) -> ()
    }) {sym_name = "is_loop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %a, %b = "transform.collect_matching"(%root) {matcher = @is_loop}
        : (!transform.any_op) -> (!transform.any_op, !transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Script);
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(Capture.contains("declares"));
}

TEST_F(MatcherEngineTest, CollectMatchingUnknownMatcherIsDefiniteError) {
  OwningOpRef Payload = makeManyFuncPayload(1);
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %a = "transform.collect_matching"(%root) {matcher = @missing}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Script);
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(Capture.contains("unknown named sequence"));
}

TEST_F(MatcherEngineTest, CollectMatchingTypedYieldMismatchRejectedStatically) {
  // The matcher forwards op<"scf.for"> but the result declares
  // op<"memref.load">: caught by the static type analysis before any
  // interpretation.
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.op<"scf.for">):
      "transform.yield"(%op) : (!transform.op<"scf.for">) -> ()
    }) {sym_name = "is_loop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %a = "transform.collect_matching"(%root) {matcher = @is_loop}
        : (!transform.any_op) -> (!transform.op<"memref.load">)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Script);
  std::vector<TypeCheckIssue> Issues = analyzeHandleTypes(Script.get());
  ASSERT_FALSE(Issues.empty());
  EXPECT_NE(Issues[0].Message.find("collect_matching"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// apply_patterns: named sets and per-match pattern sets
//===----------------------------------------------------------------------===//

TEST_F(MatcherEngineTest, ApplyPatternsNamedSetFlatForm) {
  // The attribute form replaces the region form: named sets resolve through
  // the transform.pattern registry ("canonicalization" is built in).
  // x * 1 folds away under canonicalization.
  OwningOpRef Payload = parseSourceString(Ctx, R"(
    "builtin.module"() ({
      "func.func"() ({
      ^bb0(%x: f64):
        %one = "arith.constant"() {value = 1.0 : f64} : () -> (f64)
        %y = "arith.mulf"(%x, %one) : (f64, f64) -> (f64)
        "func.return"(%y) : (f64) -> ()
      }) {sym_name = "f", function_type = (f64) -> f64} : () -> ()
    }) : () -> ()
  )");
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      "transform.apply_patterns"(%root)
        {pattern_sets = ["canonicalization"]} : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Payload);
  ASSERT_TRUE(Script);
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  EXPECT_EQ(countOps(Payload.get(), "arith.mulf"), 0);
}

TEST_F(MatcherEngineTest, ApplyPatternsPerMatchAppliesOnlyInsideMatches) {
  // The paper's pattern-control example: a named pattern set applied only
  // within ops a pure matcher approved. Two functions, one tagged
  // {kernel}; addf->mulf must rewrite inside the tagged one only.
  registerTransformPatternOp(Ctx, "addf_to_mulf", [](PatternSet &Patterns) {
    Patterns.addFn("addf-to-mulf", "arith.addf",
                   [](Operation *Op, PatternRewriter &Rewriter) {
                     Rewriter.replaceOpWithNew(Op, "arith.mulf",
                                               Op->getOperands(),
                                               Op->getResultTypes());
                     return success();
                   });
  });
  OwningOpRef Payload = parseSourceString(Ctx, R"(
    "builtin.module"() ({
      "func.func"() ({
      ^bb0(%x: f64):
        %a = "arith.addf"(%x, %x) : (f64, f64) -> (f64)
        "func.return"(%a) : (f64) -> ()
      }) {sym_name = "hot", kernel,
          function_type = (f64) -> f64} : () -> ()
      "func.func"() ({
      ^bb0(%x: f64):
        %a = "arith.addf"(%x, %x) : (f64, f64) -> (f64)
        "func.return"(%a) : (f64) -> ()
      }) {sym_name = "cold", function_type = (f64) -> f64} : () -> ()
    }) : () -> ()
  )");
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.op<"func.func">):
      %0 = "transform.match.attr"(%op) {name = "kernel"}
        : (!transform.op<"func.func">) -> (!transform.op<"func.func">)
      "transform.yield"() : () -> ()
    }) {sym_name = "is_kernel_func"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      "transform.apply_patterns"(%root)
        {matchers = [@is_kernel_func], pattern_sets = ["addf_to_mulf"]}
        : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Payload);
  ASSERT_TRUE(Script);
  EXPECT_TRUE(analyzeHandleTypes(Script.get()).empty());
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  int64_t HotMulf = 0, ColdAddf = 0;
  Payload->walk([&](Operation *Op) {
    if (Op->getName() != "func.func")
      return;
    bool Hot = Op->hasAttr("kernel");
    Op->walk([&](Operation *Nested) {
      if (Hot)
        HotMulf += Nested->getName() == "arith.mulf";
      else
        ColdAddf += Nested->getName() == "arith.addf";
    });
  });
  EXPECT_EQ(HotMulf, 1);  // rewritten inside the matched func
  EXPECT_EQ(ColdAddf, 1); // untouched outside it
}

TEST_F(MatcherEngineTest, ApplyPatternsPerMatchUnknownSetIsRejected) {
  OwningOpRef Payload = makeManyFuncPayload(1);
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.op<"func.func">):
      "transform.yield"() : () -> ()
    }) {sym_name = "is_func"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      "transform.apply_patterns"(%root)
        {matchers = [@is_func], pattern_sets = ["no_such_set"]}
        : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Script);
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(Capture.contains("unknown pattern set"));
}

TEST_F(MatcherEngineTest, ApplyPatternsFlatUnknownSetRejectedStatically) {
  // The flat form gets the same static registry check as the match-driven
  // form: an unknown set name is an ill-typed script, caught before any
  // transform runs.
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      "transform.apply_patterns"(%root)
        {pattern_sets = ["no_such_flat_set"]} : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Script);
  std::vector<TypeCheckIssue> Issues = analyzeHandleTypes(Script.get());
  ASSERT_EQ(Issues.size(), 1u);
  EXPECT_NE(Issues[0].Message.find("unknown pattern set"), std::string::npos);
}

TEST_F(MatcherEngineTest, ApplyPatternsMismatchedPairArraysAreRejected) {
  OwningOpRef Payload = makeManyFuncPayload(1);
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      "transform.yield"() : () -> ()
    }) {sym_name = "m"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      "transform.apply_patterns"(%root)
        {matchers = [@m, @m], pattern_sets = ["canonicalization"]}
        : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Script);
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(Capture.contains("equally sized"));
}

TEST_F(MatcherEngineTest, ApplyPatternsPerMatchSkipsStaleMatches) {
  // Two pairs claim overlapping payload: the func (whose pattern run
  // replaces the addf inside it) and the addf itself. The func is claimed
  // first in walk order, its commit replaces the addf, and the addf match
  // goes stale — the engine must skip it rather than anchor a pattern run
  // at a replaced op.
  registerTransformPatternOp(Ctx, "erase_adds", [](PatternSet &Patterns) {
    Patterns.addFn("erase-adds", "arith.addf",
                   [](Operation *Op, PatternRewriter &Rewriter) {
                     Rewriter.replaceOpWithNew(Op, "arith.mulf",
                                               Op->getOperands(),
                                               Op->getResultTypes());
                     return success();
                   });
  });
  OwningOpRef Payload = parseSourceString(Ctx, R"(
    "builtin.module"() ({
      "func.func"() ({
      ^bb0(%x: f64):
        %a = "arith.addf"(%x, %x) : (f64, f64) -> (f64)
        "func.return"(%a) : (f64) -> ()
      }) {sym_name = "f", function_type = (f64) -> f64} : () -> ()
    }) : () -> ()
  )");
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.op<"func.func">):
      "transform.yield"() : () -> ()
    }) {sym_name = "is_func"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.op<"arith.addf">):
      "transform.yield"() : () -> ()
    }) {sym_name = "is_add"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      "transform.apply_patterns"(%root)
        {matchers = [@is_func, @is_add],
         pattern_sets = ["erase_adds", "erase_adds"]}
        : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Payload);
  ASSERT_TRUE(Script);
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  EXPECT_EQ(countOps(Payload.get(), "arith.addf"), 0);
  EXPECT_EQ(countOps(Payload.get(), "arith.mulf"), 1);
}

//===----------------------------------------------------------------------===//
// Commit phase
//===----------------------------------------------------------------------===//

/// Matches every loop and fully unrolls it: a payload-rewriting action that
/// consumes the matched loop and splices new ops into its function.
static const char *const UnrollingPairs = R"(
  "transform.named_sequence"() ({
  ^bb0(%op: !transform.any_op):
    %0 = "transform.match.operation_name"(%op) {op_names = ["scf.for"]}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.yield"() : () -> ()
  }) {sym_name = "is_loop"} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%loop: !transform.any_op):
    "transform.loop.unroll"(%loop) {full} : (!transform.any_op) -> ()
    "transform.yield"() : () -> ()
  }) {sym_name = "unroll_it"} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%root: !transform.any_op):
    %u = "transform.foreach_match"(%root)
      {matchers = [@is_loop], actions = [@unroll_it]}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.yield"() : () -> ()
  }) {sym_name = "__transform_main"} : () -> ()
)";

TEST_F(MatcherEngineTest, ShardedWalkWithConsumingActionsIsDeterministic) {
  // Consuming actions rewrite the payload between claims, so the walk must
  // skip stale matches the same way on every run: two runs over fresh
  // copies of the payload print byte-identical IR.
  OwningOpRef Script = makeScriptModule(UnrollingPairs);
  ASSERT_TRUE(Script);
  std::string First;
  for (int Run = 0; Run < 2; ++Run) {
    OwningOpRef Payload = makeManyFuncPayload(6);
    ASSERT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
    EXPECT_TRUE(succeeded(verify(Payload.get())));
    if (Run == 0)
      First = printed(Payload.get());
    else
      EXPECT_EQ(printed(Payload.get()), First);
  }
}

TEST_F(MatcherEngineTest, CommitShardedConsumingActionsAreDeterministic) {
  // Every matched loop is unrolled by the commit, and the result verifies.
  OwningOpRef Script = makeScriptModule(UnrollingPairs);
  ASSERT_TRUE(Script);
  OwningOpRef Payload = makeManyFuncPayload(6);
  ASSERT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(succeeded(verify(Payload.get())));
  EXPECT_EQ(countOps(Payload.get(), "scf.for"), 0);
  // Each 8-trip loop body (load, addf, store) is copied eight times.
  EXPECT_EQ(countOps(Payload.get(), "arith.addf"), 6 * 8);
  EXPECT_EQ(countOps(Payload.get(), "memref.load"), 6 * 8);
}

TEST_F(MatcherEngineTest, ActionErrorStopsCommitAfterEarlierRemarks) {
  // Six functions: three addf functions (remark action), then one mulf
  // function whose action is a definite error, then two more addf
  // functions. The commit emits three remarks and stops at the error:
  // nothing from matches after the failure point.
  auto MakeAddFunc = [](int N) {
    return R"(
      "func.func"() ({
      ^bb0(%x: f64):
        %a = "arith.addf"(%x, %x) : (f64, f64) -> (f64)
        "func.return"(%a) : (f64) -> ()
      }) {sym_name = "f)" +
           std::to_string(N) + R"(", function_type = (f64) -> f64} : () -> ()
    )";
  };
  std::string Funcs = MakeAddFunc(0) + MakeAddFunc(1) + MakeAddFunc(2) + R"(
    "func.func"() ({
    ^bb0(%x: f64):
      %m = "arith.mulf"(%x, %x) : (f64, f64) -> (f64)
      "func.return"(%m) : (f64) -> ()
    }) {sym_name = "boom", function_type = (f64) -> f64} : () -> ()
  )" + MakeAddFunc(3) + MakeAddFunc(4);

  static const char *const RemarkThenBrokenAction = R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      %0 = "transform.match.operation_name"(%op) {op_names = ["arith.addf"]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "is_add"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%add: !transform.any_op):
      "transform.debug.emit_remark"(%add) {message = "acting on an add"}
        : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "remark_add"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      %0 = "transform.match.operation_name"(%op) {op_names = ["arith.mulf"]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "is_mul"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%mul: !transform.any_op):
      %0 = "transform.match.operation_name"(%mul) {}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "broken_action"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %u = "transform.foreach_match"(%root)
        {matchers = [@is_add, @is_mul],
         actions = [@remark_add, @broken_action]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )";
  OwningOpRef Script = makeScriptModule(RemarkThenBrokenAction);
  ASSERT_TRUE(Script);
  OwningOpRef Payload = parseSourceString(
      Ctx, "\"builtin.module\"() ({" + Funcs + "}) : () -> ()");
  ASSERT_TRUE(Payload);
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(Capture.contains("op_names"));
  int64_t Remarks = 0;
  for (const Diagnostic &Diag : Capture.getDiagnostics())
    Remarks += Diag.Message.find("acting on an add") != std::string::npos;
  EXPECT_EQ(Remarks, 3);
}

} // namespace
