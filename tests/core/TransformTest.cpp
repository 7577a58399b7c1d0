//===- TransformTest.cpp - Transform dialect interpreter tests ---------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Transform.h"

#include "dialect/Dialects.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "loops/LoopUtils.h"
#include "lowering/Passes.h"
#include "pass/Pass.h"

#include <gtest/gtest.h>
#include <memory>

using namespace tdl;

namespace {

class TransformTest : public ::testing::Test {
protected:
  TransformTest() {
    registerAllDialects(Ctx);
    registerTransformDialect(Ctx);
  }

  /// The payload of Fig. 1b: an uneven nested loop with invariant constants
  /// inside the loop bodies.
  OwningOpRef makeFig1Payload() {
    return parseSourceString(Ctx, R"(
      "builtin.module"() ({
        "func.func"() ({
        ^bb0(%values: memref<3x4096x2042xf64>):
          %lb = "arith.constant"() {value = 0 : index} : () -> (index)
          %ub = "arith.constant"() {value = 4096 : index} : () -> (index)
          %step = "arith.constant"() {value = 1 : index} : () -> (index)
          "scf.for"(%lb, %ub, %step) ({
          ^outer(%i: index):
            %c1 = "arith.constant"() {value = 1 : index} : () -> (index)
            %jub = "arith.constant"() {value = 2042 : index} : () -> (index)
            "scf.for"(%lb, %jub, %step) ({
            ^inner(%j: index):
              %v = "memref.load"(%values, %c1, %i, %j)
                : (memref<3x4096x2042xf64>, index, index, index) -> (f64)
              %w = "arith.addf"(%v, %v) : (f64, f64) -> (f64)
              "memref.store"(%w, %values, %c1, %i, %j)
                : (f64, memref<3x4096x2042xf64>, index, index, index) -> ()
              "scf.yield"() : () -> ()
            }) : (index, index, index) -> ()
            "scf.yield"() : () -> ()
          }) : (index, index, index) -> ()
          "func.return"() : () -> ()
        }) {sym_name = "myFunc",
            function_type = (memref<3x4096x2042xf64>) -> ()} : () -> ()
      }) : () -> ()
    )");
  }

  /// Parses a transform script (a named_sequence with one !transform.any_op
  /// argument).
  OwningOpRef makeScript(std::string_view Body) {
    std::string Source = R"("transform.named_sequence"() ({
      ^bb0(%root: !transform.any_op):
    )" + std::string(Body) +
                         R"(
        "transform.yield"() : () -> ()
      }) {sym_name = "__transform_main"} : () -> ()
    )";
    return parseSourceString(Ctx, Source, "script");
  }

  int64_t countOps(Operation *Root, std::string_view Name) {
    int64_t Count = 0;
    Root->walk([&](Operation *Op) { Count += Op->getName() == Name; });
    return Count;
  }

  Context Ctx;
};

/// Drives TransformState::consume directly over the Fig. 1b payload, whose
/// func body holds the loop-bound constants beside the outer loop and whose
/// memref.load sits three levels below the func (outer loop, inner loop).
class InvalidationTest : public TransformTest {
protected:
  InvalidationTest() : Payload(makeFig1Payload()) {
    // The block arguments serve as distinct handle values; the sequence
    // never runs.
    Handles = parseSourceString(Ctx, R"("transform.named_sequence"() ({
      ^bb0(%h0: !transform.any_op, %h1: !transform.any_op,
           %h2: !transform.any_op):
        "transform.yield"() : () -> ()
      }) {sym_name = "handles"} : () -> ()
    )");
    Func = findFirst("func.func");
    Outer = findFirst("scf.for");
    Load = findFirst("memref.load");
    Bound = findFirst("arith.constant");
  }

  /// The first payload op named \p Name in pre-order.
  Operation *findFirst(std::string_view Name) {
    Operation *Found = nullptr;
    Payload->walkPre([&](Operation *Op) {
      if (Op->getName() != Name)
        return WalkResult::Advance;
      Found = Op;
      return WalkResult::Interrupt;
    });
    return Found;
  }

  Value handle(unsigned Idx) {
    return Handles->getRegion(0).front().getArgument(Idx);
  }

  OwningOpRef Payload;
  OwningOpRef Handles;
  Operation *Func = nullptr, *Outer = nullptr, *Load = nullptr,
            *Bound = nullptr;
};

TEST_F(InvalidationTest, SameOpIsInvalidated) {
  TransformState State(Payload.get());
  State.setPayload(handle(0), {Outer});
  State.setPayload(handle(1), {Outer});
  State.consume(handle(0));
  EXPECT_TRUE(State.isInvalidated(handle(0)));
  EXPECT_TRUE(State.isInvalidated(handle(1)));
}

TEST_F(InvalidationTest, OpNestedThreeLevelsDeepIsInvalidated) {
  ASSERT_EQ(Load->getParentOp()->getParentOp()->getParentOp(), Func);
  TransformState State(Payload.get());
  State.setPayload(handle(0), {Func});
  State.setPayload(handle(1), {Load});
  State.consume(handle(0));
  EXPECT_TRUE(State.isInvalidated(handle(1)));
}

TEST_F(InvalidationTest, SiblingSubtreeAndAncestorStayValid) {
  ASSERT_EQ(Bound->getParentOp(), Func);
  TransformState State(Payload.get());
  State.setPayload(handle(0), {Outer});
  State.setPayload(handle(1), {Bound});
  State.setPayload(handle(2), {Func});
  State.consume(handle(0));
  EXPECT_TRUE(State.isInvalidated(handle(0)));
  EXPECT_FALSE(State.isInvalidated(handle(1)));
  EXPECT_FALSE(State.isInvalidated(handle(2)));
}

TEST_F(InvalidationTest, OneNestedOpAmongUnrelatedOnesInvalidates) {
  TransformState State(Payload.get());
  State.setPayload(handle(0), {Outer});
  State.setPayload(handle(1), {Bound, Load});
  State.consume(handle(0));
  EXPECT_TRUE(State.isInvalidated(handle(1)));
}

TEST_F(InvalidationTest, ParamsAreUntouched) {
  TransformState State(Payload.get());
  State.setPayload(handle(0), {Func});
  std::vector<Attribute> Params = {IntegerAttr::getIndex(Ctx, 8)};
  State.setParams(handle(1), Params);
  State.consume(handle(0));
  EXPECT_FALSE(State.isInvalidated(handle(1)));
  EXPECT_EQ(State.getParams(handle(1)), Params);
}

TEST_F(InvalidationTest, ConsumingRootWithNoOtherLiveHandleKeepsTable) {
  TransformState State(Payload.get());
  State.setPayload(handle(0), {Payload.get()});
  State.consume(handle(0));
  EXPECT_TRUE(State.isInvalidated(handle(0)));
  EXPECT_EQ(State.getNumHandles(), 1u);
  EXPECT_EQ(State.getPayloadOps(handle(0)),
            std::vector<Operation *>{Payload.get()});
}

TEST_F(InvalidationTest, RebindingConsumedHandleClearsInvalidatedMark) {
  TransformState State(Payload.get());
  State.setPayload(handle(0), {Outer});
  State.consume(handle(0));
  ASSERT_TRUE(State.isInvalidated(handle(0)));
  // Rebinding reuses the handle's slot; the mark must not survive it.
  State.setPayload(handle(0), {Load});
  EXPECT_FALSE(State.isInvalidated(handle(0)));
  EXPECT_EQ(State.getPayloadOps(handle(0)), std::vector<Operation *>{Load});
  State.consume(handle(0));
  std::vector<Operation *> Rebound = {Bound};
  State.setPayload(handle(0), Rebound);
  EXPECT_FALSE(State.isInvalidated(handle(0)));
  EXPECT_EQ(State.getPayloadOps(handle(0)), Rebound);
}

TEST_F(InvalidationTest, RebindingSwitchesHandleAndParamBothWays) {
  TransformState State(Payload.get());
  std::vector<Attribute> Params = {IntegerAttr::getIndex(Ctx, 8)};
  State.setPayload(handle(0), {Outer, Load});
  State.setParams(handle(0), Params);
  EXPECT_TRUE(State.isParam(handle(0)));
  EXPECT_TRUE(State.getPayloadOps(handle(0)).empty());
  EXPECT_EQ(State.getParams(handle(0)), Params);
  std::vector<Operation *> Ops = {Func};
  State.setPayload(handle(0), Ops);
  EXPECT_FALSE(State.isParam(handle(0)));
  EXPECT_TRUE(State.getParams(handle(0)).empty());
  EXPECT_EQ(State.getPayloadOps(handle(0)), Ops);
  // Back to a param and to ops once more, through the other overloads.
  State.setParams(handle(0), {IntegerAttr::getIndex(Ctx, 4)});
  EXPECT_TRUE(State.isParam(handle(0)));
  EXPECT_TRUE(State.getPayloadOps(handle(0)).empty());
  State.setPayload(handle(0), std::vector<Operation *>{Bound});
  EXPECT_FALSE(State.isParam(handle(0)));
  EXPECT_EQ(State.getPayloadOps(handle(0)), std::vector<Operation *>{Bound});
  EXPECT_EQ(State.getNumHandles(), 1u);
}

TEST_F(InvalidationTest, RebindingWithShorterListLeavesNoStaleOps) {
  TransformState State(Payload.get());
  State.setPayload(handle(0), {Func, Outer, Load});
  State.setPayload(handle(0), {Bound});
  EXPECT_EQ(State.getPayloadOps(handle(0)), std::vector<Operation *>{Bound});
  std::vector<Operation *> Longer = {Bound, Outer};
  State.setPayload(handle(0), Longer);
  State.setPayload(handle(0), std::vector<Operation *>{Bound});
  EXPECT_EQ(State.getPayloadOps(handle(0)), std::vector<Operation *>{Bound});
  // Rebinding a handle to its own ops keeps them.
  State.setPayload(handle(0), State.getPayloadOps(handle(0)));
  EXPECT_EQ(State.getPayloadOps(handle(0)), std::vector<Operation *>{Bound});
  // A stale Outer or Load left in the slot would invalidate the handle.
  State.setPayload(handle(1), {Outer});
  State.consume(handle(1));
  EXPECT_FALSE(State.isInvalidated(handle(0)));
}

TEST_F(TransformTest, MatchOpBindsHandles) {
  OwningOpRef Payload = makeFig1Payload();
  OwningOpRef Script = makeScript(R"(
    %loops = "transform.match.op"(%root) {op_name = "scf.for"}
      : (!transform.any_op) -> (!transform.any_op)
    %first = "transform.match.op"(%root) {op_name = "scf.for", first}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.annotate"(%loops) {name = "seen"} : (!transform.any_op) -> ()
  )");
  ASSERT_TRUE(Payload);
  ASSERT_TRUE(Script);
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  int64_t Annotated = 0;
  Payload->walk([&](Operation *Op) { Annotated += Op->hasAttr("seen"); });
  EXPECT_EQ(Annotated, 2); // both loops annotated
}

TEST_F(TransformTest, MatchFailureIsSilenceable) {
  OwningOpRef Payload = makeFig1Payload();
  OwningOpRef Script = makeScript(R"(
    %none = "transform.match.op"(%root) {op_name = "scf.forall"}
      : (!transform.any_op) -> (!transform.any_op)
  )");
  // Default: silenceable failures surviving to the top are errors.
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));

  TransformOptions Options;
  Options.FailOnSilenceable = false;
  OwningOpRef Payload2 = makeFig1Payload();
  EXPECT_TRUE(
      succeeded(applyTransforms(Payload2.get(), Script.get(), Options)));
}

TEST_F(TransformTest, Figure1SplitTileUnroll) {
  OwningOpRef Payload = makeFig1Payload();
  // The script of Fig. 1a (without the deliberate error).
  OwningOpRef Script = makeScript(R"(
    %outer = "transform.match.op"(%root) {op_name = "scf.for", first}
      : (!transform.any_op) -> (!transform.any_op)
    %hoisted = "transform.loop.hoist"(%outer)
      : (!transform.any_op) -> (!transform.any_op)
    %inner = "transform.match.op"(%outer) {op_name = "scf.for", first}
      : (!transform.any_op) -> (!transform.any_op)
    %param = "transform.param.constant"() {value = 8 : index}
      : () -> (!transform.param)
    %main, %rest = "transform.loop.split"(%inner, %param)
      : (!transform.any_op, !transform.param)
      -> (!transform.any_op, !transform.any_op)
    %tiles, %points = "transform.loop.tile"(%main, %param)
      : (!transform.any_op, !transform.param)
      -> (!transform.any_op, !transform.any_op)
    "transform.loop.unroll"(%rest) {full} : (!transform.any_op) -> ()
  )");
  ASSERT_TRUE(Payload);
  ASSERT_TRUE(Script);
  ASSERT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(succeeded(verify(Payload.get())));

  // Loops: outer + tile + point (inner was split; remainder fully unrolled).
  EXPECT_EQ(countOps(Payload.get(), "scf.for"), 3);
  // The remainder had 2042 - 2040 = 2 iterations; its body (load, addf,
  // store) was duplicated twice into the outer loop.
  EXPECT_EQ(countOps(Payload.get(), "memref.load"), 3);
  // Hoisting moved the invariant constants out of the outer loop body.
  Operation *Func = nullptr;
  Payload->walk([&](Operation *Op) {
    if (Op->getName() == "func.func")
      Func = Op;
  });
  ASSERT_NE(Func, nullptr);
  Operation *OuterLoop = nullptr;
  Payload->walkPre([&](Operation *Op) {
    if (Op->getName() == "scf.for") {
      OuterLoop = Op;
      return WalkResult::Interrupt;
    }
    return WalkResult::Advance;
  });
  // The original invariant constants (1 and 2042) were hoisted; the only
  // constants inside the outer loop are the bound/index constants the
  // split/tile/unroll transformations materialized (as in Fig. 1c, where
  // 2040/2041 appear inline).
  OuterLoop->walk([&](Operation *Op) {
    if (Op->getName() != "arith.constant")
      return;
    int64_t Value = Op->getIntAttr("value", -1);
    EXPECT_NE(Value, 1) << "invariant constant 1 was not hoisted";
    EXPECT_NE(Value, 2042) << "invariant bound 2042 was not hoisted";
  });
}

TEST_F(TransformTest, UseAfterConsumeIsReportedDynamically) {
  OwningOpRef Payload = makeFig1Payload();
  // Fig. 1a line 11: unrolling the same (consumed) handle twice.
  OwningOpRef Script = makeScript(R"(
    %outer = "transform.match.op"(%root) {op_name = "scf.for", first}
      : (!transform.any_op) -> (!transform.any_op)
    %inner = "transform.match.op"(%outer) {op_name = "scf.for", first}
      : (!transform.any_op) -> (!transform.any_op)
    %main, %rest = "transform.loop.split"(%inner) {divisor = 8 : index}
      : (!transform.any_op) -> (!transform.any_op, !transform.any_op)
    "transform.loop.unroll"(%rest) {full} : (!transform.any_op) -> ()
    "transform.loop.unroll"(%rest) {full} : (!transform.any_op) -> ()
  )");
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(Capture.contains("invalidated"));
}

TEST_F(TransformTest, ConsumingLoopInvalidatesNestedHandles) {
  OwningOpRef Payload = makeFig1Payload();
  OwningOpRef Script = makeScript(R"(
    %outer = "transform.match.op"(%root) {op_name = "scf.for", first}
      : (!transform.any_op) -> (!transform.any_op)
    %inner = "transform.match.op"(%outer) {op_name = "scf.for", first}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.loop.unroll"(%outer) {factor = 2 : index}
      : (!transform.any_op) -> ()
    "transform.annotate"(%inner) {name = "x"} : (!transform.any_op) -> ()
  )");
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(Capture.contains("invalidated"));
}

TEST_F(TransformTest, AlternativesFallThrough) {
  OwningOpRef Payload = makeFig1Payload();
  // First alternative fails silenceably (no scf.forall to match); the empty
  // second alternative succeeds, leaving the payload unchanged.
  OwningOpRef Script = makeScript(R"(
    %outer = "transform.match.op"(%root) {op_name = "scf.for", first}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.alternatives"(%outer) ({
    ^bb0(%scope: !transform.any_op):
      %nope = "transform.match.op"(%scope) {op_name = "scf.forall"}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }, {
    }) : (!transform.any_op) -> ()
  )");
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  EXPECT_EQ(countOps(Payload.get(), "scf.for"), 2);
}

TEST_F(TransformTest, AlternativesFirstSuccessWins) {
  OwningOpRef Payload = makeFig1Payload();
  OwningOpRef Script = makeScript(R"(
    %outer = "transform.match.op"(%root) {op_name = "scf.for", first}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.alternatives"(%outer) ({
    ^bb0(%scope: !transform.any_op):
      "transform.annotate"(%scope) {name = "first_alt"}
        : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }, {
    ^bb1(%scope2: !transform.any_op):
      "transform.annotate"(%scope2) {name = "second_alt"}
        : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) : (!transform.any_op) -> ()
  )");
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  int64_t First = 0, Second = 0;
  Payload->walk([&](Operation *Op) {
    First += Op->hasAttr("first_alt");
    Second += Op->hasAttr("second_alt");
  });
  EXPECT_EQ(First, 1);
  EXPECT_EQ(Second, 0);
}

TEST_F(TransformTest, IncludeExecutesNamedSequence) {
  OwningOpRef Payload = makeFig1Payload();
  // A module containing the entry point and a macro.
  OwningOpRef Script = parseSourceString(Ctx, R"(
    "builtin.module"() ({
      "transform.named_sequence"() ({
      ^bb0(%arg: !transform.any_op):
        %loops = "transform.match.op"(%arg) {op_name = "scf.for"}
          : (!transform.any_op) -> (!transform.any_op)
        "transform.annotate"(%loops) {name = "via_macro"}
          : (!transform.any_op) -> ()
        "transform.yield"(%loops) : (!transform.any_op) -> ()
      }) {sym_name = "annotate_loops"} : () -> ()
      "transform.named_sequence"() ({
      ^bb0(%root: !transform.any_op):
        %res = "transform.include"(%root) {callee = @annotate_loops}
          : (!transform.any_op) -> (!transform.any_op)
        "transform.annotate"(%res) {name = "from_yield"}
          : (!transform.any_op) -> ()
        "transform.yield"() : () -> ()
      }) {sym_name = "__transform_main"} : () -> ()
    }) : () -> ()
  )");
  ASSERT_TRUE(Script);
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  int64_t ViaMacro = 0, FromYield = 0;
  Payload->walk([&](Operation *Op) {
    ViaMacro += Op->hasAttr("via_macro");
    FromYield += Op->hasAttr("from_yield");
  });
  EXPECT_EQ(ViaMacro, 2);
  EXPECT_EQ(FromYield, 2);
}

TEST_F(TransformTest, ForeachIteratesPayload) {
  OwningOpRef Payload = makeFig1Payload();
  OwningOpRef Script = makeScript(R"(
    %loops = "transform.match.op"(%root) {op_name = "scf.for"}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.foreach"(%loops) ({
    ^bb0(%loop: !transform.any_op):
      "transform.annotate"(%loop) {name = "visited"}
        : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) : (!transform.any_op) -> ()
  )");
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  int64_t Visited = 0;
  Payload->walk([&](Operation *Op) { Visited += Op->hasAttr("visited"); });
  EXPECT_EQ(Visited, 2);
}

TEST_F(TransformTest, ApplyRegisteredPassViaScript) {
  OwningOpRef Payload = makeFig1Payload();
  OwningOpRef Script = makeScript(R"(
    %r = "transform.apply_registered_pass"(%root)
      {pass_name = "convert-scf-to-cf"}
      : (!transform.any_op) -> (!transform.any_op)
  )");
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  EXPECT_EQ(countOps(Payload.get(), "scf.for"), 0);
  EXPECT_GT(countOps(Payload.get(), "cf.cond_br"), 0);
}

TEST_F(TransformTest, ApplyPatternsTracksHandles) {
  OwningOpRef Payload = parseSourceString(Ctx, R"(
    "builtin.module"() ({
      "func.func"() ({
      ^bb0(%x: index):
        %zero = "arith.constant"() {value = 0 : index} : () -> (index)
        %sum = "arith.addi"(%x, %zero) : (index, index) -> (index)
        %use = "arith.muli"(%sum, %sum) : (index, index) -> (index)
        "func.return"(%use) : (index) -> ()
      }) {sym_name = "f", function_type = (index) -> index} : () -> ()
    }) : () -> ()
  )");
  OwningOpRef Script = makeScript(R"(
    %adds = "transform.match.op"(%root) {op_name = "arith.muli"}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.apply_patterns"(%root) ({
      "transform.pattern.canonicalization"() : () -> ()
    }) : (!transform.any_op) -> ()
    "transform.annotate"(%adds) {name = "still_tracked"}
      : (!transform.any_op) -> ()
  )");
  ASSERT_TRUE(Payload);
  ASSERT_TRUE(Script);
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  // add-zero folded away; the muli survived and stayed tracked.
  EXPECT_EQ(countOps(Payload.get(), "arith.addi"), 0);
  int64_t Tracked = 0;
  Payload->walk([&](Operation *Op) {
    Tracked += Op->hasAttr("still_tracked");
  });
  EXPECT_EQ(Tracked, 1);
}

TEST_F(TransformTest, SplitAndMergeHandles) {
  OwningOpRef Payload = makeFig1Payload();
  OwningOpRef Script = makeScript(R"(
    %loops = "transform.match.op"(%root) {op_name = "scf.for"}
      : (!transform.any_op) -> (!transform.any_op)
    %a, %b = "transform.split_handle"(%loops)
      : (!transform.any_op) -> (!transform.any_op, !transform.any_op)
    %merged = "transform.merge_handles"(%a, %b)
      : (!transform.any_op, !transform.any_op) -> (!transform.any_op)
    "transform.annotate"(%merged) {name = "merged"}
      : (!transform.any_op) -> ()
  )");
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  int64_t Merged = 0;
  Payload->walk([&](Operation *Op) { Merged += Op->hasAttr("merged"); });
  EXPECT_EQ(Merged, 2);
}

TEST_F(TransformTest, AssertOnParams) {
  OwningOpRef Payload = makeFig1Payload();
  OwningOpRef ScriptTrue = makeScript(R"(
    %p = "transform.param.constant"() {value = 1 : index}
      : () -> (!transform.param)
    "transform.assert"(%p) {message = "should hold"}
      : (!transform.param) -> ()
  )");
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), ScriptTrue.get())));

  OwningOpRef ScriptFalse = makeScript(R"(
    %p = "transform.param.constant"() {value = 0 : index}
      : () -> (!transform.param)
    "transform.assert"(%p) {message = "vectorization precondition"}
      : (!transform.param) -> ()
  )");
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), ScriptFalse.get())));
  EXPECT_TRUE(Capture.contains("vectorization precondition"));
}

TEST_F(TransformTest, PipelineToScriptConversion) {
  registerAllPasses();
  OwningOpRef Script = buildTransformScriptFromPipeline(
      Ctx, "builtin.module(func.func(convert-scf-to-cf),canonicalize)");
  ASSERT_TRUE(Script);
  int64_t ApplyOps = 0;
  Script->walk([&](Operation *Op) {
    ApplyOps += Op->getName() == "transform.apply_registered_pass";
  });
  EXPECT_EQ(ApplyOps, 2);

  OwningOpRef Payload = makeFig1Payload();
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  EXPECT_EQ(countOps(Payload.get(), "scf.for"), 0);
}

TEST_F(TransformTest, ScriptRunsPassUnderPipelineAnchorLikePassManager) {
  registerAllPasses();
  // Registered without an anchor: only the pipeline nesting says it runs
  // once per function.
  auto Recorded = std::make_shared<std::vector<std::string>>();
  PassRegistry::instance().registerFnPass(
      "test-record-targets", "Records the ops it runs on", "",
      [Recorded](Operation *Target, Pass &) {
        Recorded->push_back(std::string(Target->getName()) + " @" +
                            std::string(Target->getStringAttr("sym_name")));
        return success();
      });
  const char *Pipeline = "builtin.module(func.func(test-record-targets))";
  auto MakePayload = [&] {
    return parseSourceString(Ctx, R"(
      "builtin.module"() ({
        "func.func"() ({
          "func.return"() : () -> ()
        }) {sym_name = "a", function_type = () -> ()} : () -> ()
        "func.func"() ({
          "func.return"() : () -> ()
        }) {sym_name = "b", function_type = () -> ()} : () -> ()
      }) : () -> ()
    )");
  };

  OwningOpRef ViaPassManager = MakePayload();
  PassManager PM(Ctx);
  auto Elements = parsePassPipeline(Ctx, Pipeline);
  ASSERT_TRUE(succeeded(Elements));
  ASSERT_TRUE(succeeded(buildPassManager(PM, *Elements)));
  ASSERT_TRUE(succeeded(PM.run(ViaPassManager.get())));
  std::vector<std::string> PassManagerTargets = *Recorded;
  Recorded->clear();

  OwningOpRef ViaScript = MakePayload();
  OwningOpRef Script = buildTransformScriptFromPipeline(Ctx, Pipeline);
  ASSERT_TRUE(Script);
  ASSERT_TRUE(succeeded(applyTransforms(ViaScript.get(), Script.get())));

  EXPECT_EQ(PassManagerTargets,
            (std::vector<std::string>{"func.func @a", "func.func @b"}));
  EXPECT_EQ(*Recorded, PassManagerTargets);
}

TEST_F(TransformTest, UnregisteredTransformOpIsDefiniteError) {
  Ctx.setAllowUnregisteredOps(true);
  OwningOpRef Payload = makeFig1Payload();
  OwningOpRef Script = makeScript(R"(
    "transform.not_a_real_op"(%root) : (!transform.any_op) -> ()
  )");
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(Capture.contains("unregistered transform op"));
}

} // namespace
