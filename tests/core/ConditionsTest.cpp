//===- ConditionsTest.cpp - Pre/post-condition system tests -------------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Conditions.h"

#include "core/Transform.h"
#include "dialect/Dialects.h"
#include "ir/Builder.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "pass/Pass.h"

#include <gtest/gtest.h>

using namespace tdl;

namespace {

class ConditionsTest : public ::testing::Test {
protected:
  ConditionsTest() {
    registerAllDialects(Ctx);
    registerTransformDialect(Ctx); // also registers passes + contracts
    registerBuiltinIRDLConstraints();
  }

  /// Builds the chunkTo42 function of Case Study 2. With \p DynamicOffset
  /// the subview offset comes from a function argument — the variant whose
  /// lowering pipeline breaks in the paper.
  OwningOpRef makeChunkTo42(bool DynamicOffset) {
    OwningOpRef Module(builtin::buildModule(Ctx, Loc));
    OpBuilder B(Ctx);
    B.setInsertionPointToStart(builtin::getModuleBody(Module.get()));

    Type F64 = FloatType::getF64(Ctx);
    MemRefType ATy = MemRefType::get(Ctx, {64, 64}, F64);
    std::vector<Type> Inputs = {ATy};
    if (DynamicOffset)
      Inputs.push_back(IndexType::get(Ctx));
    Operation *Func = func::buildFunc(
        B, Loc, "chunkTo42", FunctionType::get(Ctx, Inputs, {}));
    Block *Body = func::getBody(Func);
    B.setInsertionPointToStart(Body);

    Value A = Body->getArgument(0);
    Value Chunk;
    if (DynamicOffset) {
      Chunk = memref::buildSubView(B, Loc, A,
                                   /*StaticOffsets=*/{kDynamic, 0},
                                   /*StaticSizes=*/{4, 4},
                                   /*StaticStrides=*/{1, 1},
                                   /*DynOffsets=*/{Body->getArgument(1)});
    } else {
      Chunk = memref::buildSubView(B, Loc, A, {0, 0}, {4, 4}, {1, 1});
    }
    Value FortyTwo = arith::buildConstantFloat(B, Loc, 42.0, F64);
    scf::buildForall(B, Loc, {0, 0}, {4, 4},
                     [&](OpBuilder &Nested, Location L,
                         std::vector<Value> Ivs) {
                       memref::buildStore(Nested, L, FortyTwo, Chunk, Ivs);
                     });
    func::buildReturn(B, Loc);
    return Module;
  }

  std::vector<std::string> pipeline() {
    return {"convert-scf-to-cf",       "convert-arith-to-llvm",
            "convert-cf-to-llvm",      "convert-func-to-llvm",
            "expand-strided-metadata", "finalize-memref-to-llvm",
            "reconcile-unrealized-casts"};
  }

  Context Ctx;
  Location Loc = Location::unknown();
};

TEST_F(ConditionsTest, OpSetElementParsing) {
  OpSetElement Wildcard = OpSetElement::parse("scf.*");
  EXPECT_EQ(Wildcard.Kind, OpSetElement::ElementKind::DialectWildcard);
  EXPECT_TRUE(Wildcard.matches("scf.for"));
  EXPECT_TRUE(Wildcard.matches("scf.yield"));
  EXPECT_FALSE(Wildcard.matches("cf.br"));

  OpSetElement Exact = OpSetElement::parse("cf.br");
  EXPECT_EQ(Exact.Kind, OpSetElement::ElementKind::Exact);
  EXPECT_TRUE(Exact.matches("cf.br"));
  EXPECT_FALSE(Exact.matches("cf.cond_br"));

  OpSetElement Constrained = OpSetElement::parse("memref.subview.constr");
  EXPECT_EQ(Constrained.Kind, OpSetElement::ElementKind::Constrained);
  EXPECT_EQ(Constrained.Name, "memref.subview");
  EXPECT_TRUE(Constrained.matches("memref.subview.constr"));
  EXPECT_FALSE(Constrained.matches("memref.subview"));
  // But the dialect wildcard matches constrained names too.
  EXPECT_TRUE(OpSetElement::parse("memref.*").matches(
      "memref.subview.constr"));

  OpSetElement Cast = OpSetElement::parse("cast");
  EXPECT_EQ(Cast.Kind, OpSetElement::ElementKind::Cast);
  EXPECT_TRUE(Cast.matches("cast"));

  OpSetElement Iface = OpSetElement::parse("interface:MemoryAlloc");
  EXPECT_EQ(Iface.Kind, OpSetElement::ElementKind::Interface);
  EXPECT_TRUE(Iface.matches("memref.alloc", &Ctx));
  EXPECT_FALSE(Iface.matches("memref.dealloc", &Ctx));
}

TEST_F(ConditionsTest, MatchesTextAgreesWithParsedElement) {
  const char *Spellings[] = {
      "scf.*",     "cf.br",  "memref.subview.constr", "cast",
      "builtin.*", "memref", "interface:MemoryAlloc", "memref.sub.",
      ""};
  const char *Names[] = {"scf.for",
                         "cf.br",
                         "cf.cond_br",
                         "memref.subview",
                         "memref.subview.constr",
                         "memref.subview.constrx",
                         "memref.subviewxconstr",
                         "memref.sub.",
                         "cast",
                         "builtin.unrealized_conversion_cast",
                         "memref.alloc",
                         "memref.alloc.constr",
                         "memref",
                         ""};
  for (const char *Text : Spellings)
    for (const char *Name : Names)
      EXPECT_EQ(OpSetElement::matchesText(Text, Name, &Ctx),
                OpSetElement::parse(Text).matches(Name, &Ctx))
          << "'" << Text << "' against '" << Name << "'";
  EXPECT_TRUE(OpSetElement::matchesText("memref.subview.constr",
                                        "memref.subview.constr"));
  EXPECT_FALSE(OpSetElement::matchesText("memref.subview.constr",
                                         "memref.subviewxconstr"));
}

TEST_F(ConditionsTest, AbstractSetFromPayload) {
  OwningOpRef Module = makeChunkTo42(/*DynamicOffset=*/false);
  AbstractOpSet Set = AbstractOpSet::fromPayload(Module.get());
  EXPECT_TRUE(Set.contains("func.func"));
  EXPECT_TRUE(Set.contains("memref.subview"));
  EXPECT_TRUE(Set.contains("scf.forall"));
  EXPECT_FALSE(Set.contains("builtin.module")); // the root is excluded
}

TEST_F(ConditionsTest, StaticCheckerFindsAffineApplyLeak) {
  OwningOpRef Module = makeChunkTo42(/*DynamicOffset=*/true);
  AbstractOpSet Initial = AbstractOpSet::fromPayload(Module.get());
  std::vector<PipelineCheckIssue> Issues =
      checkLoweringPipeline(pipeline(), Initial, {"llvm.*"}, &Ctx);
  ASSERT_FALSE(Issues.empty());
  bool FoundAffineLeak = false;
  for (const PipelineCheckIssue &Issue : Issues)
    FoundAffineLeak |=
        Issue.Message.find("affine.apply") != std::string::npos &&
        Issue.Message.find("expand-strided-metadata") != std::string::npos;
  EXPECT_TRUE(FoundAffineLeak)
      << "expected the affine.apply leak to be attributed to "
         "expand-strided-metadata";
}

TEST_F(ConditionsTest, StaticCheckerAcceptsFixedPipeline) {
  OwningOpRef Module = makeChunkTo42(/*DynamicOffset=*/true);
  AbstractOpSet Initial = AbstractOpSet::fromPayload(Module.get());
  // The ad-hoc fix of the paper: add lower-affine (and re-run the arith
  // lowering) after expand-strided-metadata.
  std::vector<std::string> Fixed = {
      "convert-scf-to-cf",       "convert-cf-to-llvm",
      "convert-func-to-llvm",    "expand-strided-metadata",
      "lower-affine",            "convert-arith-to-llvm",
      "finalize-memref-to-llvm", "reconcile-unrealized-casts"};
  std::vector<PipelineCheckIssue> Issues =
      checkLoweringPipeline(Fixed, Initial, {"llvm.*"}, &Ctx);
  for (const PipelineCheckIssue &Issue : Issues)
    ADD_FAILURE() << Issue.TransformName << ": " << Issue.Message;
}

TEST_F(ConditionsTest, BrokenPipelineFailsDynamically) {
  OwningOpRef Module = makeChunkTo42(/*DynamicOffset=*/true);
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  PassManager PM(Ctx);
  for (const std::string &Name : pipeline())
    ASSERT_TRUE(succeeded(PM.addPass(Name)));
  EXPECT_TRUE(failed(PM.run(Module.get())));
  EXPECT_TRUE(Capture.contains("failed to legalize operation "
                               "'builtin.unrealized_conversion_cast'"));
}

TEST_F(ConditionsTest, StaticOffsetPipelineSucceedsDynamically) {
  OwningOpRef Module = makeChunkTo42(/*DynamicOffset=*/false);
  PassManager PM(Ctx);
  for (const std::string &Name : pipeline())
    ASSERT_TRUE(succeeded(PM.addPass(Name)));
  EXPECT_TRUE(succeeded(PM.run(Module.get())));
  // Everything is LLVM dialect now (plus no leftover casts).
  Module->walk([&](Operation *Op) {
    if (Op == Module.get())
      return;
    EXPECT_TRUE(Op->getDialectName() == "llvm")
        << "non-llvm op survived: " << Op->getName();
  });
}

TEST_F(ConditionsTest, FixedPipelineSucceedsDynamically) {
  OwningOpRef Module = makeChunkTo42(/*DynamicOffset=*/true);
  PassManager PM(Ctx);
  std::vector<std::string> Fixed = {
      "convert-scf-to-cf",       "convert-cf-to-llvm",
      "convert-func-to-llvm",    "expand-strided-metadata",
      "lower-affine",            "convert-arith-to-llvm",
      "finalize-memref-to-llvm", "reconcile-unrealized-casts"};
  for (const std::string &Name : Fixed)
    ASSERT_TRUE(succeeded(PM.addPass(Name)));
  EXPECT_TRUE(succeeded(PM.run(Module.get())));
}

TEST_F(ConditionsTest, IRDLVerifierChecksCardinality) {
  OwningOpRef Module = makeChunkTo42(/*DynamicOffset=*/false);
  Operation *StaticSubView = nullptr;
  Module->walk([&](Operation *Op) {
    if (Op->getName() == "memref.subview")
      StaticSubView = Op;
  });
  ASSERT_NE(StaticSubView, nullptr);
  // Static subview: one operand -> satisfies memref.subview.constr.
  EXPECT_TRUE(succeeded(IRDLRegistry::instance().verify(
      "memref.subview.constr", StaticSubView)));

  OwningOpRef Dynamic = makeChunkTo42(/*DynamicOffset=*/true);
  Operation *DynSubView = nullptr;
  Dynamic->walk([&](Operation *Op) {
    if (Op->getName() == "memref.subview")
      DynSubView = Op;
  });
  ASSERT_NE(DynSubView, nullptr);
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(IRDLRegistry::instance().verify(
      "memref.subview.constr", DynSubView)));
  EXPECT_TRUE(Capture.contains("cardinality"));
}

TEST_F(ConditionsTest, DynamicContractCheckDetectsViolation) {
  // A deliberately wrong contract: claims convert-scf-to-cf introduces only
  // cf.br. The dynamic check must catch the extra op kinds.
  OwningOpRef Module = makeChunkTo42(/*DynamicOffset=*/false);
  LoweringContract Wrong;
  Wrong.Pre = {"scf.*"};
  Wrong.Post = {"cf.br"};
  Operation *Func = nullptr;
  Module->walk([&](Operation *Op) {
    if (Op->getName() == "func.func")
      Func = Op;
  });
  FailureOr<std::string> Result =
      runPassWithDynamicContractCheck("convert-scf-to-cf", Wrong, Func);
  ASSERT_TRUE(succeeded(Result));
  EXPECT_NE(*Result, "") << "expected a post-condition violation";
  EXPECT_NE(Result->find("not declared in the post-condition"),
            std::string::npos);
}

TEST_F(ConditionsTest, DynamicContractCheckAcceptsCorrectContract) {
  OwningOpRef Module = makeChunkTo42(/*DynamicOffset=*/false);
  const LoweringContract *Contract =
      ContractRegistry::instance().lookup("convert-scf-to-cf");
  ASSERT_NE(Contract, nullptr);
  Operation *Func = nullptr;
  Module->walk([&](Operation *Op) {
    if (Op->getName() == "func.func")
      Func = Op;
  });
  FailureOr<std::string> Result =
      runPassWithDynamicContractCheck("convert-scf-to-cf", *Contract, Func);
  ASSERT_TRUE(succeeded(Result));
  EXPECT_EQ(*Result, "");
}

TEST_F(ConditionsTest, TypedHandleContradictsContractPre) {
  // A contracted lowering transform applied through a typed handle whose
  // op name can never satisfy the contract's pre-condition: visible from
  // the script types alone, no payload needed.
  OwningOpRef Script = parseSourceString(Ctx, R"(
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %mm = "transform.match.op"(%root) {op_name = "linalg.matmul"}
        : (!transform.any_op) -> (!transform.op<"linalg.matmul">)
      %l = "transform.convert_scf_to_cf"(%mm)
        : (!transform.op<"linalg.matmul">) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Script);
  AbstractOpSet Initial =
      AbstractOpSet::fromNames({"linalg.matmul", "scf.for", "func.func"});
  std::vector<PipelineCheckIssue> Issues = checkTransformScript(
      Script.get(), Initial,
      {"linalg.*", "scf.*", "func.*", "cf.*", "arith.*", "cast"});
  bool FoundTyped = false;
  for (const PipelineCheckIssue &Issue : Issues)
    FoundTyped |=
        Issue.Message.find("can never satisfy the pre-condition") !=
        std::string::npos;
  EXPECT_TRUE(FoundTyped);

  // A handle to a region-bearing container may satisfy the pre-condition
  // through nested ops, so it must NOT be flagged from its type alone.
  OwningOpRef Container = parseSourceString(Ctx, R"(
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %f = "transform.match.op"(%root) {op_name = "func.func"}
        : (!transform.any_op) -> (!transform.op<"func.func">)
      %l = "transform.convert_scf_to_cf"(%f)
        : (!transform.op<"func.func">) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Container);
  std::vector<PipelineCheckIssue> ContainerIssues = checkTransformScript(
      Container.get(), AbstractOpSet::fromNames({"func.func", "scf.for"}),
      {"scf.*", "func.*", "cf.*", "arith.*", "cast"});
  for (const PipelineCheckIssue &Issue : ContainerIssues)
    EXPECT_EQ(Issue.Message.find("can never satisfy"), std::string::npos)
        << Issue.Message;

  // The same script through an scf-typed handle is clean.
  OwningOpRef Ok = parseSourceString(Ctx, R"(
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %loops = "transform.match.op"(%root) {op_name = "scf.for"}
        : (!transform.any_op) -> (!transform.op<"scf.for">)
      %l = "transform.convert_scf_to_cf"(%loops)
        : (!transform.op<"scf.for">) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Ok);
  Issues = checkTransformScript(
      Ok.get(), AbstractOpSet::fromNames({"scf.for", "func.func"}),
      {"scf.*", "func.*", "cf.*", "arith.*", "cast"});
  for (const PipelineCheckIssue &Issue : Issues)
    EXPECT_EQ(Issue.Message.find("can never satisfy"), std::string::npos)
        << Issue.Message;
}

TEST_F(ConditionsTest, PhaseOrderingViolationDetected) {
  // A "tiling" style contract that requires scf loops must come before the
  // scf lowering, not after.
  ContractRegistry::instance().registerContract(
      "fake-loop-tile", {{"scf.for"}, {"scf.for"}, /*PreMustExist=*/true,
                         /*PreservesPre=*/true});
  OwningOpRef Module = makeChunkTo42(/*DynamicOffset=*/false);
  AbstractOpSet Initial = AbstractOpSet::fromPayload(Module.get());
  // scf.forall is in the payload; convert-scf-to-cf removes all scf.
  std::vector<PipelineCheckIssue> Issues = checkLoweringPipeline(
      {"convert-scf-to-cf", "fake-loop-tile"}, Initial, {"llvm.*", "cf.*",
       "arith.*", "func.*", "memref.*", "cast", "scf.*"}, &Ctx);
  bool FoundOrdering = false;
  for (const PipelineCheckIssue &Issue : Issues)
    FoundOrdering |= Issue.Message.find("phase-ordering") != std::string::npos;
  EXPECT_TRUE(FoundOrdering);
}

} // namespace
