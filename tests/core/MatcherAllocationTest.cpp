//===- MatcherAllocationTest.cpp - Heap use of matcher invocations -------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks that a matcher invocation that fails does no heap allocation:
/// offering every op of the same walk to ten times as many failing matchers
/// allocates exactly as often. This binary replaces the global operator new
/// with a malloc-backed one that counts the allocations of the calling
/// thread while a test asks it to.
///
//===----------------------------------------------------------------------===//

#include "core/MatcherEngine.h"
#include "core/Transform.h"

#include "dialect/Dialects.h"
#include "ir/Parser.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

namespace {
thread_local bool CountAllocations = false;
thread_local size_t NumAllocations = 0;
} // namespace

// Every unaligned form is replaced, so each allocation and its release both
// go through malloc and free; a partial set would pair this operator delete
// with a sanitizer runtime's operator new. The aligned forms stay paired
// within the runtime.
static void *countedMalloc(std::size_t Size) noexcept {
  if (CountAllocations)
    ++NumAllocations;
  return std::malloc(Size ? Size : 1);
}

void *operator new(std::size_t Size) {
  if (void *Ptr = countedMalloc(Size))
    return Ptr;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Size) { return ::operator new(Size); }
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  return countedMalloc(Size);
}
void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  return countedMalloc(Size);
}
void operator delete(void *Ptr) noexcept { std::free(Ptr); }
void operator delete[](void *Ptr) noexcept { std::free(Ptr); }
void operator delete(void *Ptr, std::size_t) noexcept { std::free(Ptr); }
void operator delete[](void *Ptr, std::size_t) noexcept { std::free(Ptr); }
void operator delete(void *Ptr, const std::nothrow_t &) noexcept {
  std::free(Ptr);
}
void operator delete[](void *Ptr, const std::nothrow_t &) noexcept {
  std::free(Ptr);
}

using namespace tdl;

namespace {

class MatcherAllocationTest : public ::testing::Test {
protected:
  MatcherAllocationTest() {
    registerAllDialects(Ctx);
    registerTransformDialect(Ctx);
  }

  OwningOpRef makePayload(int NumFuncs) {
    std::string Funcs;
    for (int F = 0; F < NumFuncs; ++F)
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
            "memref.store"(%v, %m, %i, %lb)
              : (f64, memref<8x8xf64>, index, index) -> ()
            "scf.yield"() : () -> ()
          }) : (index, index, index) -> ()
          "func.return"() : () -> ()
        }) {sym_name = "f)" +
               std::to_string(F) + R"(",
            function_type = (memref<8x8xf64>) -> ()} : () -> ()
      )";
    return parseSourceString(
        Ctx, "\"builtin.module\"() ({" + Funcs + "}) : () -> ()");
  }

  /// Allocations made by the match phase of \p Matchers over \p Payload;
  /// \p NumInvocations receives the matcher invocations it made.
  size_t allocationsOfMatchPhase(Operation *Payload, Operation *Script,
                                 const std::vector<std::string> &Matchers,
                                 int64_t &NumInvocations) {
    TransformInterpreter Interp(Payload, Script);
    MatcherEngine Engine(Interp, Script, "test");
    for (const std::string &Matcher : Matchers)
      EXPECT_TRUE(
          Engine.addPair(StringAttr::get(Ctx, Matcher), Attribute())
              .succeeded());
    telemetry::Counter &Invocations =
        telemetry::counter("interp.matcher_invocations");
    std::vector<MatcherEngine::Match> Matches;
    int64_t Before = Invocations.get();
    NumAllocations = 0;
    CountAllocations = true;
    DiagnosedSilenceableFailure Result =
        Engine.match({Payload}, /*RestrictRoot=*/false, Matches);
    CountAllocations = false;
    NumInvocations = Invocations.get() - Before;
    EXPECT_TRUE(Result.succeeded());
    EXPECT_TRUE(Matches.empty());
    return NumAllocations;
  }

  Context Ctx;
};

TEST_F(MatcherAllocationTest, FailingInvocationsDoNotAllocate) {
  // No matcher starts with match.operation_name on its argument, so no
  // prefilter applies: every op enters every matcher. Each predicate fails
  // on most candidates, and the passing ones rebind their results.
  OwningOpRef Script = parseSourceString(Ctx, R"(
    "builtin.module"() ({
      "transform.named_sequence"() ({
      ^bb0(%op: !transform.any_op):
        %0 = "transform.match.operands"(%op) {min = 0 : index}
          : (!transform.any_op) -> (!transform.any_op)
        %1 = "transform.match.operation_name"(%0)
          {op_names = ["scf.if", "tosa.*"]}
          : (!transform.any_op) -> (!transform.any_op)
        "transform.yield"() : () -> ()
      }) {sym_name = "by_name"} : () -> ()
      "transform.named_sequence"() ({
      ^bb0(%op: !transform.any_op):
        %0 = "transform.match.operands"(%op) {count = 3 : index}
          : (!transform.any_op) -> (!transform.any_op)
        %1 = "transform.match.structured.rank"(%0) {rank = 5 : index}
          : (!transform.any_op) -> (!transform.any_op)
        "transform.yield"() : () -> ()
      }) {sym_name = "by_rank"} : () -> ()
      "transform.named_sequence"() ({
      ^bb0(%op: !transform.any_op):
        %0 = "transform.match.attr"(%op) {name = "no_such_attr"}
          : (!transform.any_op) -> (!transform.any_op)
        "transform.yield"() : () -> ()
      }) {sym_name = "by_attr"} : () -> ()
    }) : () -> ()
  )");
  ASSERT_TRUE(Script);
  OwningOpRef Payload = makePayload(8);
  std::vector<std::string> Once = {"by_name", "by_rank", "by_attr"};
  std::vector<std::string> TenTimes;
  for (int I = 0; I < 10; ++I)
    TenTimes.insert(TenTimes.end(), Once.begin(), Once.end());
  int64_t OnceInvocations = 0, TenTimesInvocations = 0;
  // The first walk creates the engine's metrics; measure afterwards.
  (void)allocationsOfMatchPhase(Payload.get(), Script.get(), Once,
                                OnceInvocations);
  size_t OnceAllocations = allocationsOfMatchPhase(
      Payload.get(), Script.get(), Once, OnceInvocations);
  size_t TenTimesAllocations = allocationsOfMatchPhase(
      Payload.get(), Script.get(), TenTimes, TenTimesInvocations);
  // The module and 8 functions of 9 ops each, every op offered to all.
  EXPECT_EQ(OnceInvocations, (1 + 8 * 9) * 3);
  EXPECT_EQ(TenTimesInvocations, 10 * OnceInvocations);
  EXPECT_EQ(TenTimesAllocations, OnceAllocations);
}

} // namespace
