//===- transform_library_demo.cpp - Script + library as two files ---------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transform library subsystem end to end, as two files on disk: a
/// library file exporting a public loop matcher (next to a private helper),
/// and a script that imports the matcher and dispatches it through
/// `transform.foreach_match`. The TransformLibraryManager parses, verifies,
/// and type-checks the library exactly once; three interpretations all
/// resolve into the one cached module. This is also the
/// two-file pair CI runs under ASan, so the manager's ownership of the
/// long-lived library modules is sanitizer-covered.
///
/// Build & run:  cmake --build build && ./build/example_transform_library_demo
///
//===----------------------------------------------------------------------===//

#include "core/Transform.h"
#include "core/TransformLibrary.h"
#include "dialect/Dialects.h"
#include "ir/Parser.h"
#include "support/Stream.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <unistd.h>

using namespace tdl;

static const char *const LibraryText = R"("builtin.module"() ({
  "transform.library"() ({
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.op<"scf.for">):
      "transform.yield"(%op) : (!transform.op<"scf.for">) -> ()
    }) {sym_name = "is_loop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      %0 = "transform.match.operation_name"(%op) {op_names = ["memref.load"]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "helper", visibility = "private"} : () -> ()
  }) {sym_name = "demo_lib"} : () -> ()
}) : () -> ()
)";

static const char *const ScriptText = R"("builtin.module"() ({
  "transform.import"() {from = @demo_lib, symbol = @is_loop} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%loop: !transform.op<"scf.for">):
    "transform.annotate"(%loop) {name = "from_library"}
      : (!transform.op<"scf.for">) -> ()
    "transform.yield"() : () -> ()
  }) {sym_name = "mark_loop"} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%root: !transform.any_op):
    %u = "transform.foreach_match"(%root)
      {matchers = [@is_loop], actions = [@mark_loop]}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.yield"() : () -> ()
  }) {sym_name = "__transform_main"} : () -> ()
}) : () -> ()
)";

static const char *const PayloadText = R"("builtin.module"() ({
  "func.func"() ({
  ^bb0(%m: memref<4x4xf64>):
    %lb = "arith.constant"() {value = 0 : index} : () -> (index)
    %ub = "arith.constant"() {value = 4 : index} : () -> (index)
    %one = "arith.constant"() {value = 1 : index} : () -> (index)
    "scf.for"(%lb, %ub, %one) ({
    ^body(%i: index):
      %v = "memref.load"(%m, %i, %lb) : (memref<4x4xf64>, index, index) -> (f64)
      "memref.store"(%v, %m, %i, %lb) : (f64, memref<4x4xf64>, index, index) -> ()
      "scf.yield"() : () -> ()
    }) : (index, index, index) -> ()
    "func.return"() : () -> ()
  }) {sym_name = "copy_col",
      function_type = (memref<4x4xf64>) -> ()} : () -> ()
}) : () -> ()
)";

int main() {
  Context Ctx;
  registerAllDialects(Ctx);
  registerTransformDialect(Ctx);

  // The library lives on disk: that is the point of the subsystem (and
  // what the ASan job exercises — file-backed modules owned by the
  // manager, outliving every interpretation).
  std::string LibPath =
      "/tmp/tdl_library_demo_" + std::to_string(::getpid()) + ".mlir";
  {
    std::ofstream Stream(LibPath, std::ios::trunc);
    Stream << LibraryText;
  }

  OwningOpRef Script = parseSourceString(Ctx, ScriptText, "script");
  if (!Script) {
    errs() << "script parse error\n";
    return 1;
  }

  TransformLibraryManager Manager(Ctx);
  if (failed(Manager.loadLibraryFile(LibPath)) ||
      failed(Manager.link(Script.get()))) {
    errs() << "library load/link failed\n";
    std::remove(LibPath.c_str());
    return 1;
  }

  outs() << "Loaded libraries:\n";
  Manager.dumpSymbols(outs());

  // Three interpretations: all resolve @is_loop into the one cached library
  // module.
  for (int Run = 1; Run <= 3; ++Run) {
    OwningOpRef Payload = parseSourceString(Ctx, PayloadText, "payload");
    if (!Payload) {
      errs() << "payload parse error\n";
      std::remove(LibPath.c_str());
      return 1;
    }
    if (failed(applyTransforms(Payload.get(), Script.get()))) {
      errs() << "transform script failed\n";
      std::remove(LibPath.c_str());
      return 1;
    }
    int64_t Marked = 0;
    Payload->walk(
        [&](Operation *Op) { Marked += Op->hasAttr("from_library"); });
    outs() << "run " << Run << ": marked " << Marked
           << " loops via the imported matcher\n";
  }
  outs() << "library parses: " << Manager.getNumParses() << " ("
         << Manager.getNumLoadRequests() << " load requests)\n";

  std::remove(LibPath.c_str());
  return 0;
}
