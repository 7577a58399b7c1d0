//===- TransformLibraryTest.cpp - Transform library subsystem tests -------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the transform library subsystem (core/TransformLibrary.h): a
/// script importing a matcher from a separate library file behaves exactly
/// like the same script with the matcher pasted inline (byte-identical
/// output), libraries are parsed/type-checked exactly
/// once across repeated interpretations (load-count probe), and each
/// failure mode — missing file, duplicate public symbol, private-symbol
/// import, cross-file import cycle — produces its precise diagnostic.
///
//===----------------------------------------------------------------------===//

#include "core/TransformLibrary.h"

#include "core/Analysis.h"
#include "core/Transform.h"
#include "dialect/Dialects.h"
#include "ir/Parser.h"
#include "ir/SymbolTable.h"
#include "support/STLExtras.h"
#include "support/Stream.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <unistd.h>

using namespace tdl;

namespace {

class TransformLibraryTest : public ::testing::Test {
protected:
  TransformLibraryTest() {
    registerAllDialects(Ctx);
    registerTransformDialect(Ctx);
    char Template[] = "/tmp/tdl_library_test_XXXXXX";
    char *Dir = mkdtemp(Template);
    if (Dir)
      TempDir = Dir;
  }

  ~TransformLibraryTest() override {
    for (const std::string &Path : WrittenFiles)
      std::remove(Path.c_str());
    if (!TempDir.empty())
      ::rmdir(TempDir.c_str());
  }

  /// Writes \p Content to <tempdir>/<name> and returns the full path.
  std::string writeFile(std::string_view Name, std::string_view Content) {
    std::string Path = TempDir + "/" + std::string(Name);
    std::ofstream Stream(Path, std::ios::trunc);
    Stream << Content;
    Stream.close();
    if (!is_contained(WrittenFiles, Path))
      WrittenFiles.push_back(Path);
    return Path;
  }

  OwningOpRef makePayload(int NumFuncs = 3) {
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

  OwningOpRef makeScriptModule(std::string_view Body) {
    return parseSourceString(Ctx,
                             R"("builtin.module"() ({)" + std::string(Body) +
                                 R"(}) : () -> ()
    )",
                             "script");
  }

  std::string printed(Operation *Root) {
    std::string Text;
    raw_string_ostream Stream(Text);
    Root->print(Stream);
    return Text;
  }

  int64_t countAttr(Operation *Root, std::string_view Name) {
    int64_t Count = 0;
    Root->walk([&](Operation *Op) { Count += Op->hasAttr(Name); });
    return Count;
  }

  Context Ctx;
  std::string TempDir;
  std::vector<std::string> WrittenFiles;
};

//===----------------------------------------------------------------------===//
// Shared fixtures
//===----------------------------------------------------------------------===//

/// A library exporting a loop matcher (public) next to a private helper.
static const char *const MathLibText = R"("builtin.module"() ({
  "transform.library"() ({
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      %0 = "transform.match.operation_name"(%op) {op_names = ["scf.for"]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "is_loop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      %0 = "transform.match.operation_name"(%op) {op_names = ["memref.load"]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "helper", visibility = "private"} : () -> ()
  }) {sym_name = "mathlib"} : () -> ()
}) : () -> ()
)";

/// The inline twin of `is_loop`, for the byte-identical comparison.
static const char *const InlineIsLoop = R"(
  "transform.named_sequence"() ({
  ^bb0(%op: !transform.any_op):
    %0 = "transform.match.operation_name"(%op) {op_names = ["scf.for"]}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.yield"() : () -> ()
  }) {sym_name = "is_loop"} : () -> ()
)";

/// The script body shared by the imported and inline variants: a
/// foreach_match dispatching `is_loop` to a marking action.
static const char *const MarkLoopsBody = R"(
  "transform.named_sequence"() ({
  ^bb0(%loop: !transform.any_op):
    "transform.annotate"(%loop) {name = "marked_loop"}
      : (!transform.any_op) -> ()
    "transform.yield"() : () -> ()
  }) {sym_name = "mark_loop"} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%root: !transform.any_op):
    %u = "transform.foreach_match"(%root)
      {matchers = [@is_loop], actions = [@mark_loop]}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.yield"() : () -> ()
  }) {sym_name = "__transform_main"} : () -> ()
)";

static const char *const ImportIsLoop =
    R"("transform.import"() {from = @mathlib, symbol = @is_loop} : () -> ()
)";

//===----------------------------------------------------------------------===//
// Acceptance: imported == inline, parsed once
//===----------------------------------------------------------------------===//

TEST_F(TransformLibraryTest, ImportedMatcherIsByteIdenticalToInline) {
  // The same script once with the matcher pasted inline and once importing
  // it from a library file must produce byte-identical payload output.
  std::string LibPath = writeFile("mathlib.mlir", MathLibText);

  OwningOpRef InlineScript =
      makeScriptModule(std::string(InlineIsLoop) + MarkLoopsBody);
  ASSERT_TRUE(InlineScript);
  OwningOpRef ImportScript =
      makeScriptModule(std::string(ImportIsLoop) + MarkLoopsBody);
  ASSERT_TRUE(ImportScript);

  TransformLibraryManager Manager(Ctx);
  ASSERT_TRUE(succeeded(Manager.loadLibraryFile(LibPath)));
  ASSERT_TRUE(succeeded(Manager.link(ImportScript.get())));

  OwningOpRef InlinePayload = makePayload(6);
  ASSERT_TRUE(
      succeeded(applyTransforms(InlinePayload.get(), InlineScript.get())));
  EXPECT_EQ(countAttr(InlinePayload.get(), "marked_loop"), 6);

  OwningOpRef ImportPayload = makePayload(6);
  ASSERT_TRUE(
      succeeded(applyTransforms(ImportPayload.get(), ImportScript.get())));
  EXPECT_EQ(printed(ImportPayload.get()), printed(InlinePayload.get()));
}

TEST_F(TransformLibraryTest, LibraryIsParsedExactlyOnceAcrossRuns) {
  // Repeated loads of the same (unchanged) file are cache hits, and
  // repeated interpretations resolve into the one cached module: the
  // parse/type-check work happens exactly once.
  std::string LibPath = writeFile("mathlib.mlir", MathLibText);
  OwningOpRef Script =
      makeScriptModule(std::string(ImportIsLoop) + MarkLoopsBody);
  ASSERT_TRUE(Script);

  TransformLibraryManager Manager(Ctx);
  for (int I = 0; I < 3; ++I)
    ASSERT_TRUE(succeeded(Manager.loadLibraryFile(LibPath)));
  ASSERT_TRUE(succeeded(Manager.link(Script.get())));

  for (int Run = 0; Run < 3; ++Run) {
    OwningOpRef Payload = makePayload();
    ASSERT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
    EXPECT_EQ(countAttr(Payload.get(), "marked_loop"), 3);
  }
  EXPECT_EQ(Manager.getNumLoadRequests(), 3);
  EXPECT_EQ(Manager.getNumParses(), 1);
}

TEST_F(TransformLibraryTest, ContentChangeBehindSamePathReparses) {
  // The cache key is canonical path + content hash: rewriting the file
  // invalidates the entry and the fresh definitions win.
  std::string LibPath = writeFile("mathlib.mlir", MathLibText);
  TransformLibraryManager Manager(Ctx);
  ASSERT_TRUE(succeeded(Manager.loadLibraryFile(LibPath)));
  EXPECT_EQ(Manager.getNumParses(), 1);

  std::string Changed(MathLibText);
  size_t Pos = Changed.find("\"is_loop\"");
  ASSERT_NE(Pos, std::string::npos);
  Changed.replace(Pos, 9, "\"is_for2\"");
  writeFile("mathlib.mlir", Changed);
  ASSERT_TRUE(succeeded(Manager.loadLibraryFile(LibPath)));
  EXPECT_EQ(Manager.getNumParses(), 2);

  Operation *Lib = Manager.lookupLibrary("mathlib");
  ASSERT_NE(Lib, nullptr);
  EXPECT_NE(lookupSymbol(Lib, "is_for2"), nullptr);
  EXPECT_EQ(lookupSymbol(Lib, "is_loop"), nullptr);
}

TEST_F(TransformLibraryTest, ImportAllLinksEveryPublicSymbol) {
  // The import-all form (`symbol` omitted) links every public symbol; the
  // script resolves @is_loop without naming it in the import.
  std::string LibPath = writeFile("mathlib.mlir", MathLibText);
  OwningOpRef Script = makeScriptModule(
      R"("transform.import"() {from = @mathlib} : () -> ()
)" + std::string(MarkLoopsBody));
  ASSERT_TRUE(Script);

  TransformLibraryManager Manager(Ctx);
  ASSERT_TRUE(succeeded(Manager.loadLibraryFile(LibPath)));
  ASSERT_TRUE(succeeded(Manager.link(Script.get())));
  OwningOpRef Payload = makePayload();
  ASSERT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  EXPECT_EQ(countAttr(Payload.get(), "marked_loop"), 3);
}

TEST_F(TransformLibraryTest, ScriptLocalDefinitionShadowsImport) {
  // Resolution order is script > imports: a local @is_loop (matching loads
  // instead of loops) wins over the imported one.
  std::string LibPath = writeFile("mathlib.mlir", MathLibText);
  static const char *const LocalIsLoop = R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      %0 = "transform.match.operation_name"(%op) {op_names = ["memref.load"]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "is_loop"} : () -> ()
  )";
  OwningOpRef Script = makeScriptModule(
      std::string(ImportIsLoop) + LocalIsLoop + MarkLoopsBody);
  ASSERT_TRUE(Script);

  TransformLibraryManager Manager(Ctx);
  ASSERT_TRUE(succeeded(Manager.loadLibraryFile(LibPath)));
  ASSERT_TRUE(succeeded(Manager.link(Script.get())));
  OwningOpRef Payload = makePayload();
  ASSERT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  // The local matcher matched loads, not loops.
  int64_t MarkedLoads = 0, MarkedLoops = 0;
  Payload->walk([&](Operation *Op) {
    if (!Op->hasAttr("marked_loop"))
      return;
    MarkedLoads += Op->getName() == "memref.load";
    MarkedLoops += Op->getName() == "scf.for";
  });
  EXPECT_EQ(MarkedLoads, 3);
  EXPECT_EQ(MarkedLoops, 0);
}

//===----------------------------------------------------------------------===//
// Failure modes
//===----------------------------------------------------------------------===//

TEST_F(TransformLibraryTest, MissingLibraryFileIsDiagnosed) {
  TransformLibraryManager Manager(Ctx);
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(Manager.loadLibraryFile(TempDir + "/nope.mlir")));
  EXPECT_TRUE(Capture.contains("cannot find library file"));
}

TEST_F(TransformLibraryTest, ImportOfPrivateSymbolIsDiagnosed) {
  std::string LibPath = writeFile("mathlib.mlir", MathLibText);
  OwningOpRef Script = makeScriptModule(
      R"("transform.import"() {from = @mathlib, symbol = @helper} : () -> ()
)" + std::string(MarkLoopsBody));
  ASSERT_TRUE(Script);
  TransformLibraryManager Manager(Ctx);
  ASSERT_TRUE(succeeded(Manager.loadLibraryFile(LibPath)));
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(Manager.link(Script.get())));
  EXPECT_TRUE(Capture.contains(
      "symbol '@helper' in library '@mathlib' is private and cannot be "
      "imported"));
}

TEST_F(TransformLibraryTest, DuplicatePublicSymbolAcrossLibrariesIsDiagnosed) {
  // Two libraries exporting the same public name, both imported wholesale:
  // the ambiguity is a link error naming both libraries.
  static const char *const LibFmt = R"("builtin.module"() ({
  "transform.library"() ({
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      "transform.yield"() : () -> ()
    }) {sym_name = "is_thing"} : () -> ()
  }) {sym_name = "LIBNAME"} : () -> ()
}) : () -> ()
)";
  std::string TextA(LibFmt), TextB(LibFmt);
  TextA.replace(TextA.find("LIBNAME"), 7, "dup_a");
  TextB.replace(TextB.find("LIBNAME"), 7, "dup_b");
  std::string PathA = writeFile("dup_a.mlir", TextA);
  std::string PathB = writeFile("dup_b.mlir", TextB);

  OwningOpRef Script = makeScriptModule(
      R"("transform.import"() {from = @dup_a} : () -> ()
         "transform.import"() {from = @dup_b} : () -> ()
)" + std::string(MarkLoopsBody));
  ASSERT_TRUE(Script);

  TransformLibraryManager Manager(Ctx);
  ASSERT_TRUE(succeeded(Manager.loadLibraryFile(PathA)));
  ASSERT_TRUE(succeeded(Manager.loadLibraryFile(PathB)));
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(Manager.link(Script.get())));
  EXPECT_TRUE(Capture.contains("duplicate public symbol '@is_thing' imported "
                               "from library '@dup_a' and library '@dup_b'"));
}

TEST_F(TransformLibraryTest, CrossFileImportCycleIsDiagnosed) {
  static const char *const CycleFmt = R"("builtin.module"() ({
  "transform.library"() ({
    "transform.import"() {from = @OTHER, file = "OTHERFILE"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      "transform.yield"() : () -> ()
    }) {sym_name = "SEQNAME"} : () -> ()
  }) {sym_name = "SELF"} : () -> ()
}) : () -> ()
)";
  auto Instantiate = [&](std::string Self, std::string Other,
                         std::string OtherFile, std::string Seq) {
    std::string Text(CycleFmt);
    Text.replace(Text.find("OTHER"), 5, Other);
    Text.replace(Text.find("OTHERFILE"), 9, OtherFile);
    Text.replace(Text.find("SEQNAME"), 7, Seq);
    Text.replace(Text.find("SELF"), 4, Self);
    return Text;
  };
  writeFile("cyc_a.mlir",
            Instantiate("cyc_a", "cyc_b", "cyc_b.mlir", "a_seq"));
  writeFile("cyc_b.mlir",
            Instantiate("cyc_b", "cyc_a", "cyc_a.mlir", "b_seq"));

  TransformLibraryManager Manager(Ctx);
  Manager.addSearchDir(TempDir);
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(Manager.loadLibraryFile("cyc_a.mlir")));
  EXPECT_TRUE(Capture.contains("import cycle between library files"));
}

TEST_F(TransformLibraryTest, UnknownLibraryAndSymbolAreDiagnosed) {
  std::string LibPath = writeFile("mathlib.mlir", MathLibText);
  TransformLibraryManager Manager(Ctx);
  ASSERT_TRUE(succeeded(Manager.loadLibraryFile(LibPath)));

  OwningOpRef NoLib = makeScriptModule(
      R"("transform.import"() {from = @ghost} : () -> ()
)" + std::string(MarkLoopsBody));
  {
    ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
    EXPECT_TRUE(failed(Manager.link(NoLib.get())));
    EXPECT_TRUE(Capture.contains("unknown library '@ghost'"));
  }
  OwningOpRef NoSym = makeScriptModule(
      R"("transform.import"() {from = @mathlib, symbol = @ghost} : () -> ()
)" + std::string(MarkLoopsBody));
  {
    ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
    EXPECT_TRUE(failed(Manager.link(NoSym.get())));
    EXPECT_TRUE(Capture.contains("library '@mathlib' has no symbol '@ghost'"));
  }
}

TEST_F(TransformLibraryTest, IllTypedLibraryIsRejectedAtLoad) {
  // analyzeHandleTypes runs on the library eagerly at load: an impossible
  // cast inside a library sequence is rejected before any script links it.
  static const char *const IllTyped = R"("builtin.module"() ({
  "transform.library"() ({
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.op<"scf.for">):
      %0 = "transform.cast"(%op)
        : (!transform.op<"scf.for">) -> (!transform.op<"memref.load">)
      "transform.yield"() : () -> ()
    }) {sym_name = "broken"} : () -> ()
  }) {sym_name = "badlib"} : () -> ()
}) : () -> ()
)";
  std::string LibPath = writeFile("badlib.mlir", IllTyped);
  TransformLibraryManager Manager(Ctx);
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(Manager.loadLibraryFile(LibPath)));
  EXPECT_TRUE(Capture.contains("ill-typed transform library"));
}

TEST_F(TransformLibraryTest, EmptyLibraryLoadsLinksAndDumps) {
  // The verifier allows a member-less library (its region has no blocks);
  // loading, linking against it, and dumping must not touch a non-existent
  // member block.
  static const char *const EmptyLib = R"("builtin.module"() ({
  "transform.library"() ({}) {sym_name = "empty_lib"} : () -> ()
}) : () -> ()
)";
  std::string LibPath = writeFile("empty_lib.mlir", EmptyLib);
  OwningOpRef Script = makeScriptModule(
      R"("transform.import"() {from = @empty_lib} : () -> ()
)" + std::string(InlineIsLoop) + MarkLoopsBody);
  ASSERT_TRUE(Script);

  TransformLibraryManager Manager(Ctx);
  ASSERT_TRUE(succeeded(Manager.loadLibraryFile(LibPath)));
  ASSERT_TRUE(succeeded(Manager.link(Script.get())));
  std::string Dump;
  raw_string_ostream Stream(Dump);
  Manager.dumpSymbols(Stream);
  EXPECT_NE(Dump.find("library '@empty_lib'"), std::string::npos);
  OwningOpRef Payload = makePayload();
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
}

TEST_F(TransformLibraryTest, FailedLoadIsNotCachedAsSuccess) {
  // A load that fails registerAndCheck must not leave a cache entry behind:
  // the next request re-parses (and fails again, with the library neither
  // registered nor resolvable in between).
  static const char *const IllTyped = R"("builtin.module"() ({
  "transform.library"() ({
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.op<"scf.for">):
      %0 = "transform.cast"(%op)
        : (!transform.op<"scf.for">) -> (!transform.op<"memref.load">)
      "transform.yield"() : () -> ()
    }) {sym_name = "broken"} : () -> ()
  }) {sym_name = "badlib"} : () -> ()
}) : () -> ()
)";
  std::string LibPath = writeFile("badlib.mlir", IllTyped);
  TransformLibraryManager Manager(Ctx);
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(Manager.loadLibraryFile(LibPath)));
  EXPECT_EQ(Manager.lookupLibrary("badlib"), nullptr);
  EXPECT_TRUE(failed(Manager.loadLibraryFile(LibPath)));
  EXPECT_EQ(Manager.getNumParses(), 2);
  EXPECT_EQ(Manager.lookupLibrary("badlib"), nullptr);
}

TEST_F(TransformLibraryTest, WrongKindFileAttrIsStaticallyRejected) {
  // A symbol-ref 'file' would be silently ignored by the lazy load; the
  // pre-interpretation type analysis flags it instead.
  OwningOpRef Script = makeScriptModule(
      R"("transform.import"() {from = @mathlib, file = @mathlib} : () -> ()
)" + std::string(MarkLoopsBody));
  ASSERT_TRUE(Script);
  std::vector<TypeCheckIssue> Issues = analyzeHandleTypes(Script.get());
  ASSERT_EQ(Issues.size(), 1u);
  EXPECT_NE(Issues[0].Message.find("'file' must be a string path"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Introspection
//===----------------------------------------------------------------------===//

TEST_F(TransformLibraryTest, DumpSymbolsListsPublicSignaturesOnly) {
  std::string LibPath = writeFile("mathlib.mlir", MathLibText);
  TransformLibraryManager Manager(Ctx);
  ASSERT_TRUE(succeeded(Manager.loadLibraryFile(LibPath)));

  std::string Dump;
  raw_string_ostream Stream(Dump);
  Manager.dumpSymbols(Stream);
  EXPECT_NE(Dump.find("library '@mathlib'"), std::string::npos);
  EXPECT_NE(Dump.find("@is_loop : (!transform.any_op) -> ()"),
            std::string::npos);
  // Private symbols are not exported and must not appear.
  EXPECT_EQ(Dump.find("@helper"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// transform.to_library regression (see the comment at its registration)
//===----------------------------------------------------------------------===//

TEST_F(TransformLibraryTest, ToLibraryIsMicrokernelSubstitutionUnchanged) {
  // `transform.to_library` is microkernel substitution, not part of the
  // script-library subsystem: it neither defines a loadable library nor
  // resolves through the linked scope, and its semantics are unchanged —
  // a payload without a matching loop nest still fails silenceably with
  // the same message.
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %funcs = "transform.match.op"(%root) {op_name = "func.func"}
        : (!transform.any_op) -> (!transform.any_op)
      %calls = "transform.to_library"(%funcs) {library = "libxsmm"}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Script);
  // func.func payload ops are not scf.for loop nests: no kernel matches.
  OwningOpRef Payload = makePayload(1);
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(Capture.contains(
      "no payload loop nest matches a kernel available in 'libxsmm'"));
  // And the subsystem knows nothing called "to_library": the name clash is
  // historical only.
  TransformLibraryManager Manager(Ctx);
  EXPECT_EQ(Manager.lookupLibrary("to_library"), nullptr);
  EXPECT_EQ(Manager.getNumLibraries(), 0u);
}

} // namespace
