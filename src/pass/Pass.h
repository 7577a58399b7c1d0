//===- Pass.h - Pass infrastructure ------------------------------*- C++ -*-===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Passes, the nested pass manager, the global pass registry, and the
/// textual pipeline parser (`builtin.module(func.func(a,b),c)`), mirroring
/// the MLIR pass system the paper's Case Study 1 compares against.
///
//===----------------------------------------------------------------------===//

#ifndef TDL_PASS_PASS_H
#define TDL_PASS_PASS_H

#include "ir/IR.h"
#include "support/LogicalResult.h"

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace tdl {

/// A unit of IR transformation anchored on an op kind ("builtin.module",
/// "func.func", or empty = any op).
class Pass {
public:
  Pass(std::string Name, std::string AnchorOpName)
      : Name(std::move(Name)), AnchorOpName(std::move(AnchorOpName)) {}
  virtual ~Pass();

  const std::string &getName() const { return Name; }
  const std::string &getAnchorOpName() const { return AnchorOpName; }

  /// Options string as given in the pipeline (e.g. "op=arith.addf").
  void setOptions(std::string NewOptions) { Options = std::move(NewOptions); }
  const std::string &getOptions() const { return Options; }

  virtual LogicalResult run(Operation *Target) = 0;

private:
  std::string Name;
  std::string AnchorOpName;
  std::string Options;
};

/// A pass built from a callable.
class FnPass : public Pass {
public:
  using FnTy = std::function<LogicalResult(Operation *, Pass &)>;

  FnPass(std::string Name, std::string AnchorOpName, FnTy Fn)
      : Pass(std::move(Name), std::move(AnchorOpName)), Fn(std::move(Fn)) {}

  LogicalResult run(Operation *Target) override { return Fn(Target, *this); }

private:
  FnTy Fn;
};

/// Per-pass wall-clock timing collected by the pass manager.
struct PassTiming {
  std::string PassName;
  double Milliseconds = 0;
};

/// Runs a sequence of passes over a root op. Each pass is anchored: a pass
/// anchored on "func.func" runs once per function nested in the root.
class PassManager {
public:
  explicit PassManager(Context &Ctx) : Ctx(Ctx) {}

  /// Appends a pass; it anchors on whatever its AnchorOpName says.
  void addPass(std::unique_ptr<Pass> P) { Passes.push_back(std::move(P)); }

  /// Appends a registered pass by name; returns failure for unknown names.
  LogicalResult addPass(std::string_view Name, std::string_view Options = "");

  LogicalResult run(Operation *Root);

  void enableTiming(bool Enable = true) { TimingEnabled = Enable; }
  const std::vector<PassTiming> &getTimings() const { return Timings; }
  double getTotalMilliseconds() const;

  size_t size() const { return Passes.size(); }
  const Pass &getPass(size_t Idx) const { return *Passes[Idx]; }

private:
  Context &Ctx;
  std::vector<std::unique_ptr<Pass>> Passes;
  bool TimingEnabled = false;
  std::vector<PassTiming> Timings;
};

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

/// Global registration record for a pass.
struct PassRegistration {
  std::string Name;
  std::string Description;
  std::string AnchorOpName;
  std::function<std::unique_ptr<Pass>()> Factory;
};

/// Process-wide pass registry (function-local singleton; no global ctors).
class PassRegistry {
public:
  static PassRegistry &instance();

  void registerPass(std::string Name, std::string Description,
                    std::string AnchorOpName,
                    std::function<std::unique_ptr<Pass>()> Factory);

  /// Convenience: registers a function-backed pass.
  void registerFnPass(std::string Name, std::string Description,
                      std::string AnchorOpName, FnPass::FnTy Fn);

  const PassRegistration *lookup(std::string_view Name) const;
  std::vector<std::string> getRegisteredNames() const;

private:
  std::map<std::string, PassRegistration, std::less<>> Registrations;
};

//===----------------------------------------------------------------------===//
// Pipeline parsing
//===----------------------------------------------------------------------===//

/// One element of a parsed pipeline: a pass name, the anchor under which it
/// runs, and its option string.
struct PipelineElement {
  std::string PassName;
  std::string Anchor; // "" = run on the pipeline root
  std::string Options;
};

/// Parses `builtin.module(func.func(tosa-to-linalg),canonicalize)` style
/// pipelines into a flat element list. Returns failure on syntax errors or
/// unknown passes.
FailureOr<std::vector<PipelineElement>>
parsePassPipeline(Context &Ctx, std::string_view Pipeline);

/// Builds a PassManager from parsed pipeline elements.
LogicalResult buildPassManager(PassManager &PM,
                               const std::vector<PipelineElement> &Elements);

/// The op name \p P runs on: \p PipelineAnchor when the pipeline nests the
/// pass under one, else the pass's registered anchor. The pass manager and
/// `transform.apply_registered_pass` both resolve anchors here, so the two
/// arms of a pipeline-as-script run (Case Study 1) cannot drift apart.
std::string_view resolvePassAnchor(const Pass &P,
                                   std::string_view PipelineAnchor);

/// The ops a pass anchored on \p Anchor runs on under \p Root: \p Root
/// itself when \p Anchor is empty or names it, else every nested op named
/// \p Anchor. Collected before any run, since passes may mutate the IR.
std::vector<Operation *> collectAnchorTargets(Operation *Root,
                                              std::string_view Anchor);

} // namespace tdl

#endif // TDL_PASS_PASS_H
