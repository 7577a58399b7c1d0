//===- Pass.cpp - Pass infrastructure --------------------------------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "pass/Pass.h"

#include <cctype>

using namespace tdl;

Pass::~Pass() = default;

//===----------------------------------------------------------------------===//
// PassManager
//===----------------------------------------------------------------------===//

LogicalResult PassManager::addPass(std::string_view Name,
                                   std::string_view Options) {
  const PassRegistration *Reg = PassRegistry::instance().lookup(Name);
  if (!Reg)
    return Ctx.emitError(Location::unknown())
           << "unknown pass '" << Name << "'";
  std::unique_ptr<Pass> P = Reg->Factory();
  P->setOptions(std::string(Options));
  Passes.push_back(std::move(P));
  return success();
}

LogicalResult PassManager::run(Operation *Root) {
  Timings.clear();
  for (auto &P : Passes) {
    auto Start = std::chrono::steady_clock::now();

    for (Operation *Target : collectAnchorTargets(Root, P->getAnchorOpName()))
      if (failed(P->run(Target)))
        return Target->emitError()
               << "pass '" << P->getName() << "' failed";

    if (TimingEnabled) {
      auto End = std::chrono::steady_clock::now();
      double Ms = std::chrono::duration<double, std::milli>(End - Start).count();
      Timings.push_back({P->getName(), Ms});
    }
  }
  return success();
}

double PassManager::getTotalMilliseconds() const {
  double Total = 0;
  for (const PassTiming &Timing : Timings)
    Total += Timing.Milliseconds;
  return Total;
}

//===----------------------------------------------------------------------===//
// PassRegistry
//===----------------------------------------------------------------------===//

PassRegistry &PassRegistry::instance() {
  static PassRegistry Registry;
  return Registry;
}

void PassRegistry::registerPass(
    std::string Name, std::string Description, std::string AnchorOpName,
    std::function<std::unique_ptr<Pass>()> Factory) {
  PassRegistration Reg;
  Reg.Name = Name;
  Reg.Description = std::move(Description);
  Reg.AnchorOpName = std::move(AnchorOpName);
  Reg.Factory = std::move(Factory);
  Registrations[Name] = std::move(Reg);
}

void PassRegistry::registerFnPass(std::string Name, std::string Description,
                                  std::string AnchorOpName, FnPass::FnTy Fn) {
  std::string NameCopy = Name;
  std::string AnchorCopy = AnchorOpName;
  registerPass(std::move(Name), std::move(Description),
               std::move(AnchorOpName),
               [NameCopy, AnchorCopy, Fn = std::move(Fn)]() {
                 return std::make_unique<FnPass>(NameCopy, AnchorCopy, Fn);
               });
}

const PassRegistration *PassRegistry::lookup(std::string_view Name) const {
  auto It = Registrations.find(Name);
  return It == Registrations.end() ? nullptr : &It->second;
}

std::vector<std::string> PassRegistry::getRegisteredNames() const {
  std::vector<std::string> Names;
  for (const auto &[Name, Reg] : Registrations)
    Names.push_back(Name);
  return Names;
}

//===----------------------------------------------------------------------===//
// Pipeline parsing
//===----------------------------------------------------------------------===//

namespace {

/// Pipeline grammar:
///   pipeline := entry (',' entry)*
///   entry    := name ('{' options '}')? | anchor '(' pipeline ')'
/// where an entry with parens sets the anchor for the nested entries.
class PipelineParser {
public:
  PipelineParser(Context &Ctx, std::string_view Text) : Ctx(Ctx), Text(Text) {}

  FailureOr<std::vector<PipelineElement>> parse() {
    std::vector<PipelineElement> Elements;
    if (failed(parseList("", Elements)))
      return failure();
    skipWs();
    if (Pos != Text.size())
      return error("trailing characters in pipeline");
    return Elements;
  }

private:
  LogicalResult parseList(const std::string &Anchor,
                          std::vector<PipelineElement> &Out) {
    while (true) {
      skipWs();
      std::string Name = parseName();
      if (Name.empty())
        return error("expected pass or anchor name");
      skipWs();
      if (Pos < Text.size() && Text[Pos] == '(') {
        // Anchor scope: name must be an op name (contains '.').
        ++Pos;
        std::string NestedAnchor = Name == "builtin.module" ? "" : Name;
        if (failed(parseList(NestedAnchor, Out)))
          return failure();
        skipWs();
        if (Pos >= Text.size() || Text[Pos] != ')')
          return error("expected ')'");
        ++Pos;
      } else {
        PipelineElement Element;
        Element.PassName = Name;
        Element.Anchor = Anchor;
        if (Pos < Text.size() && Text[Pos] == '{') {
          ++Pos;
          size_t Start = Pos;
          while (Pos < Text.size() && Text[Pos] != '}')
            ++Pos;
          if (Pos >= Text.size())
            return error("unterminated pass options");
          Element.Options = std::string(Text.substr(Start, Pos - Start));
          ++Pos;
        }
        if (!PassRegistry::instance().lookup(Element.PassName))
          return error("unknown pass '" + Element.PassName + "'");
        Out.push_back(std::move(Element));
      }
      skipWs();
      if (Pos < Text.size() && Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      return success();
    }
  }

  std::string parseName() {
    std::string Name;
    while (Pos < Text.size() &&
           (std::isalnum(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '-' || Text[Pos] == '_' || Text[Pos] == '.'))
      Name += Text[Pos++];
    return Name;
  }

  void skipWs() {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  LogicalResult error(std::string_view Message) {
    return Ctx.emitError(Location::name("pipeline")) << Message;
  }

  Context &Ctx;
  std::string_view Text;
  size_t Pos = 0;
};

} // namespace

FailureOr<std::vector<PipelineElement>>
tdl::parsePassPipeline(Context &Ctx, std::string_view Pipeline) {
  PipelineParser Parser(Ctx, Pipeline);
  return Parser.parse();
}

LogicalResult
tdl::buildPassManager(PassManager &PM,
                      const std::vector<PipelineElement> &Elements) {
  for (const PipelineElement &Element : Elements) {
    const PassRegistration *Reg =
        PassRegistry::instance().lookup(Element.PassName);
    if (!Reg)
      return failure();
    std::unique_ptr<Pass> P = Reg->Factory();
    P->setOptions(Element.Options);
    std::string Anchor(resolvePassAnchor(*P, Element.Anchor));
    if (Anchor != P->getAnchorOpName()) {
      // Wrap: run the pass on each op matching the pipeline anchor.
      std::shared_ptr<Pass> Shared = std::move(P);
      P = std::make_unique<FnPass>(
          Shared->getName(), std::move(Anchor),
          [Shared](Operation *Target, Pass &) { return Shared->run(Target); });
    }
    PM.addPass(std::move(P));
  }
  return success();
}

std::string_view tdl::resolvePassAnchor(const Pass &P,
                                        std::string_view PipelineAnchor) {
  return PipelineAnchor.empty() ? std::string_view(P.getAnchorOpName())
                                : PipelineAnchor;
}

std::vector<Operation *> tdl::collectAnchorTargets(Operation *Root,
                                                   std::string_view Anchor) {
  if (Anchor.empty() || Anchor == Root->getName())
    return {Root};
  std::vector<Operation *> Targets;
  Root->walk([&](Operation *Op) {
    if (Op->getName() == Anchor)
      Targets.push_back(Op);
  });
  return Targets;
}
