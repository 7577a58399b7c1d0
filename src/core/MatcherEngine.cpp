//===- MatcherEngine.cpp - Reusable match/commit matcher engine -----------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/MatcherEngine.h"

#include "core/TransformLibrary.h"
#include "ir/SymbolTable.h"
#include "support/Telemetry.h"

#include <iterator>
#include <set>
#include <unordered_set>

using namespace tdl;

using DSF = DiagnosedSilenceableFailure;

//===----------------------------------------------------------------------===//
// Shared symbol resolution
//===----------------------------------------------------------------------===//

Operation *tdl::resolveTransformSequence(Operation *ScriptRoot,
                                         std::string_view Name) {
  if (!ScriptRoot || Name.empty())
    return nullptr;
  if (getSymbolName(ScriptRoot) == Name)
    return ScriptRoot;
  if (Operation *Local = lookupSymbolRecursive(ScriptRoot, Name))
    return Local;
  // Library tier: symbols a TransformLibraryManager linked into this script
  // root's scope (explicit imports first, then the search-path tier).
  // Script-local definitions shadow imports by construction of this order.
  return lookupLinkedLibrarySymbol(ScriptRoot, Name);
}

std::string_view tdl::transformSequenceRefName(Attribute Ref) {
  if (SymbolRefAttr Sym = Ref.dyn_cast<SymbolRefAttr>())
    return Sym.getValue();
  if (StringAttr Str = Ref.dyn_cast<StringAttr>())
    return Str.getValue();
  return {};
}

//===----------------------------------------------------------------------===//
// MatchDiag
//===----------------------------------------------------------------------===//

MatchDiag &MatchDiag::seq(std::string_view Role, Operation *SequenceOp) {
  return seq(Role, SequenceOp ? getSymbolName(SequenceOp)
                              : std::string_view());
}

MatchDiag &MatchDiag::seq(std::string_view Role, std::string_view SymbolName) {
  Message += ' ';
  Message += Role;
  Message += " '@";
  Message += SymbolName;
  Message += '\'';
  return *this;
}

MatchDiag &MatchDiag::payload(Operation *PayloadOp) {
  return PayloadOp ? payload(PayloadOp->getName()) : *this;
}

MatchDiag &MatchDiag::payload(std::string_view OpName) {
  Message += " on payload op '";
  Message += OpName;
  Message += '\'';
  return *this;
}

MatchDiag &MatchDiag::text(std::string_view Detail) {
  Message += ": ";
  Message += Detail;
  return *this;
}

//===----------------------------------------------------------------------===//
// Pair registration
//===----------------------------------------------------------------------===//

MatcherEngine::MatcherEngine(TransformInterpreter &Interp, Operation *DriverOp,
                             std::string_view DriverName)
    : Interp(Interp), DriverOp(DriverOp), DriverName(DriverName) {}

std::string MatcherEngine::describeForwardingMismatch(Type Produced,
                                                      std::string_view SlotDesc,
                                                      Type Expected) {
  bool ProducedParam = Produced.isa<TransformParamType>();
  bool ExpectedParam = Expected.isa<TransformParamType>();
  if (ProducedParam != ExpectedParam)
    return std::string(SlotDesc) + " mixes a parameter with a handle ('" +
           Produced.str() + "' into '" + Expected.str() + "')";
  if (!ProducedParam && !isImplicitHandleConversion(Produced, Expected))
    return "matcher yields '" + Produced.str() + "' but " +
           std::string(SlotDesc) + " expects '" + Expected.str() +
           "'; insert an explicit transform.cast in the matcher";
  return {};
}

MatcherEngine::~MatcherEngine() {
  TransformState &State = Interp.getState();
  for (std::unique_ptr<ValueImpl> &Pin : Pins)
    State.forget(Value(Pin.get()));
  // Action bodies were bound in the driver's state during commit; matcher
  // bodies only ever bind into scratch states, which are already gone.
  std::set<Operation *> Cleaned;
  for (Pair &P : Pairs) {
    if (!P.Action || !Cleaned.insert(P.Action).second)
      continue;
    Block &Entry = P.Action->getRegion(0).front();
    for (unsigned I = 0; I < Entry.getNumArguments(); ++I)
      State.forget(Entry.getArgument(I));
    P.Action->walk([&](Operation *BodyOp) {
      for (unsigned R = 0; R < BodyOp->getNumResults(); ++R)
        State.forget(BodyOp->getResult(R));
    });
  }
}

DSF MatcherEngine::addPair(Attribute MatcherRef, Attribute ActionRef) {
  auto Resolve = [&](Attribute Ref, std::string_view Role,
                     Operation *&SeqOut) -> DSF {
    std::string_view Name = transformSequenceRefName(Ref);
    if (Name.empty())
      return DSF::definite(MatchDiag(DriverName).text(
          "matcher/action references must be symbol or string attrs"));
    Operation *Seq = resolveTransformSequence(Interp.getScriptRoot(), Name);
    if (!Seq)
      return DSF::definite(MatchDiag(DriverName).text(
          "unknown named sequence '@" + std::string(Name) + "'"));
    if (Seq->getNumRegions() != 1 || Seq->getRegion(0).empty() ||
        Seq->getRegion(0).front().getNumArguments() < 1)
      return DSF::definite(
          MatchDiag(DriverName)
              .seq(Role, Seq)
              .text("needs a body with at least one argument"));
    SeqOut = Seq;
    return DSF::success();
  };

  Pair NewPair;
  DSF Resolved = Resolve(MatcherRef, "matcher", NewPair.Matcher);
  if (!Resolved.succeeded())
    return Resolved;
  if (ActionRef) {
    Resolved = Resolve(ActionRef, "action", NewPair.Action);
    if (!Resolved.succeeded())
      return Resolved;
  }

  // Statically reject shapes that could never match or would only fail
  // mid-walk: the walk binds exactly one matcher argument, the matcher's
  // (static) yield count must line up with the action's arguments, and the
  // declared handle types must be compatible.
  Block &MatcherBody = NewPair.Matcher->getRegion(0).front();
  if (MatcherBody.getNumArguments() != 1)
    return DSF::definite(
        MatchDiag(DriverName)
            .seq("matcher", NewPair.Matcher)
            .text("must take exactly one argument (the candidate op)"));
  Type CandidateTy = MatcherBody.getArgument(0).getType();
  if (!isTransformHandleType(CandidateTy))
    return DSF::definite(MatchDiag(DriverName)
                             .seq("matcher", NewPair.Matcher)
                             .text("must take an op handle, not '" +
                                   CandidateTy.str() + "'"));

  // An operand-less yield forwards the candidate itself.
  Operation *MatcherYield = MatcherBody.getTerminator();
  bool YieldsOperands = MatcherYield &&
                        MatcherYield->getName() == "transform.yield" &&
                        MatcherYield->getNumOperands() > 0;
  if (YieldsOperands)
    for (Value V : MatcherYield->getOperands())
      NewPair.ForwardedTypes.push_back(V.getType());
  else
    NewPair.ForwardedTypes.push_back(CandidateTy);

  if (NewPair.Action) {
    Block &ActionEntry = NewPair.Action->getRegion(0).front();
    if (ActionEntry.getNumArguments() != NewPair.ForwardedTypes.size())
      return DSF::definite(
          MatchDiag(DriverName)
              .seq("matcher", NewPair.Matcher)
              .seq("action", NewPair.Action)
              .text("action expects " +
                    std::to_string(ActionEntry.getNumArguments()) +
                    " arguments but the matcher forwards " +
                    std::to_string(NewPair.ForwardedTypes.size())));
    for (size_t S = 0; S < NewPair.ForwardedTypes.size(); ++S) {
      std::string Mismatch = describeForwardingMismatch(
          NewPair.ForwardedTypes[S], "action argument " + std::to_string(S),
          ActionEntry.getArgument(S).getType());
      if (!Mismatch.empty())
        return DSF::definite(MatchDiag(DriverName)
                                 .seq("matcher", NewPair.Matcher)
                                 .seq("action", NewPair.Action)
                                 .text(Mismatch));
    }
  }

  // A typed candidate argument admits only ops of that name: fold the
  // declared type into the dispatch prefilter.
  if (TransformOpType TypedArg = CandidateTy.dyn_cast<TransformOpType>())
    NewPair.PrefilterConjuncts.push_back(
        {OpSetElement::parse(TypedArg.getOpName())});
  if (!MatcherBody.empty()) {
    Operation *First = MatcherBody.front();
    if (First->getName() == "transform.match.operation_name" &&
        First->getNumOperands() >= 1 &&
        First->getOperand(0) == MatcherBody.getArgument(0)) {
      // Only install the prefilter for a fully well-formed name list;
      // otherwise every candidate must reach the real op so its
      // malformed-attribute error is reported payload-independently.
      std::vector<OpSetElement> Elements;
      if (succeeded(parseTransformOpNameElements(First, Elements)) &&
          !Elements.empty())
        NewPair.PrefilterConjuncts.push_back(std::move(Elements));
    }
  }

  Pairs.push_back(std::move(NewPair));
  return DSF::success();
}

//===----------------------------------------------------------------------===//
// Applicability query
//===----------------------------------------------------------------------===//

FailureOr<bool> MatcherEngine::evaluateApplicability(
    Operation *PayloadRoot, Operation *ScriptRoot,
    std::string_view MatcherName, const TransformOptions &Options,
    std::string_view DriverName) {
  // The query owns its interpreter: the match phase only ever binds into
  // scratch states, so the caller's payload and any ambient driver state
  // stay untouched no matter what the matcher does.
  TransformInterpreter Scratch(PayloadRoot, ScriptRoot, Options);
  MatcherEngine Engine(Scratch, ScriptRoot, DriverName);
  DSF Added = Engine.addPair(
      StringAttr::get(ScriptRoot->getContext(), MatcherName), Attribute());
  if (!Added.succeeded()) {
    ScriptRoot->emitError() << Added.getMessage();
    return failure();
  }
  static telemetry::Counter &ApplicabilityQueries =
      telemetry::counter("engine.applicability_queries");
  ApplicabilityQueries.add();
  std::vector<Match> Matches;
  DSF Result = Engine.match({PayloadRoot}, /*RestrictRoot=*/false, Matches);
  // The query never runs run(), so its end-of-interpretation flush is not
  // reached; drain the matcher trace here.
  Scratch.flushTraceLog();
  if (Result.isDefinite()) {
    ScriptRoot->emitError() << Result.getMessage();
    return failure();
  }
  return !Matches.empty();
}

//===----------------------------------------------------------------------===//
// Match phase
//===----------------------------------------------------------------------===//

DSF MatcherEngine::tryCandidate(TransformInterpreter &Scratch,
                                ThreadDiagnosticCapture &Capture,
                                Operation *Candidate, std::vector<Match> &Out,
                                std::vector<Diagnostic> &Replay) {
  Context &Ctx = DriverOp->getContext();
  for (size_t P = 0; P < Pairs.size(); ++P) {
    const Pair &ThePair = Pairs[P];
    bool Prefiltered = false;
    for (const std::vector<OpSetElement> &Conjunct :
         ThePair.PrefilterConjuncts) {
      bool MayMatch = false;
      for (const OpSetElement &Element : Conjunct)
        if (Element.matches(Candidate->getName(), &Ctx)) {
          MayMatch = true;
          break;
        }
      if (!MayMatch) {
        Prefiltered = true;
        break;
      }
    }
    if (Prefiltered)
      continue;

    Block &MatcherBody = ThePair.Matcher->getRegion(0).front();
    Scratch.getState().setPayload(MatcherBody.getArgument(0), {Candidate});
    static telemetry::Counter &MatcherInvocations =
        telemetry::counter("interp.matcher_invocations");
    MatcherInvocations.add();
    DSF MatchResult = DSF::success();
    {
      std::string SpanName;
      if (telemetry::spansActive())
        SpanName =
            "matcher:@" + std::string(getSymbolName(ThePair.Matcher));
      telemetry::ScopedSpan MatcherSpan(SpanName, "matcher");
      MatcherSpan.arg("payload_op", Candidate->getName());
      TransformInterpreter::MatcherScope Scope(Scratch);
      // Matcher failures are the expected "not this op" signal, so their
      // diagnostics are silenced; diagnostics of a matcher that succeeds
      // (or aborts) are kept for replay after the walk so
      // transform.debug.emit_remark stays usable inside matchers.
      Capture.clear();
      MatchResult = Scratch.executeBlock(MatcherBody);
      if (!MatchResult.isSilenceable()) {
        std::vector<Diagnostic> Diags = Capture.takeDiagnostics();
        Replay.insert(Replay.end(), std::make_move_iterator(Diags.begin()),
                      std::make_move_iterator(Diags.end()));
      }
    }
    if (MatchResult.isDefinite())
      return MatchResult;
    if (MatchResult.isSilenceable())
      continue;

    Match M;
    M.PairIdx = P;
    M.Candidate = Candidate;
    // The matcher's yield operands are forwarded to the commit phase; a
    // yield without operands forwards the candidate itself. Values are
    // recorded raw here (the phase is pure, nothing can invalidate them
    // before commit pins them).
    Operation *MatchYield = MatcherBody.getTerminator();
    std::vector<Value> Forwarded;
    if (MatchYield && MatchYield->getName() == "transform.yield")
      Forwarded = MatchYield->getOperands();
    if (Forwarded.empty()) {
      ForwardedValue FV;
      FV.Ops = {Candidate};
      M.Values.push_back(std::move(FV));
    } else {
      for (Value V : Forwarded) {
        ForwardedValue FV;
        if (Scratch.getState().isParam(V)) {
          FV.IsParam = true;
          FV.Params = Scratch.getState().getParams(V);
        } else {
          FV.Ops = Scratch.getState().getPayloadOps(V);
        }
        M.Values.push_back(std::move(FV));
      }
    }
    Out.push_back(std::move(M));
    return DSF::success();
  }
  return DSF::success();
}

DSF MatcherEngine::match(const std::vector<Operation *> &Roots,
                         bool RestrictRoot, std::vector<Match> &Out) {
  if (Roots.empty() || Pairs.empty())
    return DSF::success();

  static telemetry::DurationStat &MatchStat =
      telemetry::duration("engine.match");
  telemetry::ScopedTimer MatchTimer(MatchStat);
  telemetry::ScopedSpan MatchSpan("engine:match", "engine");
  if (MatchSpan.isActive()) {
    // Walk units: each root, plus each of its top-level children when the
    // walk recurses. The span shape predates the single walk and is kept
    // so existing traces stay comparable.
    int64_t NumUnits = 0;
    for (Operation *Root : Roots) {
      ++NumUnits;
      if (RestrictRoot)
        continue;
      for (unsigned R = 0; R < Root->getNumRegions(); ++R)
        for (Block &B : Root->getRegion(R))
          NumUnits += static_cast<int64_t>(B.size());
    }
    MatchSpan.arg("units", NumUnits);
    MatchSpan.arg("shards", int64_t(1));
  }

  // Diagnostics of successful (or aborting) matchers, in walk order. They
  // are reported once the walk is over: while it runs, the capture below
  // intercepts everything the matchers emit.
  std::vector<Diagnostic> Replay;
  DSF Result = DSF::success();
  {
    telemetry::ScopedSpan WalkSpan("match:walk-shard", "engine");
    WalkSpan.arg("shard", int64_t(0));
    // Matchers bind into a scratch state, never into the driver's: the
    // phase is pure, and a completed walk leaves no bindings behind.
    TransformInterpreter Scratch(Interp.getState().getPayloadRoot(),
                                 Interp.getScriptRoot(), Interp.getOptions());
    // One capture for the whole walk, reset per matcher invocation.
    ThreadDiagnosticCapture Capture;
    // An op reachable from two roots (nested or duplicate) is offered once;
    // the pre-order walk of a single root never visits an op twice.
    bool MayRevisit = Roots.size() > 1;
    std::unordered_set<Operation *> Visited;
    auto Offer = [&](Operation *Candidate) -> WalkResult {
      if (MayRevisit && !Visited.insert(Candidate).second)
        return WalkResult::Advance;
      Result = tryCandidate(Scratch, Capture, Candidate, Out, Replay);
      return Result.isDefinite() ? WalkResult::Interrupt : WalkResult::Advance;
    };
    for (Operation *Root : Roots) {
      WalkResult Walked = RestrictRoot ? Offer(Root) : Root->walkPre(Offer);
      if (Walked == WalkResult::Interrupt)
        break;
    }
    Interp.appendTraceLog(Scratch.takeTraceLog());
  }
  DiagnosticEngine &DiagEngine = DriverOp->getContext().getDiagEngine();
  for (const Diagnostic &Diag : Replay)
    DiagEngine.report(Diag);
  return Result;
}

//===----------------------------------------------------------------------===//
// Commit phase
//===----------------------------------------------------------------------===//

Value MatcherEngine::pin(std::vector<Operation *> Ops) {
  auto Key = std::make_unique<ValueImpl>();
  Key->Ty = TransformAnyOpType::get(DriverOp->getContext());
  Value Handle(Key.get());
  Interp.getState().setPayload(Handle, std::move(Ops));
  Pins.push_back(std::move(Key));
  return Handle;
}

/// Whether the pinned match no longer reflects what the matcher approved:
/// the candidate was consumed/erased or replaced by an op the matcher never
/// saw (tracking rewired the pin), or an earlier action invalidated/erased a
/// forwarded op even though the candidate itself survived. Stale matches are
/// skipped rather than handed dangling/empty payload.
static bool isStaleMatch(const TransformState &State,
                         const MatcherEngine::PinnedMatch &PM) {
  const std::vector<Operation *> &CandOps =
      State.getPayloadOps(PM.CandidateHandle);
  if (State.isInvalidated(PM.CandidateHandle) || CandOps.size() != 1 ||
      CandOps[0] != PM.OriginalCandidate)
    return true;
  for (const MatcherEngine::PinnedSlot &Slot : PM.Slots) {
    if (!Slot.Handle)
      continue;
    if (State.isInvalidated(Slot.Handle) ||
        State.getPayloadOps(Slot.Handle).empty())
      return true;
  }
  return false;
}

DSF MatcherEngine::commit(std::vector<Match> &Matches,
                          const CommitAction &Act) {
  TransformState &State = Interp.getState();
  static telemetry::DurationStat &CommitStat =
      telemetry::duration("engine.commit");
  telemetry::ScopedTimer CommitTimer(CommitStat);
  telemetry::ScopedSpan CommitSpan("engine:commit", "engine");
  CommitSpan.arg("matches", static_cast<int64_t>(Matches.size()));

  // Pin every match before the first action runs: an early action may
  // consume, erase, or replace ops of a later match, and only pinned
  // handles are kept consistent by the tracking rules.
  std::vector<PinnedMatch> Pinned;
  Pinned.reserve(Matches.size());
  for (Match &M : Matches) {
    PinnedMatch PM;
    PM.PairIdx = M.PairIdx;
    PM.OriginalCandidate = M.Candidate;
    PM.CandidateHandle = pin({M.Candidate});
    for (ForwardedValue &FV : M.Values) {
      PinnedSlot Slot;
      if (FV.IsParam)
        Slot.Params = std::move(FV.Params);
      else
        Slot.Handle = pin(std::move(FV.Ops));
      PM.Slots.push_back(std::move(Slot));
    }
    Pinned.push_back(std::move(PM));
  }

  for (const PinnedMatch &PM : Pinned) {
    if (isStaleMatch(State, PM))
      continue;
    DSF Result = Act(PM);
    if (!Result.succeeded())
      return Result;
  }
  return DSF::success();
}
