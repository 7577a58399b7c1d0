//===- Diagnostics.cpp - Locations and diagnostic reporting ---------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Diagnostics.h"

#include <deque>
#include <map>
#include <mutex>
#include <tuple>

using namespace tdl;

//===----------------------------------------------------------------------===//
// Location
//===----------------------------------------------------------------------===//

struct Location::Storage {
  enum class Kind { Unknown, FileLineCol, Name } Kind = Kind::Unknown;
  std::string File;
  unsigned Line = 0;
  unsigned Col = 0;
};

namespace {
/// Process-wide interning pool for locations. The pool is created lazily via
/// a function-local static (no global constructor).
struct LocationPool {
  std::deque<Location::Storage> Storages;
  std::map<std::tuple<int, std::string, unsigned, unsigned>,
           const Location::Storage *>
      Interned;
  /// Any thread may intern locations (every InFlightDiagnostic and every
  /// created op carries one); the deque keeps storage addresses stable, the
  /// lock keeps the index consistent.
  std::mutex Lock;

  const Location::Storage *intern(Location::Storage Value) {
    auto Key = std::make_tuple(static_cast<int>(Value.Kind), Value.File,
                               Value.Line, Value.Col);
    std::lock_guard<std::mutex> Guard(Lock);
    auto It = Interned.find(Key);
    if (It != Interned.end())
      return It->second;
    Storages.push_back(std::move(Value));
    const Location::Storage *Ptr = &Storages.back();
    Interned.emplace(std::move(Key), Ptr);
    return Ptr;
  }

  static LocationPool &instance() {
    static LocationPool Pool;
    return Pool;
  }
};
} // namespace

Location Location::unknown() {
  return Location(LocationPool::instance().intern(Storage()));
}

Location Location::get(std::string_view File, unsigned Line, unsigned Col) {
  Storage Value;
  Value.Kind = Storage::Kind::FileLineCol;
  Value.File = std::string(File);
  Value.Line = Line;
  Value.Col = Col;
  return Location(LocationPool::instance().intern(std::move(Value)));
}

Location Location::name(std::string_view Name) {
  Storage Value;
  Value.Kind = Storage::Kind::Name;
  Value.File = std::string(Name);
  return Location(LocationPool::instance().intern(std::move(Value)));
}

bool Location::isUnknown() const {
  return Impl->Kind == Storage::Kind::Unknown;
}

std::string Location::str() const {
  switch (Impl->Kind) {
  case Storage::Kind::Unknown:
    return "loc(unknown)";
  case Storage::Kind::FileLineCol: {
    std::string Result = Impl->File;
    Result += ":" + std::to_string(Impl->Line);
    if (Impl->Col)
      Result += ":" + std::to_string(Impl->Col);
    return Result;
  }
  case Storage::Kind::Name:
    return "loc(\"" + Impl->File + "\")";
  }
  return "loc(unknown)";
}

//===----------------------------------------------------------------------===//
// Diagnostic / DiagnosticEngine
//===----------------------------------------------------------------------===//

static std::string_view severityText(DiagnosticSeverity Severity) {
  switch (Severity) {
  case DiagnosticSeverity::Error:
    return "error";
  case DiagnosticSeverity::Warning:
    return "warning";
  case DiagnosticSeverity::Remark:
    return "remark";
  case DiagnosticSeverity::Note:
    return "note";
  }
  return "error";
}

std::string Diagnostic::str() const {
  std::string Result;
  if (!Loc.isUnknown())
    Result += Loc.str() + ": ";
  Result += severityText(Severity);
  Result += ": ";
  Result += Message;
  return Result;
}

DiagnosticEngine::DiagnosticEngine() {
  Handler = [](const Diagnostic &Diag) { errs() << Diag.str() << '\n'; };
}

DiagnosticEngine::HandlerTy DiagnosticEngine::setHandler(HandlerTy NewHandler) {
  HandlerTy Old = std::move(Handler);
  Handler = std::move(NewHandler);
  return Old;
}

DiagnosticEngine::HandlerTy *&DiagnosticEngine::threadHandlerSlot() {
  static thread_local HandlerTy *Slot = nullptr;
  return Slot;
}

DiagnosticEngine::HandlerTy *
DiagnosticEngine::swapThreadHandler(HandlerTy *NewHandler) {
  HandlerTy *&Slot = threadHandlerSlot();
  HandlerTy *Old = Slot;
  Slot = NewHandler;
  return Old;
}

void DiagnosticEngine::report(Diagnostic Diag) {
  if (Diag.Severity == DiagnosticSeverity::Error)
    NumErrors.fetch_add(1, std::memory_order_relaxed);
  // The per-thread sink outranks the engine-wide handler: a worker thread
  // capturing its own matcher diagnostics must not leak them into (or race
  // on) whatever handler the main thread installed.
  if (HandlerTy *Thread = threadHandlerSlot()) {
    (*Thread)(Diag);
    return;
  }
  if (Handler)
    Handler(Diag);
}

std::string ScopedDiagnosticCapture::allMessages() const {
  std::string Result;
  for (const Diagnostic &Diag : Captured) {
    if (!Result.empty())
      Result += '\n';
    Result += Diag.str();
  }
  return Result;
}

bool ScopedDiagnosticCapture::contains(std::string_view Needle) const {
  for (const Diagnostic &Diag : Captured)
    if (Diag.Message.find(Needle) != std::string::npos)
      return true;
  return false;
}
