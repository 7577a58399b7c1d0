//===- Telemetry.cpp - Metrics registry and span tracing ------------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Telemetry.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>

using namespace tdl;
using namespace tdl::telemetry;

//===----------------------------------------------------------------------===//
// Formatting helpers
//===----------------------------------------------------------------------===//

static int64_t steadyNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// `<whole>.<3 digits>` of \p Nanos scaled down by \p Divisor (1000 for
/// microseconds, 1000000 for milliseconds). Trace timestamps and profile
/// tables both want fixed three-decimal output, not doubleToString's
/// shortest-round-trip form.
static std::string fixed3(int64_t Nanos, int64_t Divisor) {
  bool Neg = Nanos < 0;
  uint64_t Abs = Neg ? -static_cast<uint64_t>(Nanos) : Nanos;
  uint64_t Scaled = Abs / (Divisor / 1000); // thousandths of the target unit
  std::string Frac = std::to_string(Scaled % 1000);
  while (Frac.size() < 3)
    Frac.insert(Frac.begin(), '0');
  return (Neg ? "-" : "") + std::to_string(Scaled / 1000) + "." + Frac;
}

static std::string microsStr(int64_t Nanos) { return fixed3(Nanos, 1000); }
static std::string millisStr(int64_t Nanos) { return fixed3(Nanos, 1000000); }

static void writeJsonEscaped(raw_ostream &OS, std::string_view Str) {
  for (char C : Str) {
    switch (C) {
    case '"':
      OS << "\\\"";
      break;
    case '\\':
      OS << "\\\\";
      break;
    case '\n':
      OS << "\\n";
      break;
    case '\t':
      OS << "\\t";
      break;
    case '\r':
      OS << "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        static const char Hex[] = "0123456789abcdef";
        OS << "\\u00" << Hex[(C >> 4) & 0xf] << Hex[C & 0xf];
      } else {
        OS << C;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// DurationStat
//===----------------------------------------------------------------------===//

void DurationStat::recordNanos(int64_t Nanos) {
  Count.fetch_add(1, std::memory_order_relaxed);
  TotalNanos.fetch_add(Nanos, std::memory_order_relaxed);
  Buckets[histogramBucketIndex(Nanos)].fetch_add(1, std::memory_order_relaxed);
  int64_t Cur = MinNanos.load(std::memory_order_relaxed);
  while (Nanos < Cur &&
         !MinNanos.compare_exchange_weak(Cur, Nanos,
                                         std::memory_order_relaxed))
    ;
  Cur = MaxNanos.load(std::memory_order_relaxed);
  while (Nanos > Cur &&
         !MaxNanos.compare_exchange_weak(Cur, Nanos,
                                         std::memory_order_relaxed))
    ;
}

ScopedTimer::ScopedTimer(DurationStat &Stat)
    : Stat(Stat), StartNanos(steadyNowNanos()) {}

ScopedTimer::~ScopedTimer() { Stat.recordNanos(steadyNowNanos() - StartNanos); }

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

struct MetricsRegistry::Impl {
  std::mutex Mu;
  // Nodes never move or die: call sites cache the returned references.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> Counters;
  std::map<std::string, std::unique_ptr<DurationStat>, std::less<>> Durations;
};

MetricsRegistry &MetricsRegistry::instance() {
  static MetricsRegistry R;
  return R;
}

MetricsRegistry::Impl &MetricsRegistry::impl() const {
  // Leaked on purpose: metric handles (and the worker threads still holding
  // them during process teardown) must outlive every static destructor.
  static Impl *I = new Impl;
  return *I;
}

Counter &MetricsRegistry::getCounter(std::string_view Name) {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  auto It = I.Counters.find(Name);
  if (It == I.Counters.end())
    It = I.Counters.emplace(std::string(Name), std::make_unique<Counter>())
             .first;
  return *It->second;
}

DurationStat &MetricsRegistry::getDuration(std::string_view Name) {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  auto It = I.Durations.find(Name);
  if (It == I.Durations.end())
    It = I.Durations
             .emplace(std::string(Name), std::make_unique<DurationStat>())
             .first;
  return *It->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  MetricsSnapshot Snap;
  for (const auto &Entry : I.Counters)
    Snap.Counters[Entry.first] = Entry.second->get();
  for (const auto &Entry : I.Durations) {
    MetricsSnapshot::DurationValue V;
    V.Count = Entry.second->getCount();
    V.TotalNanos = Entry.second->getTotalNanos();
    int64_t Min = Entry.second->MinNanos.load(std::memory_order_relaxed);
    V.MinNanos = V.Count == 0 ? 0 : Min;
    V.MaxNanos = Entry.second->MaxNanos.load(std::memory_order_relaxed);
    for (int B = 0; B < NumHistogramBuckets; ++B)
      V.Buckets[B] = Entry.second->Buckets[B].load(std::memory_order_relaxed);
    Snap.Durations[Entry.first] = V;
  }
  return Snap;
}

void MetricsRegistry::reset() {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  for (auto &Entry : I.Counters)
    Entry.second->V.store(0, std::memory_order_relaxed);
  for (auto &Entry : I.Durations) {
    Entry.second->Count.store(0, std::memory_order_relaxed);
    Entry.second->TotalNanos.store(0, std::memory_order_relaxed);
    Entry.second->MinNanos.store(INT64_MAX, std::memory_order_relaxed);
    Entry.second->MaxNanos.store(0, std::memory_order_relaxed);
    for (int B = 0; B < NumHistogramBuckets; ++B)
      Entry.second->Buckets[B].store(0, std::memory_order_relaxed);
  }
}

Counter &telemetry::counter(std::string_view Name) {
  return MetricsRegistry::instance().getCounter(Name);
}

DurationStat &telemetry::duration(std::string_view Name) {
  return MetricsRegistry::instance().getDuration(Name);
}

MetricsSnapshot telemetry::diffSnapshots(const MetricsSnapshot &After,
                                         const MetricsSnapshot &Before) {
  MetricsSnapshot Diff;
  for (const auto &Entry : After.Counters) {
    auto It = Before.Counters.find(Entry.first);
    int64_t Base = It == Before.Counters.end() ? 0 : It->second;
    Diff.Counters[Entry.first] = std::max<int64_t>(0, Entry.second - Base);
  }
  for (const auto &Entry : After.Durations) {
    auto It = Before.Durations.find(Entry.first);
    MetricsSnapshot::DurationValue V = Entry.second;
    if (It != Before.Durations.end()) {
      V.Count = std::max<int64_t>(0, V.Count - It->second.Count);
      V.TotalNanos = std::max<int64_t>(0, V.TotalNanos - It->second.TotalNanos);
      for (int B = 0; B < NumHistogramBuckets; ++B)
        V.Buckets[B] =
            std::max<int64_t>(0, V.Buckets[B] - It->second.Buckets[B]);
      // The lifetime extrema may come from samples before the window; bound
      // the window's by its lowest and highest non-empty bucket instead.
      if (It->second.Count > 0) {
        int Lo = -1, Hi = -1;
        for (int B = 0; B < NumHistogramBuckets; ++B)
          if (V.Buckets[B] > 0) {
            Lo = Lo < 0 ? B : Lo;
            Hi = B;
          }
        if (Lo < 0) {
          V.MinNanos = V.MaxNanos = 0;
        } else {
          int64_t LifeMin = Entry.second.MinNanos;
          int64_t LifeMax = Entry.second.MaxNanos;
          int64_t LoBound = Lo == 0 ? 0 : histogramBucketUpperNanos(Lo - 1) + 1;
          V.MinNanos = std::clamp(LoBound, LifeMin, LifeMax);
          V.MaxNanos =
              std::clamp(histogramBucketUpperNanos(Hi), LifeMin, LifeMax);
        }
      }
    }
    Diff.Durations[Entry.first] = V;
  }
  return Diff;
}

int64_t telemetry::percentileNanos(const MetricsSnapshot::DurationValue &V,
                                   double Pct) {
  int64_t Sum = 0;
  for (int64_t B : V.Buckets)
    Sum += B;
  if (Sum <= 0)
    return 0;
  // Rank of the target sample, 1-based: ceil(Pct/100 * Sum), at least 1.
  int64_t Target = static_cast<int64_t>(Pct / 100.0 * static_cast<double>(Sum));
  if (static_cast<double>(Target) < Pct / 100.0 * static_cast<double>(Sum))
    ++Target;
  Target = std::max<int64_t>(1, std::min(Target, Sum));
  int64_t Cum = 0;
  for (int B = 0; B < NumHistogramBuckets; ++B) {
    Cum += V.Buckets[B];
    if (Cum >= Target) {
      int64_t Est = histogramBucketUpperNanos(B);
      if (V.MaxNanos > 0)
        Est = std::min(Est, V.MaxNanos);
      if (V.Count > 0)
        Est = std::max(Est, V.MinNanos);
      return Est;
    }
  }
  return V.MaxNanos;
}

void telemetry::renderText(const MetricsSnapshot &Snapshot, raw_ostream &OS) {
  OS << "counters:\n";
  for (const auto &Entry : Snapshot.Counters)
    OS << "  " << Entry.first << ": " << static_cast<long long>(Entry.second)
       << "\n";
  OS << "durations:\n";
  for (const auto &Entry : Snapshot.Durations) {
    const MetricsSnapshot::DurationValue &V = Entry.second;
    OS << "  " << Entry.first << ": count "
       << static_cast<long long>(V.Count) << ", total "
       << millisStr(V.TotalNanos) << " ms, min " << millisStr(V.MinNanos)
       << " ms, max " << millisStr(V.MaxNanos) << " ms, p50 "
       << millisStr(percentileNanos(V, 50)) << " ms, p90 "
       << millisStr(percentileNanos(V, 90)) << " ms, p99 "
       << millisStr(percentileNanos(V, 99)) << " ms\n";
  }
}

void telemetry::renderDurationValueJson(const MetricsSnapshot::DurationValue &V,
                                        raw_ostream &OS) {
  int64_t P50 = percentileNanos(V, 50);
  int64_t P90 = percentileNanos(V, 90);
  int64_t P99 = percentileNanos(V, 99);
  OS << "{\"count\": " << static_cast<long long>(V.Count)
     << ", \"total_ms\": " << millisStr(V.TotalNanos)
     << ", \"total_nanos\": " << static_cast<long long>(V.TotalNanos)
     << ", \"min_ms\": " << millisStr(V.MinNanos)
     << ", \"min_nanos\": " << static_cast<long long>(V.MinNanos)
     << ", \"max_ms\": " << millisStr(V.MaxNanos)
     << ", \"max_nanos\": " << static_cast<long long>(V.MaxNanos)
     << ", \"p50_ms\": " << millisStr(P50)
     << ", \"p50_nanos\": " << static_cast<long long>(P50)
     << ", \"p90_ms\": " << millisStr(P90)
     << ", \"p90_nanos\": " << static_cast<long long>(P90)
     << ", \"p99_ms\": " << millisStr(P99)
     << ", \"p99_nanos\": " << static_cast<long long>(P99) << "}";
}

void telemetry::renderJson(const MetricsSnapshot &Snapshot, raw_ostream &OS) {
  OS << "{";
  bool First = true;
  auto Sep = [&] {
    if (!First)
      OS << ",";
    First = false;
    OS << "\n  ";
  };
  for (const auto &Entry : Snapshot.Counters) {
    Sep();
    OS << "\"";
    writeJsonEscaped(OS, Entry.first);
    OS << "\": " << static_cast<long long>(Entry.second);
  }
  for (const auto &Entry : Snapshot.Durations) {
    Sep();
    OS << "\"";
    writeJsonEscaped(OS, Entry.first);
    OS << "\": ";
    renderDurationValueJson(Entry.second, OS);
  }
  OS << "\n}\n";
}

void telemetry::renderLatencySummary(const MetricsSnapshot &Snapshot,
                                     raw_ostream &OS) {
  OS << "latency percentiles:\n";
  for (const auto &Entry : Snapshot.Durations) {
    const MetricsSnapshot::DurationValue &V = Entry.second;
    if (V.Count == 0)
      continue;
    OS << "  " << Entry.first << ": count "
       << static_cast<long long>(V.Count) << ", p50 "
       << millisStr(percentileNanos(V, 50)) << " ms, p90 "
       << millisStr(percentileNanos(V, 90)) << " ms, p99 "
       << millisStr(percentileNanos(V, 99)) << " ms\n";
  }
}

std::string telemetry::jsonQuoted(std::string_view S) {
  std::string Out;
  raw_string_ostream OS(Out);
  OS << "\"";
  writeJsonEscaped(OS, S);
  OS << "\"";
  return Out;
}

//===----------------------------------------------------------------------===//
// SpanCollector
//===----------------------------------------------------------------------===//

namespace {
struct ThreadBuffer {
  std::vector<Span> Spans;
  uint32_t Tid = 0;
};

/// The calling thread's buffer for a given collector epoch. A stale pointer
/// (previous epoch) is never dereferenced — the epoch check fails first and
/// the thread re-registers — so buffers can be freed at the *next* start()
/// without coordinating with threads that exited mid-session.
struct ThreadSlot {
  ThreadBuffer *Buf = nullptr;
  uint64_t Epoch = 0;
};
thread_local ThreadSlot TLS;
} // namespace

struct SpanCollector::Impl {
  std::mutex Mu;
  std::vector<std::unique_ptr<ThreadBuffer>> Buffers;
  std::atomic<uint64_t> Epoch{0};
  uint32_t NextTid = 0;
  int64_t StartNanos = 0;
};

SpanCollector &SpanCollector::instance() {
  // Leaked: worker threads may consult isActive() during teardown.
  static SpanCollector *C = new SpanCollector;
  return *C;
}

SpanCollector::Impl &SpanCollector::impl() const {
  static Impl *I = new Impl;
  return *I;
}

void SpanCollector::start() {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  // Invalidate every cached thread slot before freeing its target.
  I.Epoch.fetch_add(1, std::memory_order_release);
  I.Buffers.clear();
  I.NextTid = 0;
  I.StartNanos = steadyNowNanos();
  Active.store(true, std::memory_order_release);
}

int64_t SpanCollector::nowNanos() const {
  return steadyNowNanos() - impl().StartNanos;
}

void SpanCollector::append(Span S) {
  if (!isActive())
    return;
  Impl &I = impl();
  uint64_t Epoch = I.Epoch.load(std::memory_order_acquire);
  if (!TLS.Buf || TLS.Epoch != Epoch) {
    std::lock_guard<std::mutex> Lock(I.Mu);
    if (!Active.load(std::memory_order_relaxed))
      return; // finish() won the race; drop the straggler span.
    I.Buffers.push_back(std::make_unique<ThreadBuffer>());
    I.Buffers.back()->Tid = ++I.NextTid;
    TLS.Buf = I.Buffers.back().get();
    TLS.Epoch = I.Epoch.load(std::memory_order_relaxed);
  }
  S.ThreadId = TLS.Buf->Tid;
  TLS.Buf->Spans.push_back(std::move(S));
}

std::vector<Span> SpanCollector::finish() {
  Impl &I = impl();
  Active.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> Lock(I.Mu);
  std::vector<Span> All;
  for (std::unique_ptr<ThreadBuffer> &Buf : I.Buffers) {
    All.insert(All.end(), std::make_move_iterator(Buf->Spans.begin()),
               std::make_move_iterator(Buf->Spans.end()));
    Buf->Spans.clear();
    // The buffer object itself stays alive until the next start(): a thread
    // that cached it may still compare epochs against it harmlessly.
  }
  std::stable_sort(All.begin(), All.end(), [](const Span &A, const Span &B) {
    if (A.StartNanos != B.StartNanos)
      return A.StartNanos < B.StartNanos;
    if (A.ThreadId != B.ThreadId)
      return A.ThreadId < B.ThreadId;
    return A.DurNanos > B.DurNanos; // enclosing span first
  });
  return All;
}

//===----------------------------------------------------------------------===//
// ScopedSpan
//===----------------------------------------------------------------------===//

ScopedSpan::ScopedSpan(std::string_view Name, std::string_view Category)
    : Active(spansActive()) {
  if (!Active)
    return;
  S.Name = std::string(Name);
  S.Category = std::string(Category);
  S.StartNanos = SpanCollector::instance().nowNanos();
}

ScopedSpan::~ScopedSpan() {
  if (!Active)
    return;
  SpanCollector &C = SpanCollector::instance();
  S.DurNanos = C.nowNanos() - S.StartNanos;
  C.append(std::move(S));
}

void ScopedSpan::arg(std::string_view Key, std::string_view Value) {
  if (Active)
    S.Args.emplace_back(std::string(Key), std::string(Value));
}

void ScopedSpan::arg(std::string_view Key, int64_t Value) {
  if (Active)
    S.Args.emplace_back(std::string(Key), std::to_string(Value));
}

//===----------------------------------------------------------------------===//
// Chrome trace writer
//===----------------------------------------------------------------------===//

/// Integer-looking arg values render as JSON numbers (they came from the
/// int64 arg() overload); everything else is an escaped string.
static bool looksLikeInteger(std::string_view V) {
  if (V.empty())
    return false;
  size_t Begin = V[0] == '-' ? 1 : 0;
  if (Begin == V.size() || V.size() - Begin > 18)
    return false;
  for (size_t I = Begin; I < V.size(); ++I)
    if (V[I] < '0' || V[I] > '9')
      return false;
  return true;
}

void telemetry::writeChromeTrace(const std::vector<Span> &Spans,
                                 raw_ostream &OS) {
  OS << "{ \"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    OS << "{\"name\": \"";
    writeJsonEscaped(OS, S.Name);
    OS << "\", \"cat\": \"";
    writeJsonEscaped(OS, S.Category.empty() ? std::string_view("tdl")
                                            : std::string_view(S.Category));
    OS << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
       << static_cast<unsigned long long>(S.ThreadId)
       << ", \"ts\": " << microsStr(S.StartNanos)
       << ", \"dur\": " << microsStr(S.DurNanos);
    if (!S.Args.empty()) {
      OS << ", \"args\": {";
      for (size_t A = 0; A < S.Args.size(); ++A) {
        if (A)
          OS << ", ";
        OS << "\"";
        writeJsonEscaped(OS, S.Args[A].first);
        OS << "\": ";
        if (looksLikeInteger(S.Args[A].second)) {
          OS << S.Args[A].second;
        } else {
          OS << "\"";
          writeJsonEscaped(OS, S.Args[A].second);
          OS << "\"";
        }
      }
      OS << "}";
    }
    OS << "}" << (I + 1 < Spans.size() ? "," : "") << "\n";
  }
  OS << "]}\n";
}

//===----------------------------------------------------------------------===//
// Profile renderer
//===----------------------------------------------------------------------===//

namespace {
/// Per-span containment data computed from the merged span list: immediate
/// parent (same thread, encloses it, innermost) and self time (duration
/// minus immediate children).
struct ProfileSpan {
  const Span *S = nullptr;
  int64_t SelfNanos = 0;
  int Parent = -1;
};
} // namespace

static std::string padTo(std::string Str, size_t Width) {
  while (Str.size() < Width)
    Str += ' ';
  return Str;
}

static std::string padLeft(std::string Str, size_t Width) {
  while (Str.size() < Width)
    Str.insert(Str.begin(), ' ');
  return Str;
}

void telemetry::renderProfile(const std::vector<Span> &Spans,
                              raw_ostream &OS) {
  // Reconstruct nesting per thread with a containment stack. The input is
  // sorted by (start, tid, dur desc), so an enclosing span precedes every
  // span it contains.
  std::vector<ProfileSpan> PS(Spans.size());
  std::map<uint32_t, std::vector<int>> Stacks; // tid -> open span indices
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    PS[I].S = &S;
    PS[I].SelfNanos = S.DurNanos;
    std::vector<int> &Stack = Stacks[S.ThreadId];
    while (!Stack.empty()) {
      const Span &Top = *PS[Stack.back()].S;
      if (Top.StartNanos + Top.DurNanos <= S.StartNanos)
        Stack.pop_back();
      else
        break;
    }
    if (!Stack.empty()) {
      PS[I].Parent = Stack.back();
      PS[Stack.back()].SelfNanos -= S.DurNanos;
    }
    Stack.push_back(static_cast<int>(I));
  }

  struct Agg {
    int64_t Count = 0;
    int64_t TotalNanos = 0;
    int64_t SelfNanos = 0;
  };
  std::map<std::string, Agg> OpKinds;   // cat "transform-op", by name
  std::map<std::string, Agg> Matchers;  // cat "matcher", by name
  std::map<std::string, Agg> PhaseAgg;  // everything else, by name
  int64_t InterpTotal = 0;   // driver-side interp:run wall time
  int64_t Attributed = 0;    // maximal transform-op spans inside interp:run

  for (size_t I = 0; I < PS.size(); ++I) {
    const Span &S = *PS[I].S;
    Agg *A = nullptr;
    if (S.Category == "transform-op")
      A = &OpKinds[S.Name];
    else if (S.Category == "matcher")
      A = &Matchers[S.Name];
    else
      A = &PhaseAgg[S.Name];
    ++A->Count;
    A->TotalNanos += S.DurNanos;
    A->SelfNanos += PS[I].SelfNanos;

    if (S.Name == "interp:run")
      InterpTotal += S.DurNanos;
    if (S.Category == "transform-op") {
      // Maximal = no transform-op span between this one and its interp:run
      // ancestor; only those contribute to the attribution numerator (their
      // duration covers all their descendants).
      bool Maximal = false;
      for (int P = PS[I].Parent; P >= 0; P = PS[P].Parent) {
        const Span &PSpan = *PS[P].S;
        if (PSpan.Category == "transform-op")
          break;
        if (PSpan.Name == "interp:run") {
          Maximal = true;
          break;
        }
      }
      if (Maximal)
        Attributed += S.DurNanos;
    }
  }

  OS << "=== profile ===\n";
  OS << "interpretation: total " << millisStr(InterpTotal) << " ms";
  if (InterpTotal > 0) {
    int64_t Permille = (Attributed * 1000 + InterpTotal / 2) / InterpTotal;
    Permille = std::min<int64_t>(Permille, 1000);
    OS << "; " << static_cast<long long>(Permille / 10) << "."
       << static_cast<long long>(Permille % 10)
       << "% attributed to transform-op spans";
  }
  OS << "\n";

  auto Table = [&](std::string_view Title, const std::map<std::string, Agg> &M,
                   bool WithSelf) {
    if (M.empty())
      return;
    OS << "\n" << Title << "\n";
    OS << "  " << padTo("name", 44) << padLeft("count", 8)
       << padLeft("total ms", 12);
    if (WithSelf)
      OS << padLeft("self ms", 12);
    OS << "\n";
    // Hottest first.
    std::vector<std::pair<std::string, Agg>> Rows(M.begin(), M.end());
    std::stable_sort(Rows.begin(), Rows.end(),
                     [](const auto &A, const auto &B) {
                       return A.second.TotalNanos > B.second.TotalNanos;
                     });
    for (const auto &Row : Rows) {
      OS << "  " << padTo(Row.first, 44)
         << padLeft(std::to_string(Row.second.Count), 8)
         << padLeft(millisStr(Row.second.TotalNanos), 12);
      if (WithSelf)
        OS << padLeft(millisStr(Row.second.SelfNanos), 12);
      OS << "\n";
    }
  };

  Table("transform ops (by kind):", OpKinds, /*WithSelf=*/true);
  Table("hottest matchers:", Matchers, /*WithSelf=*/false);
  Table("phases:", PhaseAgg, /*WithSelf=*/true);
}
