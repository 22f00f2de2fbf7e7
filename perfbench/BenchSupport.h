//===- BenchSupport.h - Helpers of the end-to-end benchmark -----*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces of the benchmark that are worth testing on their own
/// (selftest.cpp does): the percentile rule, the serve frame parser, and
/// the span recorder with its self-time computation. Everything here is
/// header-only and independent of the workloads.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCHSUPPORT_H
#define PERFBENCH_BENCHSUPPORT_H

#include "serve/Json.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

// --- clock -------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

/// Milliseconds since the first call (the benchmark's own epoch).
inline double nowMs() {
  static const Clock::time_point Epoch = Clock::now();
  return std::chrono::duration<double, std::milli>(Clock::now() - Epoch)
      .count();
}

// --- percentiles ---------------------------------------------------------------

/// One percentile of a sample set, with what the report must print beside
/// it: the sample count and how many samples lie beyond it.
struct Percentile {
  int P = 0;
  double Value = 0;
  size_t N = 0;
  size_t Beyond = 0;
  /// False when the set is empty, or (for tail()) no candidate percentile
  /// has ten samples beyond it.
  bool Ok = false;
};

/// Nearest-rank percentile: the smallest sample such that at least P% of
/// the samples are <= it. Samples beyond = those ranked after it.
inline Percentile percentile(std::vector<double> Samples, int P) {
  Percentile R;
  R.P = P;
  R.N = Samples.size();
  if (Samples.empty() || P <= 0 || P > 100)
    return R;
  std::sort(Samples.begin(), Samples.end());
  size_t Rank = static_cast<size_t>(
      std::ceil(static_cast<double>(P) / 100.0 * static_cast<double>(R.N)));
  Rank = std::max<size_t>(1, std::min(Rank, R.N));
  R.Value = Samples[Rank - 1];
  R.Beyond = R.N - Rank;
  R.Ok = true;
  return R;
}

/// Samples a percentile needs beyond it before the benchmark reports it.
constexpr size_t MinBeyond = 10;

/// True when \p P of \p Samples leaves at least MinBeyond samples beyond it.
inline bool reportable(const std::vector<double> &Samples, int P) {
  Percentile R = percentile(Samples, P);
  return R.Ok && R.Beyond >= MinBeyond;
}

/// The tail latency the benchmark reports: the highest of p95, p90, p75
/// and p50 that leaves at least MinBeyond samples beyond it. Ok is false
/// when not even the median does (fewer than 20 samples).
inline Percentile tail(const std::vector<double> &Samples) {
  for (int P : {95, 90, 75, 50}) {
    Percentile R = percentile(Samples, P);
    if (R.Ok && R.Beyond >= MinBeyond)
      return R;
  }
  Percentile R = percentile(Samples, 50);
  R.Ok = false;
  return R;
}

inline double median(const std::vector<double> &Samples) {
  return percentile(Samples, 50).Value;
}

inline double sum(const std::vector<double> &Samples) {
  double S = 0;
  for (double X : Samples)
    S += X;
  return S;
}

/// The fastest repetition of each operation, for workloads that repeat the
/// same operations within a run. Contention from other tenants of the host
/// only ever slows an operation down, and on the reference host it swings
/// single runs by 20-60% within seconds; an operation's fastest repetition
/// filters that out. Operations never completed are skipped.
inline std::vector<double>
fastest(const std::vector<std::vector<double>> &PerOp) {
  std::vector<double> Out;
  for (const std::vector<double> &Reps : PerOp)
    if (!Reps.empty())
      Out.push_back(*std::min_element(Reps.begin(), Reps.end()));
  return Out;
}

/// A / B, or 0 when B is 0.
inline double ratio(double A, double B) { return B > 0 ? A / B : 0.0; }

// --- serve frames ----------------------------------------------------------------

/// One `bugassist serve` response (docs/SERVE.md): header line, exactly
/// `bytes` body bytes, stats trailer line.
struct Frame {
  bugassist::JsonValue Header;
  std::string Body;
  bugassist::JsonValue Trailer;
};

/// Incremental parser for the serve response stream. Bodies may contain
/// newlines (reports are multi-line), so the body is taken by the header's
/// byte count, never by line; error frames carry `"bytes":0`.
class FrameParser {
public:
  /// Consumes \p Bytes and appends every frame completed by them to
  /// \p Out. \returns false (with \p Error set) on a malformed stream;
  /// the parser is then unusable.
  bool feed(std::string_view Bytes, std::vector<Frame> &Out,
            std::string &Error) {
    Buf.append(Bytes.data(), Bytes.size());
    size_t Pos = 0;
    for (;;) {
      if (St == State::Body) {
        if (Buf.size() - Pos < Need)
          break;
        Cur.Body.assign(Buf, Pos, Need);
        Pos += Need;
        St = State::Trailer;
        continue;
      }
      size_t Nl = Buf.find('\n', Pos);
      if (Nl == std::string::npos)
        break;
      std::string_view Line(Buf.data() + Pos, Nl - Pos);
      Pos = Nl + 1;
      auto V = bugassist::parseJson(Line, Error);
      if (!V || !V->isObject()) {
        if (Error.empty())
          Error = "frame line is not a JSON object";
        return false;
      }
      if (St == State::Header) {
        const bugassist::JsonValue *B = V->find("bytes");
        std::optional<int64_t> N = B ? B->asInt64() : std::nullopt;
        if (!N || *N < 0) {
          Error = "header without a valid 'bytes' field";
          return false;
        }
        Cur = Frame();
        Cur.Header = std::move(*V);
        Need = static_cast<size_t>(*N);
        St = State::Body;
      } else {
        Cur.Trailer = std::move(*V);
        Out.push_back(std::move(Cur));
        Cur = Frame();
        St = State::Header;
      }
    }
    Buf.erase(0, Pos);
    return true;
  }

  /// True when bytes of an unfinished frame are buffered.
  bool midFrame() const { return St != State::Header || !Buf.empty(); }

private:
  enum class State { Header, Body, Trailer };
  State St = State::Header;
  std::string Buf;
  Frame Cur;
  size_t Need = 0;
};

/// String field of a parsed JSON object ("" when absent or not a string).
inline std::string jsonString(const bugassist::JsonValue &Obj,
                              std::string_view Key) {
  const bugassist::JsonValue *V = Obj.find(Key);
  return V && V->isString() ? V->Text : std::string();
}

/// Numeric field of a parsed JSON object (0 when absent).
inline double jsonNumber(const bugassist::JsonValue &Obj,
                         std::string_view Key) {
  const bugassist::JsonValue *V = Obj.find(Key);
  std::optional<double> D = V ? V->asDouble() : std::nullopt;
  return D ? *D : 0.0;
}

// --- spans --------------------------------------------------------------------

/// A timed call into one layer. Spans of one query share Query; Parent is
/// the index of the enclosing span, or -1.
struct Span {
  std::string Name;
  std::string Layer;
  double StartMs = 0;
  double EndMs = 0;
  int Parent = -1;
  uint64_t Query = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
inline std::vector<double> selfTimes(const std::vector<Span> &Spans) {
  std::vector<std::vector<std::pair<double, double>>> Kids(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0 && static_cast<size_t>(S.Parent) < Spans.size())
      Kids[static_cast<size_t>(S.Parent)].push_back({S.StartMs, S.EndMs});
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    double Lo = Spans[I].StartMs, Hi = Spans[I].EndMs;
    auto &K = Kids[I];
    std::sort(K.begin(), K.end());
    double Covered = 0, RunLo = 0, RunHi = 0;
    bool Open = false;
    for (auto [A, B] : K) {
      A = std::max(A, Lo);
      B = std::min(B, Hi);
      if (B <= A)
        continue;
      if (Open && A <= RunHi) {
        RunHi = std::max(RunHi, B);
        continue;
      }
      if (Open)
        Covered += RunHi - RunLo;
      RunLo = A;
      RunHi = B;
      Open = true;
    }
    if (Open)
      Covered += RunHi - RunLo;
    Self[I] = std::max(0.0, (Hi - Lo) - Covered);
  }
  return Self;
}

/// Summed self time per layer.
inline std::map<std::string, double>
selfTimeByLayer(const std::vector<Span> &Spans) {
  std::vector<double> Self = selfTimes(Spans);
  std::map<std::string, double> Out;
  for (size_t I = 0; I < Spans.size(); ++I)
    Out[Spans[I].Layer] += Self[I];
  return Out;
}

/// In-memory span recorder. When off, every call is a no-op and reads no
/// clock, so untraced runs pay nothing. Single-threaded: spans nest by
/// call order (the serve workload adds its spans after the run, with
/// explicit parents).
class Tracer {
public:
  explicit Tracer(bool On) : On(On) {}
  bool on() const { return On; }

  void setQuery(uint64_t Q) { Query = Q; }

  int begin(const char *Name, const char *Layer) {
    if (!On)
      return -1;
    int Parent = Stack.empty() ? -1 : Stack.back();
    Spans.push_back({Name, Layer, nowMs(), 0, Parent, Query});
    Stack.push_back(static_cast<int>(Spans.size()) - 1);
    return Stack.back();
  }

  void end(int Index) {
    if (!On || Index < 0)
      return;
    Spans[static_cast<size_t>(Index)].EndMs = nowMs();
    while (!Stack.empty()) {
      int Top = Stack.back();
      Stack.pop_back();
      if (Top == Index)
        break;
    }
  }

  /// Records a span measured elsewhere. \returns its index.
  int add(Span S) {
    if (!On)
      return -1;
    Spans.push_back(std::move(S));
    return static_cast<int>(Spans.size()) - 1;
  }

  const std::vector<Span> &spans() const { return Spans; }

  /// The spans as a JSON array, one object per line.
  std::string toJson() const {
    std::string Out = "[\n";
    char Buf[160];
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::snprintf(Buf, sizeof(Buf),
                    "\",\"start_ms\":%.4f,\"end_ms\":%.4f,\"parent\":%d,"
                    "\"query\":%llu}",
                    S.StartMs, S.EndMs, S.Parent,
                    static_cast<unsigned long long>(S.Query));
      Out += "{\"name\":\"" + bugassist::jsonEscape(S.Name) +
             "\",\"layer\":\"" + bugassist::jsonEscape(S.Layer) + Buf;
      Out += I + 1 < Spans.size() ? ",\n" : "\n";
    }
    Out += "]\n";
    return Out;
  }

private:
  bool On;
  uint64_t Query = 0;
  std::vector<Span> Spans;
  std::vector<int> Stack;
};

/// RAII span around one call.
class Scope {
public:
  Scope(Tracer &T, const char *Name, const char *Layer)
      : T(T), Index(T.begin(Name, Layer)) {}
  ~Scope() { T.end(Index); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer &T;
  int Index;
};

} // namespace perfbench

#endif // PERFBENCH_BENCHSUPPORT_H
