//===- perfbench/driver/Spans.h - In-memory layer spans ---------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span recorder. The benchmark wraps each call it makes
/// into a daecc module's public API in a Scope naming the call and the layer
/// it belongs to; spans stay in memory and are written out once, at exit, as
/// Chrome trace-event JSON (loadable in Perfetto or chrome://tracing).
///
/// A layer's self time is the summed duration of its spans minus the part
/// their direct child spans cover. Self times of all layers therefore add up
/// to the root span's duration exactly; the root's own self time is
/// orchestration ("harness.other").
///
/// Single-threaded by design: the benchmark drives every workload with one
/// job and one sim thread.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
public:
  struct Span {
    std::string Name;
    std::string Layer;
    double StartUs = 0.0;
    double EndUs = 0.0;
    int Parent = -1;
  };

  SpanRecorder() : Epoch(std::chrono::steady_clock::now()) {}

  /// Opens a span as a child of the innermost open span; returns its id.
  int begin(std::string Name, std::string Layer);
  /// Closes span \p Id, which must be the innermost open span.
  void end(int Id);
  /// Records an already-measured child of the innermost open span, placed at
  /// that span's start. Used to split TaskRuntime::execute into its
  /// functional pass (reported by the runtime as a duration) and replay.
  void addChild(std::string Name, std::string Layer, double Seconds);

  /// Self seconds per layer over the spans whose root is \p Root.
  std::map<std::string, double> selfSeconds(int Root) const;
  /// Duration of span \p Id in seconds.
  double seconds(int Id) const;

  /// Writes every span as a Chrome trace-event "X" event. Returns false when
  /// the file cannot be written.
  bool writeChromeTrace(const std::string &Path,
                        const std::map<std::string, double> &Summary) const;

private:
  double nowUs() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - Epoch)
        .count();
  }

  std::chrono::steady_clock::time_point Epoch;
  std::vector<Span> Spans;
  std::vector<int> Open;
};

/// RAII span; a no-op when the recorder is null (the untraced run).
class Scope {
public:
  Scope(SpanRecorder *Rec, const char *Name, const char *Layer)
      : Rec(Rec), Id(Rec ? Rec->begin(Name, Layer) : -1) {}
  ~Scope() {
    if (Rec)
      Rec->end(Id);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  SpanRecorder *Rec;
  int Id;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
