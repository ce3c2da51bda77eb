//===- perfbench/driver/Spans.cpp - In-memory layer spans -----------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <cassert>
#include <stdexcept>

using namespace perfbench;

int SpanRecorder::begin(std::string Name, std::string Layer) {
  Span S;
  S.Name = std::move(Name);
  S.Layer = std::move(Layer);
  S.StartUs = nowUs();
  S.Parent = Open.empty() ? -1 : Open.back();
  Spans.push_back(std::move(S));
  Open.push_back(static_cast<int>(Spans.size() - 1));
  return Open.back();
}

void SpanRecorder::end(int Id) {
  if (Open.empty() || Open.back() != Id)
    throw std::logic_error("span closed out of order");
  Spans[Id].EndUs = nowUs();
  Open.pop_back();
}

void SpanRecorder::addChild(std::string Name, std::string Layer,
                            double Seconds) {
  assert(!Open.empty() && "addChild needs an open parent span");
  Span S;
  S.Name = std::move(Name);
  S.Layer = std::move(Layer);
  S.Parent = Open.back();
  S.StartUs = Spans[S.Parent].StartUs;
  S.EndUs = S.StartUs + Seconds * 1e6;
  Spans.push_back(std::move(S));
}

double SpanRecorder::seconds(int Id) const {
  return (Spans[Id].EndUs - Spans[Id].StartUs) * 1e-6;
}

std::map<std::string, double> SpanRecorder::selfSeconds(int Root) const {
  // Spans are appended in begin order, so a parent always precedes its
  // children: one forward pass marks the root's subtree.
  std::vector<bool> InTree(Spans.size(), false);
  std::vector<double> ChildUs(Spans.size(), 0.0);
  for (std::size_t I = Root; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    InTree[I] = static_cast<int>(I) == Root ||
                (S.Parent >= 0 && InTree[S.Parent]);
    if (InTree[I] && static_cast<int>(I) != Root)
      ChildUs[S.Parent] += S.EndUs - S.StartUs;
  }
  std::map<std::string, double> Self;
  for (std::size_t I = Root; I != Spans.size(); ++I)
    if (InTree[I])
      Self[Spans[I].Layer] +=
          (Spans[I].EndUs - Spans[I].StartUs - ChildUs[I]) * 1e-6;
  return Self;
}

namespace {

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    Out += C;
  }
  return Out;
}

} // namespace

bool SpanRecorder::writeChromeTrace(
    const std::string &Path,
    const std::map<std::string, double> &Summary) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                 "\"args\": {\"id\": %zu, \"parent\": %d}}",
                 I ? ",\n" : "", jsonEscape(S.Name).c_str(),
                 jsonEscape(S.Layer).c_str(), S.StartUs, S.EndUs - S.StartUs,
                 I, S.Parent);
  }
  std::fprintf(F, "\n], \"otherData\": {");
  bool First = true;
  for (const auto &[Key, Value] : Summary) {
    std::fprintf(F, "%s\"%s\": %.9g", First ? "" : ", ",
                 jsonEscape(Key).c_str(), Value);
    First = false;
  }
  std::fprintf(F, "}}\n");
  return std::fclose(F) == 0;
}
