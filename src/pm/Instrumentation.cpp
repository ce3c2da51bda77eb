//===- pm/Instrumentation.cpp - Pipeline timing, verification --------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pm/Instrumentation.h"

#include "ir/Function.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "support/EnvParse.h"

using namespace dae;
using namespace dae::pm;

PipelineConfig &pm::config() {
  static PipelineConfig C = [] {
    PipelineConfig Init;
    Init.VerifyEach = support::envBool01Or("DAECC_VERIFY_EACH", false);
    return Init;
  }();
  return C;
}

PipelineStats &PipelineStats::get() {
  static PipelineStats S;
  return S;
}

void PipelineStats::notePass(const std::string &Name, double Seconds,
                             bool Changed) {
  std::lock_guard<std::mutex> Lock(Mutex);
  PassStat &S = Passes[Name];
  ++S.Runs;
  S.Changed += Changed ? 1 : 0;
  S.Seconds += Seconds;
}

void PipelineStats::noteAnalysis(const std::string &Name, double Seconds,
                                 bool CacheHit) {
  std::lock_guard<std::mutex> Lock(Mutex);
  AnalysisStat &S = Analyses[Name];
  if (CacheHit)
    ++S.CacheHits;
  else
    ++S.Computes;
  S.Seconds += Seconds;
}

std::map<std::string, PassStat> PipelineStats::passes() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Passes;
}

std::map<std::string, AnalysisStat> PipelineStats::analyses() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Analyses;
}

std::string PipelineStats::json() const {
  auto P = passes();
  auto A = analyses();
  std::string Out = "{\"passes\": [";
  bool First = true;
  char Buf[256];
  for (const auto &[Name, S] : P) {
    std::snprintf(Buf, sizeof Buf,
                  "%s{\"name\": \"%s\", \"runs\": %llu, \"changed\": %llu, "
                  "\"wall_seconds\": %.6f}",
                  First ? "" : ", ", Name.c_str(),
                  static_cast<unsigned long long>(S.Runs),
                  static_cast<unsigned long long>(S.Changed), S.Seconds);
    Out += Buf;
    First = false;
  }
  Out += "], \"analyses\": [";
  First = true;
  for (const auto &[Name, S] : A) {
    std::snprintf(Buf, sizeof Buf,
                  "%s{\"name\": \"%s\", \"computes\": %llu, "
                  "\"cache_hits\": %llu, \"wall_seconds\": %.6f}",
                  First ? "" : ", ", Name.c_str(),
                  static_cast<unsigned long long>(S.Computes),
                  static_cast<unsigned long long>(S.CacheHits), S.Seconds);
    Out += Buf;
    First = false;
  }
  Out += "]}";
  return Out;
}

void PipelineStats::print(std::FILE *Out) const {
  auto P = passes();
  auto A = analyses();
  std::fprintf(Out, "\n[pass-stats] pass            runs  changed  seconds\n");
  for (const auto &[Name, S] : P)
    std::fprintf(Out, "[pass-stats] %-15s %5llu  %7llu  %.6f\n", Name.c_str(),
                 static_cast<unsigned long long>(S.Runs),
                 static_cast<unsigned long long>(S.Changed), S.Seconds);
  std::fprintf(Out,
               "[pass-stats] analysis     computes  cache-hits  seconds\n");
  for (const auto &[Name, S] : A)
    std::fprintf(Out, "[pass-stats] %-12s %8llu  %10llu  %.6f\n", Name.c_str(),
                 static_cast<unsigned long long>(S.Computes),
                 static_cast<unsigned long long>(S.CacheHits), S.Seconds);
}

void PipelineStats::reset() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Passes.clear();
  Analyses.clear();
}

void pm::verifyNow(const ir::Function &F, const char *Context) {
  std::vector<std::string> Problems = ir::verifyFunction(F);
  if (Problems.empty())
    return;
  std::fprintf(stderr, "daecc: IR verification failed after %s in '%s':\n",
               Context, F.getName().c_str());
  for (const std::string &P : Problems)
    std::fprintf(stderr, "  %s\n", P.c_str());
  std::fprintf(stderr, "%s\n",
               ir::printFunction(const_cast<ir::Function &>(F)).c_str());
  std::abort();
}

void pm::verifyGenerated(const ir::Function &F, const char *Context) {
#ifdef NDEBUG
  if (!config().VerifyEach)
    return;
#endif
  verifyNow(F, Context);
}
