//===- perfbench/driver/main.cpp - Benchmark process ----------------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// One workload in one process:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --expected FILE [--scale full|test] [--trace-out FILE]
//
// Repeats the whole experiment until S seconds have passed (at least once),
// sampling set-up after each repetition. With
// --trace 1 every repetition is an untraced run followed by a traced one, so
// the tracing overhead is measured in the same process. The last line of
// stdout is one JSON object with the medians, the exact counts and every
// failed check; perfbench/run.py turns it into the benchmark's result line.
//
//===----------------------------------------------------------------------===//

#include "Experiments.h"
#include "Spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <thread>

#include <sys/resource.h>

using namespace perfbench;

namespace {

/// Set-up samples taken after each repetition. One set-up takes well under a
/// millisecond, so a run of a few long repetitions needs more samples than
/// it has repetitions; taking them between the repetitions, not in a burst
/// at start-up, lets them see the same host conditions as the repetitions.
constexpr int SetupsPerRepetition = 50;

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --expected FILE [--scale full|test] "
               "[--trace-out FILE]\n",
               Why);
  std::exit(2);
}

struct Options {
  std::string Workload;
  std::uint64_t Seed = 0;
  double Seconds = 0.0;
  bool Trace = false;
  bool HaveSeed = false, HaveTrace = false;
  dae::workloads::Scale Scale = dae::workloads::Scale::Full;
  std::string Expected;
  std::string TraceOut;
};

Options parse(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V.c_str(), &End, 10);
      O.HaveSeed = *End == '\0' && !V.empty();
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V.c_str(), &End);
      if (*End != '\0' || !(O.Seconds > 0.0))
        usage("--seconds must be a positive number");
    } else if (A == "--trace") {
      O.HaveTrace = V == "0" || V == "1";
      O.Trace = V == "1";
    } else if (A == "--scale") {
      if (V != "full" && V != "test")
        usage("--scale must be full or test");
      O.Scale = V == "test" ? dae::workloads::Scale::Test
                            : dae::workloads::Scale::Full;
    } else if (A == "--expected") {
      O.Expected = V;
    } else if (A == "--trace-out") {
      O.TraceOut = V;
    } else {
      usage(("unknown argument " + A).c_str());
    }
  }
  if (!findWorkload(O.Workload))
    usage("unknown or missing --workload");
  if (!O.HaveSeed || !O.HaveTrace || O.Seconds <= 0.0 || O.Expected.empty())
    usage("--seed, --seconds, --trace and --expected are required");
  return O;
}

/// Lines of "<scale> <workload> <app> <digest>"; '#' starts a comment.
DigestTable loadDigests(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    usage(("cannot read " + Path).c_str());
  DigestTable T;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream L(Line);
    std::string Scale, Workload, App, Digest;
    if (!(L >> Scale >> Workload >> App >> Digest))
      usage(("malformed line in " + Path + ": " + Line).c_str());
    T[{Scale, {Workload, App}}] = Digest;
  }
  return T;
}

/// Splitmix64-driven Fisher-Yates shuffle of \p Apps.
std::vector<std::string> permute(std::vector<std::string> Apps,
                                 std::uint64_t Seed) {
  std::uint64_t State = Seed;
  auto Next = [&State] {
    std::uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  };
  for (std::size_t I = Apps.size(); I > 1; --I)
    std::swap(Apps[I - 1], Apps[Next() % I]);
  return Apps;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  std::size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

std::string quote(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out + "\"";
}

std::string num(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

template <typename Map, typename Fmt>
std::string object(const Map &M, Fmt F) {
  std::string Out = "{";
  for (const auto &[K, V] : M)
    Out += (Out.size() > 1 ? ", " : "") + quote(K) + ": " + F(V);
  return Out + "}";
}

bool sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

/// A per-layer metric's unit, from its name's suffix.
const char *unitOf(const std::string &Key) {
  auto Ends = [&Key](const char *Suffix) {
    std::string S = Suffix;
    return Key.size() >= S.size() &&
           Key.compare(Key.size() - S.size(), S.size(), S) == 0;
  };
  if (Ends("_per_s"))
    return "M/s";
  if (Ends("_s"))
    return "s";
  if (Ends("_mb"))
    return "MB";
  if (Ends("_ns"))
    return "ns";
  if (Ends("_ratio") || Ends("_norm") || Ends("_min"))
    return "ratio";
  return "count";
}

/// Keys of \p Sub that \p Super lacks or holds with another value.
std::vector<std::string>
exactMismatches(const std::map<std::string, std::uint64_t> &Sub,
                const std::map<std::string, std::uint64_t> &Super) {
  std::vector<std::string> Bad;
  for (const auto &[K, V] : Sub) {
    auto It = Super.find(K);
    if (It == Super.end() || It->second != V)
      Bad.push_back(K);
  }
  return Bad;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parse(Argc, Argv);
  DigestTable Expected = loadDigests(O.Expected);
  RepInput In;
  In.Spec = findWorkload(O.Workload);
  // The seed permutes a co-run's core assignment. A suite keeps the paper's
  // order: its apps are independent, and reordering them only reshuffles
  // the allocator's reuse of freed simulation memory, which moves peak RSS
  // by up to a third on a suite without any change to the program.
  In.Order = In.Spec->Mix ? permute(In.Spec->Apps, O.Seed) : In.Spec->Apps;
  In.Scale = O.Scale;
  In.Expected = &Expected;

  std::vector<double> Setup, Wall, TracedTotal;
  std::vector<RepResult> Untraced, Traced;
  std::map<std::string, std::vector<double>> LayerSamples;
  std::uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Problems;
  SpanRecorder Rec;

  auto Run = [&](bool Trace) {
    RepResult R;
    bool Threw = false;
    try {
      R = Trace ? runTraced(In, Rec) : runUntraced(In);
    } catch (const std::exception &E) {
      Threw = true;
      R = RepResult();
      R.Attempted = R.Failed = 1;
      R.Problems.push_back(std::string("exception: ") + E.what());
    }
    std::fprintf(stderr,
                 "[perfbench] %s repetition: setup %.6f s, wall %.6f s\n",
                 Trace ? "traced" : "untraced", R.SetupSec, R.WallSec);
    Attempted += R.Attempted;
    Failed += R.Failed;
    Problems.insert(Problems.end(), R.Problems.begin(), R.Problems.end());
    // A repetition that threw has no times to report.
    if (Trace) {
      if (!Threw) {
        TracedTotal.push_back(R.WallSec);
        for (const auto &[K, V] : R.Layers)
          LayerSamples[K].push_back(V);
      }
      Traced.push_back(std::move(R));
    } else {
      if (!Threw) {
        Setup.push_back(R.SetupSec);
        Wall.push_back(R.WallSec);
      }
      Untraced.push_back(std::move(R));
    }
  };

  auto Start = std::chrono::steady_clock::now();
  try {
    do {
      Run(false);
      if (O.Trace)
        Run(true);
      for (int I = 0; I != SetupsPerRepetition; ++I)
        Setup.push_back(measureSetup(In));
    } while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           Start)
                 .count() < O.Seconds);
  } catch (const std::exception &E) {
    // Run() catches a repetition's own failures; this is set-up sampling.
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", E.what());
    return 1;
  }

  // Every repetition must reproduce the first one's counts, guards and
  // digests exactly; the traced flavour must reproduce the untraced one's.
  // \p Subset compares only what \p A observed (the untraced flavour sees
  // fewer counts and, on a co-run, no output bytes).
  auto Compare = [&](const RepResult &A, const RepResult &B, const char *What,
                     bool Subset) {
    std::vector<std::string> Bad = exactMismatches(A.Exact, B.Exact);
    if (!Subset && Bad.empty())
      Bad = exactMismatches(B.Exact, A.Exact);
    if (A.EdpGainPct != B.EdpGainPct || A.OracleEdpNorm != B.OracleEdpNorm ||
        A.StrictCoverageMin != B.StrictCoverageMin)
      Bad.push_back("result guards");
    for (const auto &[App, D] : A.Digests) {
      auto It = B.Digests.find(App);
      if (It == B.Digests.end() ? !Subset : It->second != D)
        Bad.push_back("digest of " + App);
    }
    for (const std::string &K : Bad)
      Problems.push_back(std::string(What) + " differs: " + K);
  };
  for (std::size_t I = 1; I < Untraced.size(); ++I)
    Compare(Untraced[0], Untraced[I], "untraced repetition", false);
  for (std::size_t I = 1; I < Traced.size(); ++I)
    Compare(Traced[0], Traced[I], "traced repetition", false);
  if (!Traced.empty())
    Compare(Untraced[0], Traced[0], "traced run vs untraced", true);

  const RepResult &First = Untraced.front();
  std::map<std::string, std::pair<double, const char *>> Metrics;
  if (O.Trace) {
    for (const auto &[K, V] : LayerSamples)
      Metrics[K] = {median(V), unitOf(K)};
    Metrics["harness.trace_overhead_s"] = {median(TracedTotal) - median(Wall),
                                           "s"};
    if (!O.TraceOut.empty()) {
      std::map<std::string, double> Summary;
      for (const auto &[K, V] : Metrics)
        Summary[K] = V.first;
      if (!Rec.writeChromeTrace(O.TraceOut, Summary))
        Problems.push_back("cannot write " + O.TraceOut);
    }
  } else {
    struct rusage RU;
    getrusage(RUSAGE_SELF, &RU);
    // The median repetition, not the fastest: on a shared host the program
    // runs slowed by its neighbours most of the time and in rare quiet
    // windows runs up to 20% faster, so the fastest of a few repetitions
    // depends on whether a run happened to catch such a window.
    Metrics["wall_s"] = {median(Wall), "s"};
    Metrics["setup_s"] = {median(Setup), "s"};
    Metrics["peak_rss_mb"] = {RU.ru_maxrss * 1024.0 * 1e-6, "MB"};
    std::uint64_t Attempts = std::max<std::uint64_t>(1, Attempted);
    Metrics["pass_ratio"] = {
        1.0 - static_cast<double>(Failed) / static_cast<double>(Attempts),
        "ratio"};
    Metrics["edp_gain_pct"] = {First.EdpGainPct, "%"};
  }

  std::printf("[perfbench] %s seed %llu: %zu repetition%s (median wall "
              "%.4f s), %llu/%llu operations failed, edp_gain_pct %.4f, "
              "oracle_edp_norm %.4f, strict_coverage_min %.4f\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              Untraced.size(), Untraced.size() == 1 ? "" : "s", median(Wall),
              static_cast<unsigned long long>(Failed),
              static_cast<unsigned long long>(Attempted), First.EdpGainPct,
              First.OracleEdpNorm, First.StrictCoverageMin);
  for (const std::string &P : Problems)
    std::printf("[perfbench] problem: %s\n", P.c_str());

  std::string Order;
  for (const std::string &A : In.Order)
    Order += (Order.empty() ? "" : ",") + A;
  std::string Walls;
  for (double W : Wall)
    Walls += (Walls.empty() ? "" : ", ") + num(W);
  std::ostringstream J;
  J << "{\"workload\": " << quote(O.Workload) << ", \"seed\": " << O.Seed
    << ", \"trace\": " << (O.Trace ? 1 : 0) << ", \"scale\": "
    << quote(O.Scale == dae::workloads::Scale::Test ? "test" : "full")
    << ", \"order\": " << quote(Order)
    << ", \"repetitions\": " << Untraced.size() << ", \"walls\": [" << Walls
    << "], \"attempted\": " << Attempted << ", \"failed\": " << Failed
    << ", \"correct\": " << (Problems.empty() ? "true" : "false")
    << ", \"problems\": [";
  for (std::size_t I = 0; I != Problems.size(); ++I)
    J << (I ? ", " : "") << quote(Problems[I]);
  J << "], \"context\": {\"compiler\": " << quote(PERFBENCH_COMPILER)
    << ", \"build_type\": " << quote(PERFBENCH_BUILD_TYPE)
    << ", \"sanitizer\": " << (sanitized() ? "true" : "false")
    << ", \"backend\": "
    << quote(dae::sim::simBackendName(In.Spec->Backend))
    << ", \"nproc\": " << std::thread::hardware_concurrency() << "}"
    << ", \"metrics\": "
    << object(Metrics,
              [](const std::pair<double, const char *> &V) {
                return "{\"value\": " + num(V.first) +
                       ", \"unit\": " + quote(V.second) + "}";
              })
    << ", \"guards\": {\"edp_gain_pct\": " << num(First.EdpGainPct)
    << ", \"oracle_edp_norm\": " << num(First.OracleEdpNorm)
    << ", \"strict_coverage_min\": " << num(First.StrictCoverageMin) << "}"
    << ", \"exact\": "
    << object(O.Trace ? Traced.front().Exact : First.Exact,
              [](std::uint64_t V) { return std::to_string(V); })
    << ", \"digests\": "
    << object(O.Trace ? Traced.front().Digests : First.Digests,
              [](const std::string &V) { return quote(V); })
    << "}";
  std::printf("%s\n", J.str().c_str());
  return 0;
}
