//===- launchbench/main.cpp - Launch benchmark entry point ----------------===//
///
/// \file
/// Usage:
///   launchbench --workload NAME --seed N --seconds S --trace 0|1
///               [--work-dir DIR] [--out-dir DIR]
///
/// Sets the workload up several times (the median is setup_s), runs
/// closed-loop launch rounds for S seconds and prints, as the last line
/// of standard output, one JSON object with the end-to-end metrics
/// (--trace 0) or the per-layer metrics of a traced run (--trace 1).
/// See README.md for every metric's definition and clock.
///
//===----------------------------------------------------------------------===//

#include "Launch.h"
#include "Stats.h"
#include "Tracing.h"

#include "analysis/CertChecker.h"
#include "dbi/Compiler.h"
#include "isa/Instruction.h"
#include "persist/CacheView.h"
#include "persist/DbCheck.h"
#include "persist/DirectoryStore.h"
#include "support/FileSystem.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <thread>
#include <unordered_map>

#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

using namespace launchbench;
using namespace pcc;

namespace {

/// Set-ups per run; setup_s is the median of their scaled times.
constexpr unsigned SetUps = 7;
/// The calibration kernel's time on the reference host (4-vCPU Xeon,
/// fast period). Host times are scaled to this speed (see calibrate).
constexpr double ReferenceCalibrationMs = 2.5;
/// Least time between two calibrations of a timed phase.
constexpr int64_t CalibrationIntervalNs = 100'000'000;
/// Calibrations before each set-up and after the last one.
constexpr unsigned CalibrationsPerSetUp = 3;
/// Leading rounds of a timed phase the modeled metrics are taken from:
/// a fixed set of launches, so those metrics repeat exactly for a seed
/// however many rounds the host manages in the time given.
constexpr unsigned ModeledRounds = 3;
/// Launches a timed phase needs at least, so its p90 has ten beyond it.
/// Every block of a phase (see blocksOf) needs as many.
constexpr size_t MinLaunches = 100;
/// A timed phase is cut into about this many blocks of whole rounds.
constexpr unsigned TargetBlocks = 16;
/// Span tag of the post-run store probe (not a launch).
constexpr uint32_t ProbeLaunch = ~0u;

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  std::string WorkDir = ".bench_build/work";
  std::string OutDir = ".bench_build/out";
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "launchbench: %s\nusage: launchbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--out-dir DIR]\n",
               Why);
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 == Argc)
      usage(("missing value for " + Flag).c_str());
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = Value;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(Value.c_str(), &End, 10);
      HaveSeed = End && *End == '\0' && !Value.empty();
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(Value.c_str(), &End);
      HaveSeconds = End && *End == '\0' && A.Seconds > 0;
    } else if (Flag == "--trace") {
      A.Trace = Value == "1";
      HaveTrace = Value == "0" || Value == "1";
    } else if (Flag == "--work-dir") {
      A.WorkDir = Value;
    } else if (Flag == "--out-dir") {
      A.OutDir = Value;
    } else {
      usage(("unknown flag " + Flag).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace)
    usage("--workload, --seed, --seconds and --trace are required");
  bool Known = false;
  for (const std::string &N : workloadNames())
    Known = Known || N == A.Workload;
  if (!Known)
    usage(("unknown workload " + A.Workload).c_str());
  return A;
}

std::string fmt(double V) {
  char Buf[64];
  auto R = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, R.ptr);
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      Out += ' ';
    else
      Out += C;
  }
  return Out;
}

double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) { return T.tv_sec + T.tv_usec / 1e6; };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

/// Host facts recorded with every result.
std::string hostRecord(const Args &A) {
  utsname U{};
  uname(&U);
  return std::string("{\"workload\":\"") + A.Workload +
         "\",\"seed\":" + std::to_string(A.Seed) +
         ",\"seconds\":" + fmt(A.Seconds) + ",\"trace\":" +
         (A.Trace ? "1" : "0") +
         ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"compiler\":\"g++ " + jsonEscape(__VERSION__) +
         "\",\"build_type\":\"" LAUNCHBENCH_BUILD_TYPE
         "\",\"cxx_flags\":\"" +
         jsonEscape(LAUNCHBENCH_CXX_FLAGS) + "\",\"kernel\":\"" +
         jsonEscape(std::string(U.sysname) + " " + U.release) +
         "\",\"modeled_rounds\":" + std::to_string(ModeledRounds) + "}";
}

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// One timed phase: its samples and the host resources it used.
struct Phase {
  std::vector<LaunchSample> Samples;
  std::vector<uint32_t> FirstRound; ///< Per client, at phase start.
  /// Host clocks at phase start, at the start of each round of client 0
  /// and at phase end.
  struct Mark {
    int64_t Ns = 0;
    double Cpu = 0;
  };
  std::vector<Mark> Marks;
  /// Calibrations: when each ran and its time in milliseconds.
  std::vector<std::pair<int64_t, double>> Calibrations;

  double wallSeconds() const {
    return (Marks.back().Ns - Marks.front().Ns) / 1e9;
  }

  size_t failed() const {
    size_t N = 0;
    for (const LaunchSample &S : Samples)
      N += !S.Ok;
    return N;
  }
  /// Samples of the phase's first ModeledRounds rounds.
  bool modeled(const LaunchSample &S) const {
    return S.Round < FirstRound[S.Client] + ModeledRounds;
  }
  /// Get() of every successful launch, or only of the modeled ones.
  template <typename F>
  std::vector<double> collect(F Get, bool ModeledOnly = false) const {
    std::vector<double> V;
    for (const LaunchSample &S : Samples)
      if (S.Ok && (!ModeledOnly || modeled(S)))
        V.push_back(Get(S));
    return V;
  }
};

constexpr size_t CalibrationCopyBytes = 1 << 20;

/// Fixed work that shares no code with the program under test: 20000
/// hash-map updates and lookups, then a copy into 1 MiB of fresh pages.
/// Returns its wall time in milliseconds.
///
/// The host this benchmark was tuned on shares its cores with other
/// tenants, and its speed changes by up to about 2x within minutes. Host
/// times are therefore scaled by ReferenceCalibrationMs over the time
/// this kernel took beside them. Of the kernels tried (random reads over
/// 4 MiB, a branchy bytecode loop, this one), this one followed the
/// launch times most closely (see README.md).
double calibrate() {
  const int64_t T0 = nowNs();
  std::unordered_map<uint64_t, uint64_t> Map;
  uint64_t X = 0x2545F4914F6CDD1Dull, Acc = 0;
  for (unsigned I = 0; I != 20000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    Map[X & 0xFFFFF] += I;
    auto It = Map.find((X >> 20) & 0xFFFFF);
    if (It != Map.end())
      Acc += It->second;
  }
  // The pages come from mmap, not malloc: how malloc serves a 1 MiB
  // request depends on the heap the program left behind, and the kernel
  // must do the same work on every call.
  static const std::vector<uint8_t> From(CalibrationCopyBytes, 1);
  void *To = mmap(nullptr, CalibrationCopyBytes, PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (To != MAP_FAILED) {
    std::memcpy(To, From.data(), CalibrationCopyBytes);
    Acc += static_cast<const uint8_t *>(To)[X % CalibrationCopyBytes];
    munmap(To, CalibrationCopyBytes);
  }
  static volatile uint64_t Sink;
  Sink = Sink + Acc;
  return (nowNs() - T0) / 1e6;
}

double pct(const std::vector<double> &V, unsigned Percent,
           std::vector<std::string> &Violations, const char *What) {
  auto P = percentile(V, Percent);
  if (!P) {
    Violations.push_back(std::string("too few launches for the p") +
                         std::to_string(Percent) + " of " + What);
    return 0;
  }
  return *P;
}

Phase runPhase(Workload &W, const persist::CacheDatabase &Db,
               double Seconds, SpanRecorder *Rec) {
  Phase P;
  P.FirstRound = W.RoundsRun;
  const size_t PerRound = W.Jobs.size() * W.Clients;
  const unsigned MinRounds = std::max<unsigned>(
      ModeledRounds, static_cast<unsigned>((MinLaunches + PerRound - 1) /
                                           PerRound));
  auto Mark = [&P] {
    // Client 0 calibrates between its rounds, so every block of the
    // phase has the host speed of its own time.
    if (P.Calibrations.empty() ||
        nowNs() - P.Calibrations.back().first >= CalibrationIntervalNs)
      P.Calibrations.push_back({nowNs(), calibrate()});
    P.Marks.push_back({nowNs(), cpuSeconds()});
  };
  Mark();
  P.Samples = runRounds(W, Db,
                        P.Marks[0].Ns + static_cast<int64_t>(Seconds * 1e9),
                        MinRounds, ~0u, Rec, /*FixedOrder=*/false, Mark);
  Mark();
  return P;
}

/// Host figures of one block of a timed phase, as measured.
struct Block {
  double ReadyP50 = 0, ReadyP90 = 0, CpuMsPerLaunch = 0;
  double CalibrationMs = 0; ///< Median calibration of the block.
  /// ReferenceCalibrationMs / CalibrationMs: multiplies a host time of
  /// the block into a time at the reference speed.
  double scale() const { return ReferenceCalibrationMs / CalibrationMs; }
};

/// Cuts \p P at its marks into blocks of whole rounds of client 0. Each
/// block lasts at least 1/TargetBlocks of the phase and starts at least
/// MinLaunches launches; a remainder too short for a block of its own
/// joins the last one. A launch belongs to the block it started in, and
/// a calibration to the block it ran in (a block without one takes the
/// latest before it).
std::vector<Block> blocksOf(const Phase &P,
                            std::vector<std::string> &Violations) {
  std::vector<int64_t> Starts;
  for (const LaunchSample &S : P.Samples)
    Starts.push_back(S.StartNs);
  std::sort(Starts.begin(), Starts.end());
  auto startedBefore = [&](int64_t Ns) {
    return static_cast<size_t>(
        std::lower_bound(Starts.begin(), Starts.end(), Ns) - Starts.begin());
  };
  const std::vector<Phase::Mark> &M = P.Marks;
  const int64_t MinNs = (M.back().Ns - M.front().Ns) / TargetBlocks;
  std::vector<size_t> Cuts = {0};
  for (size_t I = 1; I + 1 < M.size(); ++I)
    if (M[I].Ns - M[Cuts.back()].Ns >= MinNs &&
        startedBefore(M[I].Ns) - startedBefore(M[Cuts.back()].Ns) >=
            MinLaunches)
      Cuts.push_back(I);
  if (Cuts.size() > 1 &&
      (M.back().Ns - M[Cuts.back()].Ns < MinNs ||
       Starts.size() - startedBefore(M[Cuts.back()].Ns) < MinLaunches))
    Cuts.pop_back();
  Cuts.push_back(M.size() - 1);

  std::vector<Block> Blocks;
  for (size_t K = 0; K + 1 != Cuts.size(); ++K) {
    const Phase::Mark &A = M[Cuts[K]], &B = M[Cuts[K + 1]];
    std::vector<double> Ready;
    size_t Started = 0;
    for (const LaunchSample &S : P.Samples) {
      if (S.StartNs < A.Ns || S.StartNs >= B.Ns)
        continue;
      ++Started;
      if (S.Ok)
        Ready.push_back(S.readyMs());
    }
    std::vector<double> Calibrations;
    double Before = P.Calibrations.front().second;
    for (const auto &[Ns, Ms] : P.Calibrations) {
      if (Ns < A.Ns)
        Before = Ms;
      else if (Ns < B.Ns)
        Calibrations.push_back(Ms);
    }
    Block Bl;
    Bl.CalibrationMs = Calibrations.empty() ? Before : median(Calibrations);
    Bl.ReadyP50 = pct(Ready, 50, Violations, "ready_ms");
    Bl.ReadyP90 = pct(Ready, 90, Violations, "ready_ms");
    Bl.CpuMsPerLaunch = (B.Cpu - A.Cpu) * 1e3 / std::max<size_t>(Started, 1);
    Blocks.push_back(Bl);
  }
  return Blocks;
}

/// What the post-run certificate probe found.
struct CertProbe {
  uint64_t Certs = 0;
  uint64_t Rejected = 0;
  double Micros = 0;
  std::string FirstReject;
};

/// Opens every cache file of \p Dir with CacheFileView and checks every
/// certificate blob with the trusted checker; the sweep over the trace
/// index (certificate lookups and checks) is what Micros times.
CertProbe probeCertificates(const std::string &Dir) {
  CertProbe P;
  auto Names = listDirectory(Dir);
  if (!Names)
    return P;
  for (const std::string &Name : *Names) {
    if (Name.size() < 4 || Name.compare(Name.size() - 4, 4, ".pcc") != 0)
      continue;
    auto View = persist::CacheFileView::openFile(
        Dir + "/" + Name, persist::CacheFileView::Depth::Index);
    if (!View) {
      if (P.Rejected++ == 0)
        P.FirstReject = Name + ": " + View.status().toString();
      continue;
    }
    const int64_t T0 = nowNs();
    for (uint32_t I = 0; I != View->numTraces(); ++I) {
      auto [Data, Size] = View->certBlobOf(I);
      if (!Data)
        continue;
      ++P.Certs;
      const persist::TraceIndexEntry &E = View->entry(I);
      const size_t BodyBytes =
          static_cast<size_t>(E.GuestInstCount) * isa::InstructionSize;
      analysis::CertCheckResult R;
      R.Status = analysis::CertCheckStatus::Malformed;
      if (E.CodeSize >= dbi::TracePrologueBytes + BodyBytes &&
          View->codeCrcOk(I)) {
        const uint8_t *Body =
            View->codeBytesOf(I) + dbi::TracePrologueBytes;
        auto Decoded = isa::decodeAll(Body, E.GuestInstCount);
        if (Decoded) {
          analysis::CertBindings Bind;
          Bind.BodyBytes = Body;
          Bind.BodyByteCount = BodyBytes;
          R = analysis::checkCertificateBlob(Data, Size, E.GuestStart,
                                             *Decoded, nullptr, &Bind);
        }
      }
      if (!R.ok() && P.Rejected++ == 0)
        P.FirstReject = Name + ": " +
                        analysis::certCheckStatusName(R.Status) + " " +
                        R.Detail;
    }
    P.Micros += (nowNs() - T0) / 1e3;
  }
  return P;
}

/// Per-launch span durations of the traced phase, by span name.
struct LaunchSpans {
  std::map<std::string, double> Us;     ///< Duration, summed by name.
  std::map<std::string, double> SelfUs; ///< Self time, summed by name.
};

std::vector<Metric> endToEndMetrics(const Phase &P,
                                    const std::vector<Block> &Blocks,
                                    double SetupSeconds, double PeakRssMb,
                                    uint64_t DiskBytes) {
  // Host times: the median over the phase's blocks of each block's
  // figure at the reference speed.
  auto scaled = [&Blocks](double Block::*Field) {
    std::vector<double> V;
    for (const Block &B : Blocks)
      V.push_back(B.*Field * B.scale());
    return median(V);
  };
  auto Cycles = P.collect(
      [](const LaunchSample &S) { return S.TotalCycles / 1e3; }, true);
  auto Ttft = P.collect(
      [](const LaunchSample &S) { return S.FirstTraceReadyCycles / 1e3; },
      true);
  const double N = static_cast<double>(P.Samples.size());
  return {
      {"ready_ms_p50", scaled(&Block::ReadyP50), "ms"},
      {"ready_ms_p90", scaled(&Block::ReadyP90), "ms"},
      {"cpu_ms_per_launch", scaled(&Block::CpuMsPerLaunch), "ms"},
      {"modeled_kcycles_per_launch", mean(Cycles), "kcycles"},
      {"modeled_ttft_kcycles_p50", median(Ttft), "kcycles"},
      {"cache_disk_bytes", static_cast<double>(DiskBytes), "bytes"},
      {"peak_rss_mb", PeakRssMb, "MB"},
      {"setup_s", SetupSeconds, "s"},
      {"ok_launch_frac", Ratio{N - P.failed(), N}.value(), "frac"},
  };
}

std::vector<Metric>
perLayerMetrics(const Phase &Untraced, const Phase &Traced,
                const std::vector<SpanEvent> &Spans, const TimedStore &Store,
                const CertProbe &Certs, double DbCheckMs,
                std::vector<std::string> &Violations,
                std::vector<std::string> &Summary) {
  const std::vector<int64_t> Self = selfTimesNs(Spans);
  std::map<uint32_t, LaunchSpans> ByLaunch;
  std::map<std::string, std::vector<double>> StoreCallUs;
  std::map<std::string, double> LayerSelfUs;
  std::map<std::string, double> CallsInPhase;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const SpanEvent &S = Spans[I];
    const std::string Name = S.Name;
    if (Name.rfind("persist.store.", 0) == 0)
      StoreCallUs[Name].push_back(S.durNs() / 1e3);
    if (S.Launch != ProbeLaunch) {
      LayerSelfUs[layerOf(S.Name)] += Self[I] / 1e3;
      CallsInPhase[Name] += 1;
    }
    if (S.Launch != 0) {
      ByLaunch[S.Launch].Us[Name] += S.durNs() / 1e3;
      ByLaunch[S.Launch].SelfUs[Name] += Self[I] / 1e3;
    }
  }

  std::vector<const LaunchSample *> Ok;
  for (const LaunchSample &S : Traced.Samples)
    if (S.Ok && ByLaunch.count(S.Id))
      Ok.push_back(&S);
  const double N = static_cast<double>(Ok.size());
  auto spanP50 = [&](const char *Name, bool SelfTime) {
    std::vector<double> V;
    for (const LaunchSample *S : Ok) {
      const LaunchSpans &L = ByLaunch[S->Id];
      const auto &M = SelfTime ? L.SelfUs : L.Us;
      auto It = M.find(Name);
      V.push_back(It == M.end() ? 0 : It->second);
    }
    return pct(V, 50, Violations, Name);
  };
  auto sumOf = [&](auto Get) {
    double Sum = 0;
    for (const LaunchSample *S : Ok)
      Sum += static_cast<double>(Get(*S));
    return Sum;
  };
  auto meanOf = [&](auto Get) { return N > 0 ? sumOf(Get) / N : 0; };
  // Per-call store latency over the traced phase plus the post-run
  // store probe, which calls every operation once.
  auto storeP50 = [&](const char *Name) {
    auto It = StoreCallUs.find(Name);
    return It == StoreCallUs.end() ? 0.0 : median(It->second);
  };
  auto perLaunch = [&](const char *Name) {
    return N > 0 ? CallsInPhase[Name] / N : 0;
  };

  const double Installed = sumOf([](auto &S) { return S.TracesInstalled; });
  double RunUs = 0;
  for (const LaunchSample *S : Ok)
    RunUs += ByLaunch[S->Id].Us["dbi.run"];
  double PrimeSelfUs = 0;
  for (const LaunchSample *S : Ok)
    PrimeSelfUs += ByLaunch[S->Id].SelfUs["persist.prime"];

  const uint64_t Publishes = Store.publishes().Published;
  const uint64_t LockRetries = Store.publishes().LockRetries;
  const double StoreRetries = sumOf([](auto &S) { return S.StoreRetries; });
  const double StoreFailures =
      sumOf([](auto &S) { return S.StoreFailures; }) +
      std::max(0.0, StoreRetries - static_cast<double>(LockRetries));

  auto ReadyU = Untraced.collect([](auto &S) { return S.readyMs(); });
  auto LaunchU = Untraced.collect([](auto &S) { return S.launchMs(); });
  auto ReadyT = Traced.collect([](auto &S) { return S.readyMs(); });
  auto LaunchT = Traced.collect([](auto &S) { return S.launchMs(); });
  std::vector<double> CalibrationsU;
  for (const auto &C : Untraced.Calibrations)
    CalibrationsU.push_back(C.second);
  const double ReadyUntraced = pct(ReadyU, 50, Violations, "ready_ms");
  const double ReadyTraced = pct(ReadyT, 50, Violations, "ready_ms");
  const double LaunchTraced = pct(LaunchT, 50, Violations, "launch_ms");
  const double Unattributed = spanP50("launch", true) / 1e3;

  for (const auto &[Layer, Us] : LayerSelfUs)
    Summary.push_back(Layer + " " + fmt(N > 0 ? Us / N : 0));

  return {
      {"trace.launches", N, "count"},
      {"trace.ready_ms_p50_untraced", ReadyUntraced, "ms"},
      {"trace.ready_ms_p50_traced", ReadyTraced, "ms"},
      {"trace.overhead_ready_ms", ReadyTraced - ReadyUntraced, "ms"},
      {"trace.launch_ms_p50_traced", LaunchTraced, "ms"},
      {"trace.launch_ms_p50_untraced",
       pct(LaunchU, 50, Violations, "launch_ms"), "ms"},
      {"trace.launch_ms_p90_untraced",
       pct(LaunchU, 90, Violations, "launch_ms"), "ms"},
      {"trace.launches_per_s_untraced",
       Untraced.Samples.size() / Untraced.wallSeconds(), "1/s"},
      {"host.calibration_ms", median(CalibrationsU), "ms"},
      {"trace.unattributed_ms_p50", Unattributed, "ms"},
      {"trace.unattributed_frac",
       Ratio{Unattributed, LaunchTraced}.value(), "frac"},
      {"loader.make_machine_us", spanP50("loader.make_machine", false), "us"},
      {"persist.prime_us", spanP50("persist.prime", false), "us"},
      {"persist.prime_self_us", spanP50("persist.prime", true), "us"},
      {"persist.traces_installed", Installed / std::max(N, 1.0),
       "count/launch"},
      {"persist.install_us_per_trace", Ratio{PrimeSelfUs, Installed}.value(),
       "us/trace"},
      {"persist.reuse_ratio",
       Ratio{sumOf([](auto &S) { return S.TracesReused; }), Installed}
           .value(),
       "frac"},
      {"persist.links_restored", meanOf([](auto &S) { return S.LinksRestored; }),
       "count/launch"},
      {"persist.payload_bytes_copied",
       meanOf([](auto &S) { return S.PayloadBytesCopied; }), "bytes/launch"},
      {"persist.xip_install_frac",
       Ratio{sumOf([](auto &S) { return S.XipInstalled; }), N}.value(),
       "frac"},
      {"persist.shared_page_hits",
       meanOf([](auto &S) { return S.SharedPageHits; }), "count/launch"},
      {"persist.payload_jobs_queued",
       meanOf([](auto &S) { return S.PayloadJobsQueued; }), "count/launch"},
      {"persist.finalize_us", spanP50("persist.finalize", false), "us"},
      {"persist.finalize_self_us", spanP50("persist.finalize", true), "us"},
      {"persist.wait_us", spanP50("persist.wait", false), "us"},
      {"persist.modeled_kcycles",
       meanOf([](auto &S) { return S.PersistCycles; }) / 1e3,
       "kcycles/launch"},
      {"persist.store.exists_us", storeP50("persist.store.exists"), "us"},
      {"persist.store.open_us", storeP50("persist.store.open"), "us"},
      {"persist.store.find_compatible_us",
       storeP50("persist.store.find_compatible"), "us"},
      {"persist.store.load_us", storeP50("persist.store.load"), "us"},
      {"persist.store.publish_us", storeP50("persist.store.publish"), "us"},
      {"persist.store.exists_calls", perLaunch("persist.store.exists"),
       "count/launch"},
      {"persist.store.open_calls", perLaunch("persist.store.open"),
       "count/launch"},
      {"persist.store.find_compatible_calls",
       perLaunch("persist.store.find_compatible"), "count/launch"},
      {"persist.store.load_calls", perLaunch("persist.store.load"),
       "count/launch"},
      {"persist.store.publish_calls", perLaunch("persist.store.publish"),
       "count/launch"},
      {"persist.store.publish_merged_frac",
       Ratio{static_cast<double>(Store.publishes().Merged),
             static_cast<double>(Publishes)}
           .value(),
       "frac"},
      {"persist.store.lock_retries_per_publish",
       Ratio{static_cast<double>(LockRetries),
             static_cast<double>(Publishes)}
           .value(),
       "retries/publish"},
      {"persist.store.failures", StoreFailures, "count"},
      {"dbi.run_us", spanP50("dbi.run", false), "us"},
      {"dbi.guest_minsts_per_s",
       Ratio{sumOf([](auto &S) { return S.GuestInsts; }), RunUs}.value(),
       "Minsts/s"},
      {"dbi.traces_compiled", meanOf([](auto &S) { return S.TracesCompiled; }),
       "count/launch"},
      {"dbi.traces_reused", meanOf([](auto &S) { return S.TracesReused; }),
       "count/launch"},
      {"dbi.payloads_validated",
       meanOf([](auto &S) { return S.PayloadsValidated; }), "count/launch"},
      {"dbi.traces_dropped_corrupt",
       sumOf([](auto &S) { return S.TracesDroppedCorrupt; }), "count"},
      {"dbi.trace_executions",
       meanOf([](auto &S) { return S.TraceExecutions; }), "count/launch"},
      {"dbi.links_created", meanOf([](auto &S) { return S.LinksCreated; }),
       "count/launch"},
      {"dbi.cache_flushes", meanOf([](auto &S) { return S.CacheFlushes; }),
       "count/launch"},
      {"dbi.modeled_compile_kcycles",
       meanOf([](auto &S) { return S.CompileCycles; }) / 1e3,
       "kcycles/launch"},
      {"dbi.modeled_dispatch_kcycles",
       meanOf([](auto &S) { return S.DispatchCycles; }) / 1e3,
       "kcycles/launch"},
      {"dbi.modeled_exec_kcycles",
       meanOf([](auto &S) { return S.ExecCycles; }) / 1e3, "kcycles/launch"},
      {"dbi.modeled_vm_kcycles",
       meanOf([](auto &S) { return S.VmCycles; }) / 1e3, "kcycles/launch"},
      {"analysis.certs_checked", meanOf([](auto &S) { return S.CertsChecked; }),
       "count/launch"},
      {"analysis.cert_check_failures",
       sumOf([](auto &S) { return S.CertChecksFailed; }), "count"},
      {"analysis.proofs_replayed",
       meanOf([](auto &S) { return S.ProofsReplayed; }), "count/launch"},
      {"analysis.traces_promoted",
       meanOf([](auto &S) { return S.TracesPromoted; }), "count/launch"},
      {"analysis.validator_rejections",
       meanOf([](auto &S) { return S.ValidatorRejections; }), "count/launch"},
      {"analysis.certs_in_cache", static_cast<double>(Certs.Certs), "count"},
      {"analysis.cert_check_us", Certs.Micros, "us"},
      {"persist.dbcheck_ms", DbCheckMs, "ms"},
  };
}

} // namespace

int main(int Argc, char **Argv) {
  const Args A = parseArgs(Argc, Argv);
  if (std::string Failure = selfTest(); !Failure.empty()) {
    std::fprintf(stderr, "launchbench: self-test failed: %s\n",
                 Failure.c_str());
    return 3;
  }
  const std::string Host = hostRecord(A);
  std::printf("# host %s\n", Host.c_str());
  std::fflush(stdout);

  const std::string Base = A.WorkDir + "/" + A.Workload + "-" +
                           std::to_string(getpid());
  (void)removeRecursively(Base);
  if (!createDirectories(Base).ok() || !createDirectories(A.OutDir).ok()) {
    std::fprintf(stderr, "launchbench: cannot create %s or %s\n",
                 Base.c_str(), A.OutDir.c_str());
    return 1;
  }

  std::vector<std::string> Violations;
  auto fatal = [&](const std::string &Why) {
    std::fprintf(stderr, "launchbench: %s\n", Why.c_str());
    (void)removeRecursively(Base);
    return 1;
  };

  // Set-up, several times. Each set-up's time is scaled to the
  // reference speed by the calibrations just before and just after it;
  // setup_s is the median. The last set-up's warm database is the one
  // the timed phases launch against.
  auto calibrations = [] {
    std::vector<double> V;
    for (unsigned I = 0; I != CalibrationsPerSetUp; ++I)
      V.push_back(calibrate());
    return V;
  };
  std::vector<double> SetupSeconds;
  std::unique_ptr<Workload> W;
  Fingerprint First;
  std::vector<double> Before = calibrations();
  for (unsigned K = 0; K != SetUps; ++K) {
    if (W) {
      std::string Old = W->DbDir;
      W.reset();
      (void)removeRecursively(Old);
    }
    Fingerprint F;
    const int64_t T0 = nowNs();
    auto Set = setUpWorkload(A.Workload, Base + "/setup" + std::to_string(K),
                             A.Seed, &F);
    const double Seconds = (nowNs() - T0) / 1e9;
    if (!Set)
      return fatal("set-up failed: " + Set.status().toString());
    W = Set.take();
    std::vector<double> After = calibrations();
    std::vector<double> Around = Before;
    Around.insert(Around.end(), After.begin(), After.end());
    SetupSeconds.push_back(Seconds * ReferenceCalibrationMs / median(Around));
    Before = std::move(After);
    if (K == 0)
      First = F;
    else if (W->Deterministic && !(F == First))
      Violations.push_back("modeled cycles or cache bytes of set-up " +
                           std::to_string(K) + " differ from set-up 0");
  }
  // Before the timed phases, whose sample logs grow with the number of
  // launches the host manages in the time given.
  const double SetUpRssMb = peakRssMb();
  const unsigned WarmRounds = W->WarmRounds;
  std::fprintf(stderr, "launchbench: %s set up in %s s at the reference "
               "speed (median of %u, %u warm rounds)\n",
               A.Workload.c_str(), fmt(median(SetupSeconds)).c_str(),
               static_cast<unsigned>(SetupSeconds.size()), W->WarmRounds);

  // Timed phases. A traced run splits its time: an untraced phase on
  // the plain DirectoryStore, then a traced one through TimedStore.
  const double PhaseSeconds = A.Trace ? A.Seconds / 2 : A.Seconds;
  Phase Untraced = runPhase(*W, *W->Db, PhaseSeconds, nullptr);
  auto DiskStats = W->Db->stats();
  if (!DiskStats)
    return fatal("store stats failed: " + DiskStats.status().toString());

  SpanRecorder Rec;
  auto Timed = std::make_shared<TimedStore>(
      std::make_shared<persist::DirectoryStore>(W->DbDir), Rec);
  persist::CacheDatabase TracedDb(Timed);
  Phase Traced;
  if (A.Trace)
    Traced = runPhase(*W, TracedDb, PhaseSeconds, &Rec);

  // The guest results were checked launch by launch; now the store.
  const int64_t CheckT0 = nowNs();
  auto Check = persist::checkDatabase(W->DbDir);
  const double DbCheckMs = (nowNs() - CheckT0) / 1e6;
  if (!Check)
    Violations.push_back("checkDatabase failed: " + Check.status().toString());
  else if (!Check->clean() || !Check->Quarantine.empty())
    Violations.push_back("checkDatabase reports the store unclean");
  const CertProbe Certs = probeCertificates(W->DbDir);
  if (Certs.Rejected)
    Violations.push_back("certificate probe rejected " +
                         std::to_string(Certs.Rejected) + ": " +
                         Certs.FirstReject);
  if (A.Workload == "oracle_accumulate" && Certs.Certs == 0)
    Violations.push_back("oracle_accumulate left no certificate to check");

  for (const Phase *P : {&Untraced, &Traced})
    for (const LaunchSample &S : P->Samples)
      if (!S.Ok && Violations.size() < 16)
        Violations.push_back("launch of " + W->Jobs[S.Job].Name +
                             " failed: " + S.Error);
  std::vector<Metric> Metrics;
  std::vector<std::string> Summary;
  std::vector<Block> Blocks;
  if (!A.Trace) {
    Blocks = blocksOf(Untraced, Violations);
    Metrics = endToEndMetrics(Untraced, Blocks, median(SetupSeconds),
                              SetUpRssMb, DiskStats->DiskBytes);
  } else {
    // Store probe: one call of each timed store operation on the final
    // cache, so every per-call latency has at least one sample.
    Rec.setLaunch(ProbeLaunch);
    auto Refs = Timed->listRefs();
    if (Refs && !Refs->empty()) {
      const std::string &Ref = Refs->front();
      const std::string File = Ref.substr(Ref.rfind('/') + 1);
      (void)Timed->exists(std::strtoull(File.c_str(), nullptr, 16));
      (void)Timed->openRef(Ref, persist::CacheFileView::Depth::Index);
      (void)Timed->loadRef(Ref);
    }
    (void)Timed->findCompatible(dbi::engineVersionHash(),
                                persist::noToolHash());
    const std::vector<SpanEvent> Spans = Rec.spans();
    const std::string TracePath =
        A.OutDir + "/" + A.Workload + "-seed" + std::to_string(A.Seed) +
        ".trace.json";
    if (!writeChromeTrace(TracePath, Spans))
      Violations.push_back("cannot write " + TracePath);
    Metrics = perLayerMetrics(Untraced, Traced, Spans, *Timed, Certs,
                              DbCheckMs, Violations, Summary);
    std::fprintf(stderr, "launchbench: trace written to %s\n",
                 TracePath.c_str());
    std::fprintf(stderr, "launchbench: self time per launch by layer (us):");
    for (const std::string &L : Summary)
      std::fprintf(stderr, "  %s", L.c_str());
    std::fprintf(stderr, "\n");
  }

  const size_t Attempted = Untraced.Samples.size() + Traced.Samples.size();
  const size_t Failed = Untraced.failed() + Traced.failed();
  for (const std::string &V : Violations)
    std::fprintf(stderr, "launchbench: VIOLATION: %s\n", V.c_str());

  std::string Json = std::string("{\"correct\": ") +
                     (Violations.empty() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(Attempted) +
                     ", \"failed\": " + std::to_string(Failed) +
                     ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I)
    Json += (I ? ", \"" : "\"") + Metrics[I].Name + "\": {\"value\": " +
            fmt(Metrics[I].Value) + ", \"unit\": \"" + Metrics[I].Unit +
            "\"}";
  Json += "}}";

  // The run record: host facts, the result, the layer summary and why
  // the run is not correct, if it is not.
  const std::string RecordPath = A.OutDir + "/" + A.Workload + "-seed" +
                                 std::to_string(A.Seed) + "-trace" +
                                 (A.Trace ? "1" : "0") + ".json";
  if (std::FILE *F = std::fopen(RecordPath.c_str(), "w")) {
    std::fprintf(F,
                 "{\"host\": %s,\n \"set_ups\": %zu, \"warm_rounds\": %u, "
                 "\"launches\": %zu,\n \"result\": %s,\n "
                 "\"layer_self_us_per_launch\": [",
                 Host.c_str(), SetupSeconds.size(), WarmRounds, Attempted,
                 Json.c_str());
    for (size_t I = 0; I != Summary.size(); ++I)
      std::fprintf(F, "%s\"%s\"", I ? ", " : "", Summary[I].c_str());
    std::fprintf(F, "],\n \"blocks\": [");
    for (size_t I = 0; I != Blocks.size(); ++I) {
      const Block &B = Blocks[I];
      std::fprintf(F,
                   "%s{\"ready_ms_p50\": %s, \"ready_ms_p90\": %s, "
                   "\"cpu_ms_per_launch\": %s, \"calibration_ms\": %s}",
                   I ? ",\n  " : "\n  ", fmt(B.ReadyP50).c_str(),
                   fmt(B.ReadyP90).c_str(), fmt(B.CpuMsPerLaunch).c_str(),
                   fmt(B.CalibrationMs).c_str());
    }
    std::fprintf(F, "],\n \"violations\": [");
    for (size_t I = 0; I != Violations.size(); ++I)
      std::fprintf(F, "%s\"%s\"", I ? ", " : "",
                   jsonEscape(Violations[I]).c_str());
    std::fprintf(F, "]}\n");
    std::fclose(F);
  }

  W.reset();
  (void)removeRecursively(Base);
  std::printf("%s\n", Json.c_str());
  return 0;
}
