//===- launchbench/Launch.cpp ---------------------------------------------===//

#include "Launch.h"

#include "workloads/Gui.h"
#include "workloads/Oracle.h"
#include "workloads/Runner.h"
#include "workloads/Spec2k.h"

#include <atomic>
#include <thread>

using namespace launchbench;
using namespace pcc;

namespace {

/// Scale of the SPEC stand-ins: large enough that Engine::run is >= 90%
/// of a warm launch, small enough for 100+ launches in a short run.
constexpr double SpecScale = 0.25;
/// Scale of the Oracle phases.
constexpr double OracleScale = 1.0;
/// Set-up gives up warming after this many warm rounds.
constexpr unsigned MaxWarmRounds = 24;

std::atomic<uint32_t> NextLaunchId{1};

uint64_t splitmix64(uint64_t &State) {
  uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

std::vector<uint32_t> identityOrder(size_t N) {
  std::vector<uint32_t> Order(N);
  for (size_t I = 0; I != N; ++I)
    Order[I] = static_cast<uint32_t>(I);
  return Order;
}

/// A fresh permutation of 0..N-1 (Fisher-Yates over splitmix64, so the
/// order depends on the seed alone, not on the standard library).
std::vector<uint32_t> drawOrder(uint64_t &State, size_t N) {
  std::vector<uint32_t> Order = identityOrder(N);
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[splitmix64(State) % I]);
  return Order;
}

void copyStats(LaunchSample &S, const dbi::EngineStats &E) {
  S.TotalCycles = E.totalCycles();
  S.FirstTraceReadyCycles = E.FirstTraceReadyCycles;
  S.PersistCycles = E.PersistCycles;
  S.CompileCycles = E.CompileCycles;
  S.DispatchCycles = E.DispatchCycles;
  S.ExecCycles = E.ExecCycles;
  S.VmCycles = E.vmCycles();
  S.GuestInsts = E.GuestInstsExecuted;
  S.TracesCompiled = E.TracesCompiled;
  S.TracesReused = E.TracesReused;
  S.PayloadsValidated = E.TracePayloadsValidated;
  S.TracesDroppedCorrupt = E.TracesDroppedCorrupt;
  S.TraceExecutions = E.TraceExecutions;
  S.LinksCreated = E.LinksCreated;
  S.CacheFlushes = E.CacheFlushes;
  S.CertsChecked = E.CertsChecked;
  S.CertChecksFailed = E.CertChecksFailed;
  S.ProofsReplayed = E.ProofsReplayed;
  S.TracesPromoted = E.TracesPromoted;
  S.ValidatorRejections = E.OptValidatorRejections;
  S.StoreFailures = E.PersistStoreFailures;
  S.StoreRetries = E.PersistStoreRetries;
  S.SharedPageHits = E.PersistSharedPageHits;
}

/// One launch of \p J. Every error of the five calls, a guest result
/// that differs from the native one, and any corrupt-trace, certificate
/// or store failure the engine counted fails the launch.
LaunchSample launchOnce(const Job &J, const persist::CacheDatabase &Db,
                        const persist::PersistOptions &Opts,
                        SpanRecorder *Rec) {
  LaunchSample S;
  S.Id = NextLaunchId.fetch_add(1, std::memory_order_relaxed);
  if (Rec)
    Rec->setLaunch(S.Id);
  S.StartNs = nowNs();
  SpanRecorder::Scope Root(Rec, "launch");

  SpanRecorder::Scope Load(Rec, "loader.make_machine");
  auto M = workloads::makeMachine(*J.Registry, J.App, *J.Input);
  Load.end();
  if (!M) {
    S.Error = "makeMachine: " + M.status().toString();
    return S;
  }
  dbi::Engine Engine(*M, nullptr);
  persist::PersistentSession Session(Db, Opts);

  SpanRecorder::Scope Prime(Rec, "persist.prime");
  auto Primed = Session.prime(Engine);
  Prime.end();
  if (!Primed) {
    S.Error = "prime: " + Primed.status().toString();
    return S;
  }

  SpanRecorder::Scope Run(Rec, "dbi.run");
  vm::RunResult Result = Engine.run();
  Run.end();
  S.ReadyNs = nowNs();
  if (!Result.ok()) {
    S.Error = "run: " + Result.Error.toString();
    return S;
  }

  SpanRecorder::Scope Fin(Rec, "persist.finalize");
  Status Finalized = Session.finalize(Engine);
  Fin.end();
  if (!Finalized.ok()) {
    S.Error = "finalize: " + Finalized.toString();
    return S;
  }

  SpanRecorder::Scope Wait(Rec, "persist.wait");
  Status Waited = Session.wait(&Engine.stats());
  Wait.end();
  S.EndNs = nowNs();
  Root.end();
  if (!Waited.ok()) {
    S.Error = "wait: " + Waited.toString();
    return S;
  }

  const dbi::EngineStats &E = Engine.stats();
  copyStats(S, E);
  S.TracesInstalled = Primed->TracesInstalled;
  S.LinksRestored = Primed->LinksRestored;
  S.PayloadJobsQueued = Primed->PayloadJobsQueued;
  S.XipInstalled = Primed->XipInstalled;
  S.PayloadBytesCopied = Primed->PayloadBytesCopied;

  if (!Result.observablyEquals(J.Native))
    S.Error = "guest result differs from the native reference";
  else if (E.TracesDroppedCorrupt)
    S.Error = "persisted traces dropped as corrupt";
  else if (E.CertChecksFailed)
    S.Error = "certificate checks failed";
  else if (E.PersistStoreFailures || E.PersistDegraded)
    S.Error = std::to_string(E.PersistStoreFailures) + " store failures" +
              (E.PersistDegraded ? ", degraded: " + E.PersistDegradeReason
                                 : "");
  S.Ok = S.Error.empty();
  return S;
}

void addGuiJobs(Workload &W) {
  auto Suite =
      std::make_shared<workloads::GuiSuite>(workloads::buildGuiSuite());
  for (const workloads::GuiApp &App : Suite->Apps)
    W.Jobs.push_back(
        {App.Name, &Suite->Registry, App.App, &App.StartupInput, {}});
  W.Programs = Suite;
  W.Residency = std::make_unique<persist::SharedResidencyMap>();
  W.Opts.InterApplication = true;
  W.Opts.PositionIndependent = true;
  W.Opts.ExecuteInPlace = true;
  W.Opts.SharedResidency = W.Residency.get();
}

void addSpecJobs(Workload &W) {
  auto Suite = std::make_shared<workloads::SpecSuite>(
      workloads::buildSpecSuite(SpecScale));
  for (const workloads::SpecBenchmark &B : Suite->Benchmarks)
    for (size_t I = 0; I != B.RefInputs.size(); ++I)
      W.Jobs.push_back({B.Profile.Name + "/ref" + std::to_string(I),
                        &Suite->Registry, B.App, &B.RefInputs[I], {}});
  W.Programs = Suite;
}

void addOracleJobs(Workload &W) {
  auto Setup = std::make_shared<workloads::OracleSetup>(
      workloads::buildOracleSetup(OracleScale));
  for (unsigned P = 0; P != Setup->PhaseInputs.size(); ++P)
    W.Jobs.push_back({workloads::oraclePhaseName(P), &Setup->Registry,
                      Setup->App, &Setup->PhaseInputs[P], {}});
  W.Programs = Setup;
  W.Clients = 2;
  W.Deterministic = false;
  W.Pool = std::make_unique<support::ThreadPool>(2, /*Background=*/true);
  W.Opts.OptTier = true;
  W.Opts.Pool = W.Pool.get();
}

} // namespace

const std::vector<std::string> &launchbench::workloadNames() {
  static const std::vector<std::string> Names = {"desktop_login", "spec_ref",
                                                 "oracle_accumulate"};
  return Names;
}

std::vector<LaunchSample>
launchbench::runRounds(Workload &W, const persist::CacheDatabase &Db,
                       int64_t DeadlineNs, unsigned MinRounds,
                       unsigned MaxRounds, SpanRecorder *Rec,
                       bool FixedOrder,
                       const std::function<void()> &OnRound) {
  std::vector<std::vector<LaunchSample>> PerClient(W.Clients);
  auto Client = [&](unsigned C) {
    for (unsigned Rounds = 0; Rounds != MaxRounds; ++Rounds) {
      if (Rounds >= MinRounds && nowNs() >= DeadlineNs)
        break;
      if (C == 0 && OnRound)
        OnRound();
      // A round is one login: its launches share one page cache. Every
      // write-back starts a new cache generation, so a map kept across
      // rounds would only grow with pages no later launch can share.
      if (W.Residency)
        W.Residency->clear();
      std::vector<uint32_t> Order =
          FixedOrder ? identityOrder(W.Jobs.size())
                     : drawOrder(W.OrderState[C], W.Jobs.size());
      for (uint32_t J : Order) {
        LaunchSample S = launchOnce(W.Jobs[J], Db, W.Opts, Rec);
        S.Job = J;
        S.Client = C;
        S.Round = W.RoundsRun[C];
        PerClient[C].push_back(std::move(S));
      }
      ++W.RoundsRun[C];
    }
  };
  std::vector<std::thread> Others;
  for (unsigned C = 1; C < W.Clients; ++C)
    Others.emplace_back(Client, C);
  Client(0);
  for (std::thread &T : Others)
    T.join();

  std::vector<LaunchSample> All;
  for (auto &Samples : PerClient)
    for (LaunchSample &S : Samples)
      All.push_back(std::move(S));
  return All;
}

ErrorOr<std::unique_ptr<Workload>>
launchbench::setUpWorkload(const std::string &Name, const std::string &DbDir,
                           uint64_t Seed, Fingerprint *Last) {
  auto W = std::make_unique<Workload>();
  W->DbDir = DbDir;
  // Step 1: build the programs.
  if (Name == "desktop_login")
    addGuiJobs(*W);
  else if (Name == "spec_ref")
    addSpecJobs(*W);
  else if (Name == "oracle_accumulate")
    addOracleJobs(*W);
  else
    return Status::error(ErrorCode::InvalidArgument,
                         "unknown workload '" + Name + "'");
  for (unsigned C = 0; C != W->Clients; ++C) {
    uint64_t State = Seed * 0x100000001B3ull + C;
    W->OrderState.push_back(splitmix64(State));
  }
  W->RoundsRun.assign(W->Clients, 0);

  // Step 2: native references.
  for (Job &J : W->Jobs) {
    auto Native = workloads::runNative(*J.Registry, J.App, *J.Input);
    if (!Native)
      return Status::error(ErrorCode::InvalidArgument,
                           J.Name + ": native run failed: " +
                               Native.status().toString());
    J.Native = Native.take();
  }

  // Steps 3 and 4: one cold round, then warm rounds until the cache
  // stops changing. The cold round launches the jobs in suite order:
  // with inter-application priming the first launches pick the donors,
  // and the cache contents should not hinge on the seed.
  W->Db = std::make_unique<persist::CacheDatabase>(DbDir);
  uint64_t PrevBytes = 0;
  std::vector<uint64_t> PrevCycles(W->Jobs.size());
  for (unsigned Round = 0;; ++Round) {
    std::vector<LaunchSample> Samples =
        runRounds(*W, *W->Db, 0, 1, 1, nullptr, /*FixedOrder=*/Round == 0);
    auto Stats = W->Db->stats();
    if (!Stats)
      return Stats.status();
    bool Steady = Round != 0 && Stats->DiskBytes == PrevBytes;
    for (const LaunchSample &S : Samples) {
      if (!S.Ok)
        return Status::error(ErrorCode::InvalidArgument,
                             "set-up launch of " + W->Jobs[S.Job].Name +
                                 " failed: " + S.Error);
      Steady = Steady && S.TracesCompiled == 0 && S.TracesPromoted == 0;
      // Hottest-first layout keeps moving pages for a few rounds after
      // the trace set settles; single-client workloads wait for that.
      if (W->Deterministic) {
        Steady = Steady && S.TotalCycles == PrevCycles[S.Job];
        PrevCycles[S.Job] = S.TotalCycles;
      }
    }
    PrevBytes = Stats->DiskBytes;
    if (Round != 0)
      ++W->WarmRounds;
    if (Steady || W->WarmRounds == MaxWarmRounds) {
      if (Last) {
        Last->Cycles.assign(2 * W->Jobs.size(), 0);
        for (const LaunchSample &S : Samples) {
          Last->Cycles[2 * S.Job] = S.TotalCycles;
          Last->Cycles[2 * S.Job + 1] = S.FirstTraceReadyCycles;
        }
        Last->DiskBytes = Stats->DiskBytes;
      }
      break;
    }
  }
  return W;
}
