//===- launchbench/Launch.h - Workloads and the launch sequence -*- C++ -*-===//
///
/// \file
/// The three launch workloads and the one call sequence every launch
/// makes through the public API:
///
///   workloads::makeMachine -> dbi::Engine + PersistentSession::prime
///     -> Engine::run -> finalize -> wait
///
/// Each launch's guest result is checked against the native
/// interpreter's. Clients run a closed loop: each waits for its launch,
/// wait() included, before starting the next, and every round launches
/// each job once in an order drawn from the workload seed.
///
//===----------------------------------------------------------------------===//

#ifndef LAUNCHBENCH_LAUNCH_H
#define LAUNCHBENCH_LAUNCH_H

#include "Tracing.h"

#include "persist/CacheDatabase.h"
#include "persist/Residency.h"
#include "persist/Session.h"
#include "support/ThreadPool.h"
#include "vm/Interpreter.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace launchbench {

/// One program with one input, and its native reference result.
struct Job {
  std::string Name;
  const pcc::loader::ModuleRegistry *Registry = nullptr;
  std::shared_ptr<const pcc::binary::Module> App;
  const std::vector<uint8_t> *Input = nullptr;
  pcc::vm::RunResult Native;
};

/// What one launch measured: host times on the host clock, the rest
/// copied from the engine's modeled stats and the prime result.
struct LaunchSample {
  uint32_t Job = 0;
  uint32_t Id = 0; ///< Launch id (span tag), unique in the process.
  uint32_t Client = 0;
  uint32_t Round = 0; ///< Per-client round number, 0-based.
  bool Ok = false;
  std::string Error; ///< Why the launch failed (empty when Ok).

  int64_t StartNs = 0; ///< Before makeMachine.
  int64_t ReadyNs = 0; ///< Engine::run returned.
  int64_t EndNs = 0;   ///< wait() returned.

  double readyMs() const { return (ReadyNs - StartNs) / 1e6; }
  double launchMs() const { return (EndNs - StartNs) / 1e6; }

  /// \name Modeled (dbi::EngineStats after wait())
  /// @{
  uint64_t TotalCycles = 0;
  uint64_t FirstTraceReadyCycles = 0;
  uint64_t PersistCycles = 0;
  uint64_t CompileCycles = 0;
  uint64_t DispatchCycles = 0;
  uint64_t ExecCycles = 0;
  uint64_t VmCycles = 0;
  uint64_t GuestInsts = 0;
  uint64_t TracesCompiled = 0;
  uint64_t TracesReused = 0;
  uint64_t PayloadsValidated = 0;
  uint64_t TracesDroppedCorrupt = 0;
  uint64_t TraceExecutions = 0;
  uint64_t LinksCreated = 0;
  uint64_t CacheFlushes = 0;
  uint64_t CertsChecked = 0;
  uint64_t CertChecksFailed = 0;
  uint64_t ProofsReplayed = 0;
  uint64_t TracesPromoted = 0;
  uint64_t ValidatorRejections = 0;
  uint64_t StoreFailures = 0;
  uint64_t StoreRetries = 0;
  uint64_t SharedPageHits = 0;
  /// @}

  /// \name PrimeResult
  /// @{
  uint32_t TracesInstalled = 0;
  uint32_t LinksRestored = 0;
  uint32_t PayloadJobsQueued = 0;
  bool XipInstalled = false;
  uint64_t PayloadBytesCopied = 0;
  /// @}
};

/// A workload that has been set up: programs built, native references
/// computed and its cache database warm.
struct Workload {
  unsigned Clients = 1;
  /// One client and no worker pool: modeled figures and the cache bytes
  /// repeat exactly for a fixed seed.
  bool Deterministic = true;
  std::shared_ptr<void> Programs; ///< The built suite Jobs point into.
  std::vector<Job> Jobs;
  std::string DbDir;
  std::unique_ptr<pcc::persist::CacheDatabase> Db;
  std::unique_ptr<pcc::persist::SharedResidencyMap> Residency;
  std::unique_ptr<pcc::support::ThreadPool> Pool;
  pcc::persist::PersistOptions Opts;
  /// Per-client launch-order generator state (drawn from the seed).
  std::vector<uint64_t> OrderState;
  /// Rounds each client has run so far (set-up rounds included).
  std::vector<uint32_t> RoundsRun;
  /// Warm rounds set-up needed before the cache stopped changing.
  unsigned WarmRounds = 0;
};

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string> &workloadNames();

/// Modeled outcome of a workload's last set-up round: it must repeat
/// exactly across set-ups of a Deterministic workload.
struct Fingerprint {
  std::vector<uint64_t> Cycles; ///< Total and first-trace cycles per job.
  uint64_t DiskBytes = 0;
  bool operator==(const Fingerprint &) const = default;
};

/// Builds \p Name's programs, computes the native references, then
/// cold-populates and warms the cache database in \p DbDir until a
/// round compiles and promotes nothing and leaves the cache size
/// unchanged.
pcc::ErrorOr<std::unique_ptr<Workload>>
setUpWorkload(const std::string &Name, const std::string &DbDir,
              uint64_t Seed, Fingerprint *Last);

/// Runs whole rounds on every client of \p W against \p Db until each
/// client has run at least \p MinRounds and \p DeadlineNs has passed, or
/// it has run \p MaxRounds. Spans go to \p Rec when it is not null.
/// Each round draws a fresh seeded order, or keeps suite order when
/// \p FixedOrder is set. Client 0 calls \p OnRound, when given, at the
/// start of each of its rounds.
std::vector<LaunchSample>
runRounds(Workload &W, const pcc::persist::CacheDatabase &Db,
          int64_t DeadlineNs, unsigned MinRounds, unsigned MaxRounds,
          SpanRecorder *Rec, bool FixedOrder = false,
          const std::function<void()> &OnRound = {});

} // namespace launchbench

#endif // LAUNCHBENCH_LAUNCH_H
