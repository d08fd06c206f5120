//===- persist/Session.cpp ------------------------------------------------===//

#include "persist/Session.h"

#include "analysis/CertChecker.h"
#include "analysis/Certificate.h"
#include "analysis/Optimizer.h"
#include "analysis/Validator.h"
#include "persist/RecordingHooks.h"
#include "support/FileSystem.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <iterator>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

using namespace pcc;
using namespace pcc::persist;
using dbi::ExitKind;
using dbi::TranslatedTrace;
using loader::LoadedModule;

uint64_t pcc::persist::noToolHash() { return fnv1a64("pcc-no-tool"); }

static uint64_t toolHashOf(const dbi::Engine &Engine) {
  return Engine.tool() ? Engine.tool()->keyHash() : noToolHash();
}

static uint8_t specBitsOf(const dbi::InstrumentationSpec &Spec) {
  return static_cast<uint8_t>((Spec.BasicBlocks ? 1 : 0) |
                              (Spec.MemoryAccesses ? 2 : 0) |
                              (Spec.Instructions ? 4 : 0));
}

static const LoadedModule *
findLoadedByPath(const loader::LoadedImage &Image,
                 const std::string &Path) {
  for (const LoadedModule &Mod : Image.Modules)
    if (Mod.Image->path() == Path)
      return &Mod;
  return nullptr;
}

static bool regionsOverlap(uint32_t BaseA, uint32_t SizeA, uint32_t BaseB,
                           uint32_t SizeB) {
  return BaseA < BaseB + SizeB && BaseB < BaseA + SizeA;
}

static uint64_t pagesOf(uint64_t Bytes) {
  return (Bytes + binary::PageSize - 1) / binary::PageSize;
}

/// Lifetime heat written back for a trace: persisted-in heat plus this
/// run's executions, saturating at the 32-bit index field.
static uint32_t accumulatedHeat(uint32_t Prior, uint64_t Executions) {
  uint64_t Sum = Prior + Executions;
  return Sum > 0xffffffffull ? 0xffffffffu
                             : static_cast<uint32_t>(Sum);
}

/// Adds \p Delta to the 32-bit immediate of the encoded instruction at
/// index \p InstIndex inside a translated code image.
static void rebaseImmediate(std::vector<uint8_t> &Code, uint32_t InstIndex,
                            int64_t Delta) {
  dbi::rebaseTranslatedImmediate(Code.data(), Code.size(), InstIndex,
                                 Delta);
}

/// Reads and decodes \p Count guest instructions starting at \p Start
/// from the live address space — the source side of a deep semantic
/// verification.
static ErrorOr<std::vector<isa::Instruction>>
fetchGuestSource(const loader::AddressSpace &Space, uint32_t Start,
                 uint32_t Count) {
  std::vector<isa::Instruction> Out;
  Out.reserve(Count);
  for (uint32_t I = 0; I != Count; ++I) {
    uint8_t Bytes[isa::InstructionSize];
    Status S = Space.fetchInstructionBytes(
        Start + I * isa::InstructionSize, Bytes);
    if (!S.ok())
      return S;
    auto Inst = isa::Instruction::decode(Bytes);
    if (!Inst)
      return Inst.status();
    Out.push_back(*Inst);
  }
  return Out;
}

ErrorOr<StoredCache>
PersistentSession::locateCache(dbi::Engine &Engine, PrimeResult &Result) {
  CacheStore &Store = *Db.backend();
  auto tryLoad = [&](const std::string &Ref,
                     bool IsOwn) -> ErrorOr<StoredCache> {
    // Indexed open: header, module table and trace index are
    // CRC-validated here; trace payloads stay unread until first
    // execution.
    auto Cache = Store.openRef(Ref, CacheFileView::Depth::Index);
    if (Cache) {
      Result.CachePath = Ref;
      Result.RejectReason.clear();
      LoadedWasOwn = IsOwn;
      return Cache;
    }
    // Corrupt or unreadable caches must never break the run: record the
    // reason and fall back to an empty code cache. An I/O failure is
    // not the same as no cache existing — count it so operators can
    // tell a sick disk from a cold database.
    if (Cache.status().code() == ErrorCode::IoError) {
      ++Result.CandidatesSkippedIo;
      ++Engine.stats().PersistCandidatesSkippedIo;
    } else if (Cache.status().code() != ErrorCode::NotFound) {
      Result.RejectReason = Cache.status().toString();
    }
    return Status::error(ErrorCode::NotFound, "no usable cache");
  };

  if (!Opts.ExplicitCachePath.empty())
    return tryLoad(Opts.ExplicitCachePath,
                   Opts.ExplicitCachePath == Store.refFor(LookupKey));

  if (Store.exists(LookupKey)) {
    auto Own = tryLoad(Store.refFor(LookupKey), /*IsOwn=*/true);
    // An unreadable or rejected own slot still allows the
    // inter-application fallback below.
    if (Own || !Opts.InterApplication)
      return Own;
  }

  if (Opts.InterApplication) {
    // Try every compatible candidate, not just the first: one
    // unreadable or freshly corrupted donor must not disqualify the
    // rest of the database.
    auto Candidates = Store.findCompatible(EngineHash, ToolHash);
    if (Candidates)
      for (const std::string &Ref : *Candidates) {
        if (Ref == Store.refFor(LookupKey))
          continue; // Own slot was already tried above.
        auto Cache = tryLoad(Ref, /*IsOwn=*/false);
        if (Cache)
          return Cache;
      }
  }
  return Status::error(ErrorCode::NotFound, "no usable cache");
}

ErrorOr<PrimeResult> PersistentSession::prime(dbi::Engine &Engine) {
  assert(!Primed && "prime() is single-shot per session");
  Primed = true;

  const dbi::CostModel &Costs = Engine.options().Costs;
  const loader::LoadedImage &Image = Engine.machine().image();
  assert(!Image.Modules.empty() && "engine machine has no modules");

  EngineHash = dbi::engineVersionHash();
  ToolHash = toolHashOf(Engine);
  // Keys are computed for every executable mapping plus the engine and
  // the tool (Section 3.2.1).
  Engine.stats().PersistCycles +=
      Costs.KeyHashCyclesPerModule * (Image.Modules.size() + 2);

  ModuleKey AppKey = ModuleKey::compute(Image.Modules.front());
  LookupKey = computeLookupKey(AppKey, EngineHash, ToolHash);

  PrimeResult Result;
  auto Source = locateCache(Engine, Result);
  if (!Source)
    return Result; // No cache: start empty, still success.

  if (Source->View.engineHash() != EngineHash) {
    Result.RejectReason = "engine version mismatch";
    return Result;
  }
  if (Source->View.toolHash() != ToolHash) {
    Result.RejectReason = "tool key mismatch";
    return Result;
  }
  if (Source->View.positionIndependent() != Opts.PositionIndependent) {
    Result.RejectReason = "translation addressing mode mismatch";
    return Result;
  }

  Result.CacheFound = true;
  Engine.stats().PersistCycles += Costs.PersistOpenCycles;
  // Tiered stores stamp which tier satisfied the open; a read-through
  // hit additionally carries the modeled remote-link charge.
  if (Source->Tier == CacheTier::L1) {
    ++Engine.stats().PersistL1Hits;
  } else if (Source->Tier == CacheTier::L2) {
    ++Engine.stats().PersistL2Hits;
    ++Engine.stats().PersistRemoteFetches;
    Engine.stats().PersistRemoteBytes += Source->RemoteFetchBytes;
    Engine.stats().PersistCycles += Source->RemoteFetchCycles;
  }
  // A recorder (if one is active) learns which cache the run actually
  // consumed, and at what modeled remote cost, so replay can seed a
  // scratch store with the identical bytes and charges.
  if (RecordingHooks *Hooks = recordingHooks())
    Hooks->onCacheConsumed(Result.CachePath, Source->Tier,
                           Source->RemoteFetchBytes,
                           Source->RemoteFetchCycles);

  // The session owns the view before installing: an XIP install hands
  // it to the code cache as the keepalive of the borrowed payload
  // mapping, and async payload jobs read its bytes from pool workers.
  LoadedView = std::make_shared<CacheFileView>(std::move(Source->View));
  Status S = installView(Engine, Result);
  if (!S.ok())
    return S;
  // Under XIP there is no decode work to offload; AsyncJobs stays empty
  // and the queue is never created.
  if (!AsyncJobs.empty())
    startAsyncPrime(Engine, Result);
  if (Opts.SharedResidency && Result.TracesInstalled != 0) {
    // One shared physical copy per (cache file, generation): every
    // simulated process priming the same payload probes and populates
    // the same residency entries. touch() marks the page and reports
    // whether another process got there first — exactly the soft-fault
    // condition the cost model wants. The probe is attached on both the
    // XIP and materializing paths, so their stats stay bit-identical.
    uint64_t PayloadId =
        fnv1a64U64(LoadedView->generation(), fnv1a64(Result.CachePath));
    SharedResidencyMap *Map = Opts.SharedResidency;
    Engine.setResidencyProbe([Map, PayloadId](uint32_t Page) {
      return Map->touch(PayloadId, Page);
    });
  }
  if (Opts.ValidateSemantic || !PrimedCerts.empty()) {
    // Verification at materialization: whenever a primed trace's body
    // is decoded (first execution, prevalidation, or a background
    // worker's result being consumed), it is checked against the guest
    // instructions at its start address. Promoted traces that rode in
    // with a validation certificate go through the minimal trusted
    // checker (no fixpoint solving); a rejected certificate — and any
    // promoted trace without one — falls back to the full symbolic
    // validator. Under Opts.ValidateSemantic, unpromoted traces are
    // fully proved too. A trace that fails every applicable check is
    // dropped for retranslation — and, once per session, the source
    // cache is quarantined so later runs stop re-priming a miscompiled
    // database (CertificateInvalid when a certificate lied and the
    // re-proof agreed it was wrong; SemanticMismatch otherwise).
    std::shared_ptr<CacheStore> StorePtr = Db.backend();
    auto AlreadyQuarantined = std::make_shared<bool>(false);
    std::string Ref = Result.CachePath;
    loader::AddressSpace &Space = Engine.machine().space();
    auto Certs = std::make_shared<
        std::unordered_map<uint32_t, std::vector<uint8_t>>>(
        std::move(PrimedCerts));
    PrimedCerts.clear();
    const bool ValidateAll = Opts.ValidateSemantic;
    Engine.setMaterializeValidator(
        [&Space, StorePtr, AlreadyQuarantined, Ref, Certs, ValidateAll](
            uint32_t GuestStart,
            const std::vector<isa::Instruction> &Body,
            dbi::Engine::MaterializeCheckInfo &Info) -> Status {
          auto QuarantineOnce = [&](QuarantineReasonCode Code,
                                    const std::string &Detail) {
            if (!*AlreadyQuarantined && !Ref.empty()) {
              *AlreadyQuarantined = true;
              (void)StorePtr->quarantineRef(
                  Ref, annotatedQuarantineReason(Ref, Code, Detail));
            }
          };
          auto It = Certs->find(GuestStart);
          if (It == Certs->end() && !ValidateAll)
            return Status::success(); // Unpromoted, not validating.
          auto Source = fetchGuestSource(
              Space, GuestStart, static_cast<uint32_t>(Body.size()));
          if (!Source)
            return Source.status();
          bool CertRejected = false;
          std::string CertDetail;
          if (It != Certs->end() && !It->second.empty()) {
            // Certificate fast path: replay the recorded proof with
            // the trusted checker, bound to the live guest bytes.
            ++Info.CertsChecked;
            analysis::CertCheckResult R = analysis::checkCertificateBlob(
                It->second.data(), It->second.size(), GuestStart, Body,
                &*Source);
            if (R.ok()) {
              Info.Verified = true;
              return Status::success();
            }
            ++Info.CertChecksFailed;
            CertRejected = true;
            CertDetail = std::string(certCheckStatusName(R.Status)) +
                         (R.Detail.empty() ? "" : ": " + R.Detail);
          }
          // Full symbolic proof: the prover backstop for a rejected or
          // missing certificate on a promoted body, and the
          // ValidateSemantic path for unpromoted ones.
          if (It != Certs->end())
            ++Info.ProofsReplayed;
          auto Check =
              analysis::validateTranslation(GuestStart, *Source, Body);
          if (Check.Equivalent) {
            Info.Verified = true;
            return Status::success();
          }
          if (CertRejected) {
            QuarantineOnce(QuarantineReasonCode::CertificateInvalid,
                           "certificate rejected (" + CertDetail +
                               ") and re-proof failed: " +
                               Check.message());
            return Status::error(ErrorCode::InvalidFormat,
                                 "certificate rejected and re-proof "
                                 "failed: " +
                                     Check.message());
          }
          QuarantineOnce(QuarantineReasonCode::SemanticMismatch,
                         Check.message());
          return Status::error(ErrorCode::InvalidFormat,
                               "translation validation failed: " +
                                   Check.message());
        });
  }
  if (Opts.EagerValidate)
    Engine.prevalidatePersistedTraces();
  return Result;
}

/// One payload validated exactly as the engine's inline
/// first-execution path does it: CRC over the raw stored bytes,
/// decode, then rebase the decoded immediates. (The inline path
/// rebases the pool bytes before decoding; adding the delta to the
/// decoded little-endian immediate is the same mod-2^32 arithmetic.)
dbi::ReadyTrace
PersistentSession::validatePayload(const CacheFileView &View,
                                   const AsyncPayloadJob &JD) {
  dbi::ReadyTrace R;
  R.GuestStart = JD.GuestStart;
  const uint8_t *Code = View.codeBytesOf(JD.TraceIndex);
  R.CrcOk = crc32(Code, JD.CodeSize) == JD.ExpectedCrc;
  if (!R.CrcOk)
    return R;
  auto Body = isa::decodeAll(Code + dbi::TracePrologueBytes,
                             JD.GuestInstCount);
  if (!Body) {
    R.DecodeError = Body.status();
    return R;
  }
  R.Body = Body.take();
  if (JD.RebaseDelta != 0)
    for (uint32_t I = 0; I != JD.GuestInstCount; ++I)
      if (JD.RelocMask.size() > I / 8 &&
          (JD.RelocMask[I / 8] >> (I % 8)) & 1)
        R.Body[I].Imm = static_cast<uint32_t>(
            R.Body[I].Imm + static_cast<uint64_t>(JD.RebaseDelta));
  return R;
}

namespace {

/// Traces per install-queue job. Batching keeps the producer loop —
/// which runs on the engine thread inside prime() — and the queue's
/// per-boundary bookkeeping off the run's critical path; a chunk is
/// still small enough that waiting out an in-flight job or losing a
/// withdrawn chunk's background work is negligible.
constexpr size_t PayloadChunkTraces = 64;

} // namespace

void PersistentSession::startAsyncPrime(dbi::Engine &Engine,
                                        PrimeResult &Result) {
  Queue = std::make_shared<dbi::TraceInstallQueue>();
  // The jobs read only view bytes and their own descriptors — never
  // engine memory — so a mid-run flush or eviction cannot race them.
  // The view is guaranteed alive until wait()/destruction quiesces the
  // queue.
  const CacheFileView *View = &*LoadedView;
  for (size_t Begin = 0; Begin < AsyncJobs.size();
       Begin += PayloadChunkTraces) {
    size_t End = std::min(Begin + PayloadChunkTraces, AsyncJobs.size());
    auto Batch = std::make_shared<std::vector<AsyncPayloadJob>>(
        std::make_move_iterator(AsyncJobs.begin() + Begin),
        std::make_move_iterator(AsyncJobs.begin() + End));
    std::vector<uint32_t> Starts;
    Starts.reserve(Batch->size());
    for (const AsyncPayloadJob &JD : *Batch)
      Starts.push_back(JD.GuestStart);
    Queue->addJob(std::move(Starts),
                  [View, Batch]() -> std::vector<dbi::ReadyTrace> {
                    std::vector<dbi::ReadyTrace> Out;
                    Out.reserve(Batch->size());
                    for (const AsyncPayloadJob &JD : *Batch)
                      Out.push_back(validatePayload(*View, JD));
                    return Out;
                  });
  }
  AsyncJobs.clear();
  Result.PayloadJobsQueued = static_cast<uint32_t>(Queue->jobCount());
  Engine.setInstallQueue(Queue);
  auto Q = Queue;
  for (size_t W = 0; W != Opts.Pool->workerCount(); ++W)
    Opts.Pool->submit([Q] {
      while (Q->runNextJob()) {
      }
    });
}

void PersistentSession::validateModules(dbi::Engine &Engine,
                                        PrimeResult &Result) {
  const loader::LoadedImage &Image = Engine.machine().image();
  const std::vector<ModuleKey> &Persisted = LoadedView->modules();
  Matches.assign(Persisted.size(), ModuleMatch());
  for (size_t I = 0; I != Persisted.size(); ++I) {
    const ModuleKey &Old = Persisted[I];
    const LoadedModule *Now = findLoadedByPath(Image, Old.Path);
    if (!Now)
      continue; // Module absent this run; its traces stay on disk.
    ModuleKey NowKey = ModuleKey::compute(*Now);
    bool Match = Opts.PositionIndependent
                     ? Old.matchesIgnoringBase(NowKey)
                     : Old.matches(NowKey);
    if (!Match) {
      // Key conflict: the binary changed or (without PIC) relocated.
      // All its persisted translations are invalid; the engine falls
      // back to retranslation.
      Matches[I].State = ModuleState::Invalidated;
      ++Result.ModulesInvalidated;
      ++Engine.stats().ModulesInvalidated;
      continue;
    }
    Matches[I] = {ModuleState::Validated,
                  static_cast<int64_t>(NowKey.Base) -
                      static_cast<int64_t>(Old.Base),
                  NowKey.Base, NowKey.Size};
    ++Result.ModulesValidated;
  }
}

Status PersistentSession::installView(dbi::Engine &Engine,
                                      PrimeResult &Result) {
  const CacheFileView &View = *LoadedView;
  dbi::CodeCache &Cache = Engine.cache();
  validateModules(Engine, Result);

  // One pass over the trace index validates every entry and builds the
  // install list. Exits and links come from the trace index, whose CRC
  // was already validated at open — so restoring links is safe even
  // though the code payloads are still unverified.
  struct PendingInstall {
    uint32_t Start = 0; ///< Rebased guest start.
    uint32_t TraceIndex = 0;
    int64_t Delta = 0;
    uint32_t PoolOffset = 0;
    std::vector<dbi::TraceExit> Exits;
    std::vector<uint32_t> LinkedStarts;
  };
  std::vector<PendingInstall> Installs;
  std::unordered_set<uint32_t> SeenStarts;
  Installs.reserve(View.numTraces());
  SeenStarts.reserve(View.numTraces());
  for (uint32_t TraceI = 0; TraceI != View.numTraces(); ++TraceI) {
    const TraceIndexEntry &E = View.entry(TraceI);
    const ModuleMatch &Mod = Matches[E.ModuleIndex];
    const uint32_t Start = static_cast<uint32_t>(E.GuestStart + Mod.Delta);
    const size_t MinCodeBytes =
        dbi::TracePrologueBytes +
        static_cast<size_t>(E.GuestInstCount) * isa::InstructionSize;
    bool Usable = Mod.State == ModuleState::Validated &&
                  Start >= Mod.Base && Start - Mod.Base < Mod.Size &&
                  E.CodeSize >= MinCodeBytes && !SeenStarts.count(Start);
    PendingInstall Install;
    Install.Start = Start;
    Install.TraceIndex = TraceI;
    Install.Delta = Mod.Delta;
    if (Usable)
      for (const ExitRecord &Exit : View.readExits(TraceI)) {
        if (Exit.Kind > static_cast<uint8_t>(ExitKind::Halt)) {
          Usable = false;
          break;
        }
        uint32_t Target = Exit.Target
                              ? static_cast<uint32_t>(Exit.Target + Mod.Delta)
                              : 0;
        uint32_t Linked =
            Exit.LinkedStart
                ? static_cast<uint32_t>(Exit.LinkedStart + Mod.Delta)
                : 0;
        Install.Exits.push_back(dbi::TraceExit{
            static_cast<ExitKind>(Exit.Kind), Exit.InstIndex, Target,
            nullptr});
        Install.LinkedStarts.push_back(Linked);
      }
    if (!Usable) {
      ++Result.TracesSkipped;
      continue;
    }
    SeenStarts.insert(Start);
    Installs.push_back(std::move(Install));
  }

  // The body source. Execute-in-place borrows the file's mapped payload
  // and runs its bytes as-is, so it is only sound when nothing about
  // this run wants to transform or re-decode them: the file must have
  // been written page-aligned and relocation-free (v3), the host's
  // in-memory instruction layout must equal the encoding, no validation
  // mode may demand decoded private bodies, and nothing may rebase
  // (that would dirty shared pages). Every trace must be usable too:
  // each sits at its file code offset, which matches the packed copy's
  // offsets only when no entry is skipped — the invariant behind the
  // two sources' identical page-touch sequences, and thus identical
  // modeled stats. Any disqualifier selects the packed private copy.
  const bool Xip =
      View.executeInPlace() && isa::HostExecutesInPlace &&
      !Opts.ValidateSemantic && !Opts.EagerValidate &&
      Installs.size() == View.numTraces() &&
      View.payloadSize() <= Engine.options().CodePoolBytes &&
      std::all_of(Matches.begin(), Matches.end(),
                  [](const ModuleMatch &M) { return M.Delta == 0; });
  if (Xip) {
    // Zero bytes copied, zero decode jobs queued. The view (keepalive)
    // stays alive until the cache unmaps it — flush/eviction release,
    // never free.
    for (PendingInstall &Install : Installs)
      Install.PoolOffset = View.entry(Install.TraceIndex).CodeOffset;
    Status S = Cache.installBorrowedPool(
        View.payloadBytes(), View.payloadSize(),
        std::shared_ptr<const void>(LoadedView));
    if (!S.ok())
      return S;
  } else {
    // Code bytes are copied raw — no rebase — because each trace's CRC
    // must run over the stored bytes at first execution; the rebase
    // parameters ride along as the trace's PersistedPayload. The
    // reservation is exact-fit: the pool is at most the file's whole
    // code section.
    std::vector<uint8_t> Pool;
    Pool.reserve(View.codeBytes());
    for (PendingInstall &Install : Installs) {
      Install.PoolOffset = static_cast<uint32_t>(Pool.size());
      const uint8_t *Code = View.codeBytesOf(Install.TraceIndex);
      Pool.insert(Pool.end(), Code,
                  Code + View.entry(Install.TraceIndex).CodeSize);
    }
    Result.PayloadBytesCopied += Pool.size();
    if (Pool.size() > Engine.options().CodePoolBytes) {
      // Persistent pools unavailable: abandon persistence for this run
      // (Section 3.2.2), continue with an empty code cache.
      Result.RejectReason = "persistent pool exceeds code cache capacity";
      Result.TracesSkipped += static_cast<uint32_t>(Installs.size());
      return Status::success();
    }
    Status S = Cache.installPersistedPool(std::move(Pool));
    if (!S.ok())
      return S;
  }

  std::unordered_map<uint32_t, TranslatedTrace *> ByStart;
  std::vector<std::pair<TranslatedTrace *, std::vector<uint32_t>>>
      LinkWork;
  ByStart.reserve(Installs.size());
  LinkWork.reserve(Installs.size());
  Cache.reserveTraces(Installs.size());
  const bool AsyncPrime = !Xip && Opts.Pool &&
                          Opts.Pool->workerCount() > 0 &&
                          !Opts.EagerValidate;
  if (AsyncPrime)
    AsyncJobs.reserve(Installs.size());
  for (PendingInstall &Install : Installs) {
    const TraceIndexEntry &E = View.entry(Install.TraceIndex);
    auto Payload = std::make_unique<dbi::PersistedPayload>();
    Payload->ExpectedCodeCrc = E.CodeCrc;
    Payload->RebaseDelta = Install.Delta;
    // XIP execution never rebases, but finalize() re-emits an
    // unexecuted trace's reloc mask with the record it carries forward.
    if (Opts.PositionIndependent)
      Payload->RelocMask = View.readRelocMask(Install.TraceIndex);
    Payload->SourceTraceIndex = Install.TraceIndex;
    Payload->Xip = Xip;
    auto T = std::make_unique<TranslatedTrace>(
        Install.Start, E.GuestInstCount, Install.PoolOffset, E.CodeSize,
        std::move(Install.Exits), /*FromPersistentCache=*/true);
    T->setPersistedPayload(std::move(Payload));
    T->setPersistedHeat(E.Heat);
    T->setOptGen(E.OptGen);
    auto Added = Cache.addTrace(std::move(T));
    if (!Added) {
      // Data pool exhausted: remaining traces fall back to translation
      // (both body sources hit the identical limit at the identical
      // trace, so parity holds).
      ++Result.TracesSkipped;
      continue;
    }
    if (Opts.CheckCertificates && E.OptGen > 0) {
      // A certificate binds to the exact stored body bytes, so a rebase
      // invalidates it: the promoted trace is then re-proved in full at
      // materialization (empty map entry).
      std::vector<uint8_t> &Cert = PrimedCerts[Install.Start];
      auto [CertData, CertSize] = View.certBlobOf(Install.TraceIndex);
      if (CertData && Install.Delta == 0)
        Cert.assign(CertData, CertData + CertSize);
    }
    if (AsyncPrime)
      AsyncJobs.push_back(AsyncPayloadJob{
          Install.Start, Install.TraceIndex, E.GuestInstCount, E.CodeSize,
          E.CodeCrc, Install.Delta,
          (*Added)->persistedPayload()->RelocMask});
    ByStart.emplace(Install.Start, *Added);
    LinkWork.emplace_back(*Added, std::move(Install.LinkedStarts));
    ++Result.TracesInstalled;
  }
  Engine.stats().TracesLoadedFromCache += Result.TracesInstalled;

  // Restore persisted trace links between installed traces.
  if (Engine.options().EnableLinking) {
    for (auto &[T, LinkedStarts] : LinkWork) {
      for (uint32_t I = 0; I != LinkedStarts.size(); ++I) {
        uint32_t Target = LinkedStarts[I];
        if (Target == 0)
          continue;
        const dbi::TraceExit &Exit = T->exits()[I];
        if (!dbi::isLinkableExit(Exit.Kind) || Exit.Target != Target)
          continue;
        auto It = ByStart.find(Target);
        if (It == ByStart.end())
          continue;
        Cache.link(T, I, It->second);
        ++Result.LinksRestored;
      }
    }
  }
  Result.XipInstalled = Xip;
  return Status::success();
}

namespace {

/// What one circuit-breaker publish pass did, accumulated off to the
/// side so the same code runs inline or on a pool worker; the caller
/// (finalize() or wait()) merges it into EngineStats, keeping the
/// recorded values bit-identical either way.
struct PublishOutcome {
  bool Succeeded = false;
  Status LastError = Status::success();
  uint64_t StoreFailures = 0;
  uint64_t StoreRetries = 0;
};

/// Guest source snapshots for the optimization tier, keyed by trace
/// start. Fetched synchronously in finalize() (the address space is
/// only guaranteed alive on the engine thread); the promotion pass then
/// needs no engine or guest state at all, so it can run on a pool
/// worker alongside the publish.
using OptSourceMap =
    std::unordered_map<uint32_t, std::vector<isa::Instruction>>;

/// What one finalize promotion pass did.
struct OptOutcome {
  uint64_t TracesPromoted = 0;
  uint64_t SuperblocksFormed = 0;
  uint64_t LoadsEliminated = 0;
  uint64_t ConstsFolded = 0;
  uint64_t Rejections = 0;
};

bool sameInst(const isa::Instruction &A, const isa::Instruction &B) {
  return A.Op == B.Op && A.Rd == B.Rd && A.Rs1 == B.Rs1 &&
         A.Rs2 == B.Rs2 && A.Imm == B.Imm;
}

void clearRelocBit(TraceRecord &Rec, uint32_t I) {
  if (Rec.RelocMask.size() > I / 8)
    Rec.RelocMask[I / 8] &= static_cast<uint8_t>(~(1u << (I % 8)));
}

/// Optimizes \p Rec's body in place and proves the result equivalent to
/// \p Source; on success re-encodes the image (same size — slot-for-
/// slot rewriting) and bumps the record's generation. Rejection leaves
/// the record untouched. Replaced slots lose their reloc bits: a Nop or
/// register move carries no address-bearing immediate to rebase.
bool promoteRecord(TraceRecord &Rec,
                   const std::vector<isa::Instruction> &Source, bool Pic,
                   bool EmitCerts, OptOutcome &Out) {
  auto Decoded = isa::decodeAll(
      Rec.Code.data() + dbi::TracePrologueBytes, Rec.GuestInstCount);
  if (!Decoded)
    return false;
  std::vector<isa::Instruction> Body = Decoded.take();
  const std::vector<isa::Instruction> Original = Body;
  analysis::TraceOptStats OS;
  analysis::optimizeTraceBody(Body, Rec.GuestStart,
                              /*AllowConstFold=*/!Pic, OS);
  analysis::Certificate Cert;
  auto Check = analysis::validateTranslation(
      Rec.GuestStart, Source, Body, EmitCerts ? &Cert : nullptr);
  if (!Check.Equivalent) {
    ++Out.Rejections;
    return false;
  }
  std::vector<uint8_t> Encoded = isa::encodeAll(Body);
  std::copy(Encoded.begin(), Encoded.end(),
            Rec.Code.begin() + dbi::TracePrologueBytes);
  if (Pic)
    for (uint32_t I = 0; I != Body.size(); ++I)
      if (!sameInst(Body[I], Original[I]))
        clearRelocBit(Rec, I);
  ++Rec.OptGen;
  // The proof just ran against the new body: persist it as this
  // record's certificate. Any prior-generation certificate is stale
  // (it bound to the pre-promotion bytes) and must not survive.
  if (EmitCerts) {
    Cert.OptGen = Rec.OptGen;
    Rec.Cert = Cert.serialize();
  } else {
    Rec.Cert.clear();
  }
  ++Out.TracesPromoted;
  Out.LoadsEliminated += OS.LoadsEliminated;
  Out.ConstsFolded += OS.ConstsFolded;
  return true;
}

/// The finalize-time AOT promotion pass: merges contiguous fall-through
/// chains of hot traces into superblocks, then runs the optimizer over
/// every candidate body, accepting only what validateTranslation
/// proves. Pure host-side transform over \p File — no engine, store or
/// guest state — so it runs equally inline or on a pool worker.
void promoteCacheFile(CacheFile &File, const OptSourceMap &Sources,
                      uint32_t MaxGen, uint32_t MaxSuperblockInsts,
                      bool EmitCerts, OptOutcome &Out) {
  const bool Pic = File.PositionIndependent;

  // Candidate set: traces whose guest source was snapshotted (the heat
  // threshold was applied at snapshot time), with generation headroom
  // and a source that still matches the body length.
  std::vector<size_t> CandIdx;
  std::vector<analysis::SuperblockCandidate> Cands;
  for (size_t I = 0; I != File.Traces.size(); ++I) {
    const TraceRecord &Rec = File.Traces[I];
    auto It = Sources.find(Rec.GuestStart);
    if (It == Sources.end() || Rec.OptGen >= MaxGen ||
        It->second.size() != Rec.GuestInstCount)
      continue;
    analysis::SuperblockCandidate C;
    C.Start = Rec.GuestStart;
    C.InstCount = Rec.GuestInstCount;
    C.ModuleIndex = Rec.ModuleIndex;
    C.Heat = Rec.Heat;
    if (!Rec.Exits.empty() &&
        Rec.Exits.back().Kind ==
            static_cast<uint8_t>(ExitKind::FallThrough)) {
      C.EndsInFallThrough = true;
      C.FallTarget = Rec.Exits.back().Target;
    }
    CandIdx.push_back(I);
    Cands.push_back(C);
  }

  // Superblock formation first: each planned chain is merged into its
  // head's record — the boundary fall-through exits become internal
  // control flow; every other exit shifts by the head-relative
  // instruction offset; reloc masks concatenate. Tails keep their own
  // records (tail duplication — they remain valid entry points). A
  // chain that fails its proof is abandoned whole; its members stay
  // scalar candidates below.
  std::vector<bool> Done(Cands.size(), false);
  for (const std::vector<uint32_t> &Chain :
       analysis::planSuperblocks(Cands, MaxSuperblockInsts)) {
    std::vector<isa::Instruction> Body, Source;
    std::vector<ExitRecord> Exits;
    TraceRecord Merged;
    bool Bad = false;
    uint32_t Offset = 0;
    for (size_t K = 0; K != Chain.size(); ++K) {
      const TraceRecord &Rec = File.Traces[CandIdx[Chain[K]]];
      auto Part = isa::decodeAll(
          Rec.Code.data() + dbi::TracePrologueBytes, Rec.GuestInstCount);
      if (!Part) {
        Bad = true;
        break;
      }
      Body.insert(Body.end(), Part->begin(), Part->end());
      const std::vector<isa::Instruction> &Src =
          Sources.at(Rec.GuestStart);
      Source.insert(Source.end(), Src.begin(), Src.end());
      for (size_t X = 0; X != Rec.Exits.size(); ++X) {
        if (K + 1 != Chain.size() && X + 1 == Rec.Exits.size())
          break; // Boundary fall-through: now internal, exit dropped.
        ExitRecord E = Rec.Exits[X];
        E.InstIndex += Offset;
        Exits.push_back(E);
      }
      if (Pic)
        for (uint32_t B = 0; B != Rec.GuestInstCount; ++B)
          if (Rec.relocBit(B))
            Merged.setRelocBit(Offset + B);
      Offset += Rec.GuestInstCount;
    }
    if (Bad)
      continue;
    const TraceRecord &Head = File.Traces[CandIdx[Chain[0]]];
    Merged.GuestStart = Head.GuestStart;
    Merged.ModuleIndex = Head.ModuleIndex;
    Merged.GuestInstCount = Offset;
    Merged.Heat = Head.Heat;
    Merged.OptGen = Head.OptGen;
    Merged.Exits = std::move(Exits);

    const std::vector<isa::Instruction> Original = Body;
    analysis::TraceOptStats OS;
    analysis::optimizeTraceBody(Body, Merged.GuestStart,
                                /*AllowConstFold=*/!Pic, OS);
    analysis::Certificate Cert;
    auto Check = analysis::validateTranslation(
        Merged.GuestStart, Source, Body, EmitCerts ? &Cert : nullptr);
    if (!Check.Equivalent) {
      ++Out.Rejections;
      continue;
    }
    if (Pic)
      for (uint32_t I = 0; I != Body.size(); ++I)
        if (!sameInst(Body[I], Original[I]))
          clearRelocBit(Merged, I);
    Merged.Code.assign(dbi::TracePrologueBytes +
                           Body.size() * isa::InstructionSize +
                           Merged.Exits.size() * dbi::ExitStubBytes,
                       0);
    std::vector<uint8_t> Encoded = isa::encodeAll(Body);
    std::copy(Encoded.begin(), Encoded.end(),
              Merged.Code.begin() + dbi::TracePrologueBytes);
    ++Merged.OptGen;
    if (EmitCerts) {
      Cert.OptGen = Merged.OptGen;
      Merged.Cert = Cert.serialize();
    }
    File.Traces[CandIdx[Chain[0]]] = std::move(Merged);
    Done[Chain[0]] = true;
    ++Out.SuperblocksFormed;
    ++Out.TracesPromoted;
    Out.LoadsEliminated += OS.LoadsEliminated;
    Out.ConstsFolded += OS.ConstsFolded;
  }

  // Scalar promotion for every remaining candidate — superblock tails
  // included, since direct entries to their starts still execute them.
  for (size_t CI = 0; CI != CandIdx.size(); ++CI) {
    if (Done[CI])
      continue;
    promoteRecord(File.Traces[CandIdx[CI]], Sources.at(Cands[CI].Start),
                  Pic, EmitCerts, Out);
  }
}

/// Store-write circuit breaker: persistence is an accelerator, so a
/// failing write is retried up to the threshold and then abandoned —
/// the run completes correctly either way. Pure store-side work; no
/// engine or session state is touched, which is what makes it safe to
/// run on a pool worker after finalize() has returned.
PublishOutcome publishWithBreaker(CacheStore &Store,
                                  const std::string &StoreAsPath,
                                  uint64_t LookupKey,
                                  uint32_t BaseGeneration,
                                  uint32_t Attempts, CacheFile File) {
  PublishOutcome Out;
  for (uint32_t Attempt = 0; Attempt != Attempts; ++Attempt) {
    if (Attempt != 0)
      ++Out.StoreRetries;
    if (!StoreAsPath.empty()) {
      Status S = Store.putRef(StoreAsPath, File);
      if (S.ok()) {
        Out.Succeeded = true;
        return Out;
      }
      Out.LastError = S;
    } else {
      auto Published = Store.publish(LookupKey, File, BaseGeneration);
      if (Published) {
        Out.StoreRetries += Published->LockRetries;
        Out.Succeeded = true;
        return Out;
      }
      Out.LastError = Published.status();
    }
    ++Out.StoreFailures;
  }
  return Out;
}

/// Folds one finalize's publish and promotion outcomes into \p Stats
/// (when given) — the one place both the synchronous and the background
/// path record them, so their stats cannot drift apart — and returns
/// the FailFast error when one applies.
Status foldFinalizeOutcome(const PublishOutcome &Out, const OptOutcome &Opt,
                           bool FailFast, dbi::EngineStats *Stats) {
  if (Stats) {
    Stats->PersistStoreRetries += Out.StoreRetries;
    Stats->PersistStoreFailures += Out.StoreFailures;
    Stats->TracesPromoted += Opt.TracesPromoted;
    Stats->SuperblocksFormed += Opt.SuperblocksFormed;
    Stats->OptLoadsEliminated += Opt.LoadsEliminated;
    Stats->OptConstsFolded += Opt.ConstsFolded;
    Stats->OptValidatorRejections += Opt.Rejections;
  }
  if (Out.Succeeded)
    return Status::success();
  if (FailFast)
    return Out.LastError;
  if (Stats) {
    Stats->PersistDegraded = true;
    Stats->PersistDegradeReason = Out.LastError.toString();
  }
  return Status::success();
}

} // namespace

/// Outcome slot for a background finalize, filled by the pool worker
/// and folded into EngineStats by wait().
struct PersistentSession::FinalizeState {
  std::mutex Mutex;
  std::condition_variable Completed;
  bool Done = false;
  PublishOutcome Publish;
  OptOutcome Opt;
};

Status PersistentSession::finalize(dbi::Engine &Engine) {
  assert(Primed && "finalize() requires a prior prime()");
  if (!Opts.WriteBack)
    return Status::success();

  // The prime pipeline is over: withdraw payload jobs no one will
  // consume so the workers free up for the publish below. In-flight
  // jobs are left to finish (they read only view bytes, which stay
  // alive until wait()/destruction).
  if (Queue)
    Queue->cancelPending();

  const loader::LoadedImage &Image = Engine.machine().image();
  const dbi::CodeCache &Cache = Engine.cache();

  CacheFile File;
  File.EngineHash = EngineHash;
  File.ToolHash = ToolHash;
  File.SpecBits = specBitsOf(Engine.spec());
  File.PositionIndependent = Opts.PositionIndependent;
  // XIP generations are only written for position-independent sessions:
  // relocation-free bodies are what make the shared payload pages
  // executable as-is by every later mapping at an unchanged base.
  File.ExecuteInPlace = Opts.ExecuteInPlace && Opts.PositionIndependent;
  File.Generation = LoadedView ? LoadedView->generation() + 1 : 1;
  File.WriterTag = static_cast<uint16_t>(currentProcessId() & 0xffff);

  File.Modules.reserve(Image.Modules.size());
  for (const LoadedModule &Mod : Image.Modules)
    File.Modules.push_back(ModuleKey::compute(Mod));
  // Resident traces bound the snapshot (accumulation can push past
  // this, but the resident copy loop is the hot part).
  File.Traces.reserve(Cache.traces().size());

  // Per-module set of text-relocated instruction indices, for the PIC
  // relocation masks.
  std::vector<std::unordered_set<uint32_t>> RelocSets;
  if (Opts.PositionIndependent) {
    RelocSets.resize(Image.Modules.size());
    for (size_t I = 0; I != Image.Modules.size(); ++I)
      for (uint32_t Index : Image.Modules[I].Image->textRelocations())
        RelocSets[I].insert(Index);
  }

  auto moduleIndexFor = [&](uint32_t Addr) -> int {
    for (size_t I = 0; I != Image.Modules.size(); ++I)
      if (Image.Modules[I].contains(Addr))
        return static_cast<int>(I);
    return -1;
  };

  // Deep verification at write-back (Opts.ValidateSemantic): never
  // sign a trace whose code image is no longer effect-equivalent to
  // the guest code it claims to translate — in-pool corruption would
  // otherwise be re-published under a fresh checksum. A mismatch skips
  // just that trace.
  const loader::AddressSpace &Space = Engine.machine().space();
  auto semanticallyValid = [&](TraceRecord &Rec) -> bool {
    if (!Opts.ValidateSemantic)
      return true;
    auto Translated =
        isa::decodeAll(Rec.Code.data() + dbi::TracePrologueBytes,
                       Rec.GuestInstCount);
    auto Source =
        Translated ? fetchGuestSource(Space, Rec.GuestStart,
                                      Rec.GuestInstCount)
                   : ErrorOr<std::vector<isa::Instruction>>(
                         Translated.status());
    if (!Translated || !Source) {
      ++Engine.stats().VerifyFailures;
      return false;
    }
    // Certificate fast path: a record that still carries its promotion
    // certificate is verified by the trusted checker; only a rejected
    // (or absent) certificate pays for the full symbolic proof.
    const bool HadCert = !Rec.Cert.empty();
    analysis::CertBindings Bind;
    Bind.BodyBytes = Rec.Code.data() + dbi::TracePrologueBytes;
    Bind.BodyByteCount =
        static_cast<size_t>(Rec.GuestInstCount) * isa::InstructionSize;
    if (HadCert &&
        analysis::checkCertificateBlob(Rec.Cert.data(), Rec.Cert.size(),
                                       Rec.GuestStart, *Translated,
                                       &*Source, &Bind)
            .ok()) {
      ++Engine.stats().TracesVerified;
      return true;
    }
    if (!analysis::validateTranslation(Rec.GuestStart, *Source,
                                       *Translated)
             .Equivalent) {
      ++Engine.stats().VerifyFailures;
      return false;
    }
    // The prover vouches for the body but the certificate did not:
    // drop the stale certificate, keep the trace.
    if (HadCert)
      Rec.Cert.clear();
    ++Engine.stats().TracesVerified;
    return true;
  };

  // Resident traces harvested from the engine pool lost their record
  // envelopes at install — certificates included. Re-attach each
  // promoted trace's certificate from the primed file when the body
  // bytes still match exactly (CRC-bound), so an executed-but-
  // unmodified promotion keeps its proof across generations without
  // re-proving.
  std::unordered_map<uint32_t, std::pair<const uint8_t *, size_t>>
      PriorCerts;
  if (LoadedView && LoadedView->certsPresent()) {
    for (uint32_t J = 0; J != LoadedView->numTraces(); ++J) {
      auto [CertData, CertSize] = LoadedView->certBlobOf(J);
      if (CertData)
        PriorCerts.emplace(LoadedView->entry(J).GuestStart,
                           std::make_pair(CertData, CertSize));
    }
  }
  auto reattachCert = [&](TraceRecord &Rec) {
    if (Rec.OptGen == 0 || !Rec.Cert.empty() || PriorCerts.empty())
      return;
    auto It = PriorCerts.find(Rec.GuestStart);
    if (It == PriorCerts.end())
      return;
    auto Peek =
        analysis::peekCertificate(It->second.first, It->second.second);
    if (!Peek || Peek->GuestStart != Rec.GuestStart ||
        Peek->InstCount != Rec.GuestInstCount)
      return;
    const size_t InstBytes =
        static_cast<size_t>(Rec.GuestInstCount) * isa::InstructionSize;
    if (Rec.Code.size() < dbi::TracePrologueBytes + InstBytes ||
        crc32(Rec.Code.data() + dbi::TracePrologueBytes, InstBytes) !=
            Peek->BodyCrc)
      return; // Body changed (rebase, recompile): certificate is stale.
    Rec.Cert.assign(It->second.first,
                    It->second.first + It->second.second);
  };

  for (const auto &T : Cache.traces()) {
    int ModIndex = moduleIndexFor(T->guestStart());
    if (ModIndex < 0)
      continue; // Not backed by a file on disk: never persisted.
    TraceRecord Rec;
    Rec.GuestStart = T->guestStart();
    Rec.ModuleIndex = static_cast<uint32_t>(ModIndex);
    Rec.GuestInstCount = T->guestInstCount();
    // Heat accumulates across the runs that carried this trace: what
    // the cache file brought in plus this run's executions.
    Rec.Heat = accumulatedHeat(T->persistedHeat(), T->executionCount());
    // The optimization generation travels with the trace: a promoted
    // body that executed this run is written back at its generation.
    Rec.OptGen = T->optGen();
    const uint8_t *Code = Cache.codeAt(T->poolOffset());
    Rec.Code.assign(Code, Code + T->poolBytes());
    for (const dbi::TraceExit &Exit : T->exits())
      Rec.Exits.push_back(ExitRecord{
          static_cast<uint8_t>(Exit.Kind), Exit.InstIndex, Exit.Target,
          Exit.Link ? Exit.Link->guestStart() : 0});

    if (const dbi::PersistedPayload *P = T->persistedPayload()) {
      // Installed lazily and never executed: the pool still holds the
      // raw stored bytes, whose CRC was never checked. Verify now so a
      // damaged payload is dropped (and retranslated by whichever run
      // needs it) rather than re-signed under a fresh checksum; rebase
      // the written copy so the file's bytes match the current base.
      if (crc32(Rec.Code.data(), Rec.Code.size()) != P->ExpectedCodeCrc)
        continue;
      if (P->RebaseDelta != 0)
        for (uint32_t I = 0; I != Rec.GuestInstCount; ++I)
          if (P->RelocMask.size() > I / 8 &&
              (P->RelocMask[I / 8] >> (I % 8)) & 1)
            rebaseImmediate(Rec.Code, I, P->RebaseDelta);
      if (Opts.PositionIndependent)
        Rec.RelocMask = P->RelocMask;
      reattachCert(Rec);
      if (!semanticallyValid(Rec))
        continue;
      File.Traces.push_back(std::move(Rec));
      continue;
    }

    if (Opts.PositionIndependent) {
      // Mark every address-bearing immediate: branch/call targets plus
      // the module's own text relocations (address materialization).
      auto Body =
          T->isMaterialized()
              ? ErrorOr<std::vector<isa::Instruction>>(
                    std::vector<isa::Instruction>(T->body().begin(),
                                                  T->body().end()))
              : isa::decodeAll(Code + dbi::TracePrologueBytes,
                               T->guestInstCount());
      if (!Body)
        return Body.status();
      const LoadedModule &Mod = Image.Modules[ModIndex];
      uint32_t FirstIndex =
          (T->guestStart() - Mod.Base) / isa::InstructionSize;
      for (uint32_t I = 0; I != Body->size(); ++I) {
        bool NeedsReloc =
            isa::hasCodeTarget((*Body)[I].Op) ||
            RelocSets[ModIndex].count(FirstIndex + I);
        if (NeedsReloc)
          Rec.setRelocBit(I);
      }
    }
    reattachCert(Rec);
    if (!semanticallyValid(Rec))
      continue;
    File.Traces.push_back(std::move(Rec));
  }

  // Prior-trace extraction CRC-checks the payload; failures drop only
  // that trace from the carry-through.
  const CacheFileView *Prior = LoadedView.get();

  // Accumulation carry-through, part 1: traces of *validated* modules
  // that are no longer resident in the engine cache — dropped by a
  // mid-run flush or skipped at install when a pool filled. The paper
  // writes the persistent cache "whenever the intra-execution code
  // cache becomes full" for exactly this reason; merging here keeps
  // accumulation monotone under cache pressure. Only applies to this
  // application's own cache, and only when the module's base is
  // unchanged (always true for validated non-PIC modules; PIC reuse at
  // a new base would require rebasing the stale records, so those are
  // left to retranslation instead).
  if (Opts.Accumulate && LoadedWasOwn && Prior) {
    std::unordered_set<uint32_t> Written;
    for (const TraceRecord &Rec : File.Traces)
      Written.insert(Rec.GuestStart);
    std::unordered_map<std::string, uint32_t> IndexByPath;
    for (size_t I = 0; I != File.Modules.size(); ++I)
      IndexByPath.emplace(File.Modules[I].Path,
                          static_cast<uint32_t>(I));
    for (uint32_t I = 0; I != Prior->numModules(); ++I) {
      if (Matches[I].State != ModuleState::Validated)
        continue;
      const ModuleKey &Old = Prior->modules()[I];
      auto It = IndexByPath.find(Old.Path);
      if (It == IndexByPath.end() ||
          File.Modules[It->second].Base != Old.Base)
        continue;
      for (uint32_t J = 0; J != Prior->numTraces(); ++J) {
        const TraceIndexEntry &E = Prior->entry(J);
        if (E.ModuleIndex != I || Written.count(E.GuestStart))
          continue;
        auto Copy = Prior->record(J);
        if (!Copy)
          continue; // Corrupt prior payload: dropped from carry-through.
        Copy->ModuleIndex = It->second;
        Written.insert(Copy->GuestStart);
        File.Traces.push_back(Copy.take());
      }
    }
  }

  // Accumulation carry-through, part 2: keep still-valid traces of
  // modules that simply were not loaded by this run, so the cache's
  // coverage only grows over time (Section 4.4). Only applies to this
  // application's own cache; donor caches are never modified or
  // absorbed wholesale.
  if (Opts.Accumulate && LoadedWasOwn && Prior) {
    for (uint32_t I = 0; I != Prior->numModules(); ++I) {
      if (Matches[I].State != ModuleState::Absent)
        continue;
      const ModuleKey &Old = Prior->modules()[I];
      bool Collides = false;
      for (const ModuleKey &Current : File.Modules)
        Collides |= regionsOverlap(Old.Base, Old.Size, Current.Base,
                                   Current.Size);
      if (Collides)
        continue;
      uint32_t NewIndex = static_cast<uint32_t>(File.Modules.size());
      File.Modules.push_back(Old);
      for (uint32_t J = 0; J != Prior->numTraces(); ++J) {
        if (Prior->entry(J).ModuleIndex != I)
          continue;
        auto Copy = Prior->record(J);
        if (!Copy)
          continue; // Corrupt prior payload: dropped from carry-through.
        Copy->ModuleIndex = NewIndex;
        File.Traces.push_back(Copy.take());
      }
    }
  }

  // Clear links whose targets did not make it into this file (e.g. a
  // link into a trace the engine recompiled differently): readers treat
  // LinkedStart == 0 as "unlinked", and validate() requires closure.
  std::unordered_set<uint32_t> AllStarts;
  for (const TraceRecord &Rec : File.Traces)
    AllStarts.insert(Rec.GuestStart);
  for (TraceRecord &Rec : File.Traces)
    for (ExitRecord &Exit : Rec.Exits)
      if (Exit.LinkedStart != 0 && !AllStarts.count(Exit.LinkedStart))
        Exit.LinkedStart = 0;

  // Heat-ordered layout: hottest traces first in the trace index and
  // payload, so a later run's demand paging touches the fewest payload
  // pages before its hot code is resident. Correctness is order-
  // independent — records address each other by guest start.
  std::stable_sort(File.Traces.begin(), File.Traces.end(),
                   [](const TraceRecord &A, const TraceRecord &B) {
                     if (A.Heat != B.Heat)
                       return A.Heat > B.Heat;
                     return A.GuestStart < B.GuestStart;
                   });

  // Optimization tier: snapshot guest source for the hot candidates
  // now — the address space is only guaranteed alive on this thread —
  // so the transform + equivalence proof can run alongside the publish,
  // behind the wait() durability barrier. Tool-less sessions only: the
  // optimizer deletes instructions, which would change what an
  // instrumentation tool observes.
  OptSourceMap OptSources;
  if (Opts.OptTier && !Engine.tool() && File.SpecBits == 0)
    for (const TraceRecord &Rec : File.Traces) {
      if (Rec.Heat < Opts.OptHeatThreshold ||
          Rec.OptGen >= Opts.OptMaxGen)
        continue;
      auto Src =
          fetchGuestSource(Space, Rec.GuestStart, Rec.GuestInstCount);
      if (!Src)
        continue; // Unreadable source (e.g. a carried trace of a module
                  // this run never mapped): stays at its generation.
      OptSources.emplace(Rec.GuestStart, Src.take());
    }

  CacheStore &Store = *Db.backend();
  dbi::EngineStats &Stats = Engine.stats();
  // The write charge is modeled on the pre-promotion snapshot in both
  // the sync and background paths: promotion happens off the modeled
  // critical path, so architectural stats stay bit-identical whether
  // the tier is on or off, and for any worker count.
  Stats.PersistCycles +=
      Engine.options().Costs.PersistWriteCyclesPerPage *
      pagesOf(File.serializedSize());
  // Transactional publish: BaseGeneration is what this session primed
  // from its own slot (a donor prime does not claim the slot's
  // history), so a concurrent finalizer that advanced the slot first is
  // detected and merged with instead of clobbered.
  uint32_t BaseGeneration = LoadedWasOwn && Prior ? File.Generation - 1 : 0;

  uint32_t Attempts = std::max(1u, Opts.BreakerThreshold);

  if (Opts.Pool && Opts.Pool->workerCount() > 0) {
    // Background finalize: the snapshot above (and every modeled
    // charge) happened synchronously; only the serialize + store
    // publish — pure host-side I/O — moves off the critical path.
    // The breaker/degrade/FailFast outcome is delivered by wait().
    Fin = std::make_shared<FinalizeState>();
    auto FinPtr = Fin;
    std::shared_ptr<CacheStore> StorePtr = Db.backend();
    auto FilePtr = std::make_shared<CacheFile>(std::move(File));
    Opts.Pool->submit([FinPtr, StorePtr, FilePtr,
                       Sources = std::move(OptSources),
                       MaxGen = Opts.OptMaxGen,
                       MaxSb = Opts.OptMaxSuperblockInsts,
                       EmitCerts = Opts.EmitCertificates,
                       StoreAsPath = Opts.StoreAsPath,
                       Key = LookupKey, BaseGeneration, Attempts] {
      OptOutcome Opt;
      if (!Sources.empty())
        promoteCacheFile(*FilePtr, Sources, MaxGen, MaxSb, EmitCerts,
                         Opt);
      PublishOutcome Out =
          publishWithBreaker(*StorePtr, StoreAsPath, Key,
                             BaseGeneration, Attempts,
                             std::move(*FilePtr));
      {
        std::unique_lock<std::mutex> Lock(FinPtr->Mutex);
        FinPtr->Publish = std::move(Out);
        FinPtr->Opt = Opt;
        FinPtr->Done = true;
      }
      FinPtr->Completed.notify_all();
    });
    return Status::success();
  }

  OptOutcome Opt;
  if (!OptSources.empty())
    promoteCacheFile(File, OptSources, Opts.OptMaxGen,
                     Opts.OptMaxSuperblockInsts, Opts.EmitCertificates,
                     Opt);
  PublishOutcome Out =
      publishWithBreaker(Store, Opts.StoreAsPath, LookupKey,
                         BaseGeneration, Attempts, std::move(File));
  return foldFinalizeOutcome(Out, Opt, Opts.FailFast, &Stats);
}

Status PersistentSession::wait(dbi::EngineStats *Stats) {
  if (Queue) {
    // Jobs the run never consumed are dead weight; in-flight ones must
    // finish before the cache-file view they read can be released.
    Queue->cancelPending();
    Queue->waitInFlight();
    if (RecordingHooks *Hooks = recordingHooks()) {
      // Diagnostic timeline only: engine results are invariant to the
      // claim/withdraw pattern, so replay compares these outcomes to
      // attribute a divergence, never to reproduce one.
      dbi::ScheduleStats Sched = Queue->scheduleStats();
      ScheduleOutcomes Out;
      Out.ChunksPublished = Sched.ChunksPublished;
      Out.ChunksClaimed = Sched.ChunksClaimed;
      Out.ChunksWithdrawn = Sched.ChunksWithdrawn;
      Out.ChunksInFlightSkipped = Sched.ChunksInFlightSkipped;
      Hooks->onScheduleOutcomes(Out);
    }
  }
  if (!Fin)
    return Status::success();
  std::shared_ptr<FinalizeState> Done = std::move(Fin);
  {
    std::unique_lock<std::mutex> Lock(Done->Mutex);
    Done->Completed.wait(Lock, [&] { return Done->Done; });
  }
  return foldFinalizeOutcome(Done->Publish, Done->Opt, Opts.FailFast,
                             Stats);
}

ErrorOr<PersistentRunResult> pcc::persist::runWithPersistence(
    vm::Machine &M, dbi::Tool *ClientTool,
    const dbi::EngineOptions &EngineOpts, const CacheDatabase &Db,
    const PersistOptions &Opts) {
  dbi::Engine Engine(M, ClientTool, EngineOpts);
  PersistentSession Session(Db, Opts);
  auto Prime = Session.prime(Engine);
  if (!Prime)
    return Prime.status();

  PersistentRunResult Result;
  Result.Prime = Prime.take();
  Result.Run = Engine.run();
  Status Finalized = Session.finalize(Engine);
  if (!Finalized.ok())
    return Finalized;
  // Durability barrier: with a worker pool the publish is still in
  // flight — wait for it and fold its outcome (retries, failures,
  // degradation) into the stats exactly where the synchronous path
  // records them.
  Status Waited = Session.wait(&Engine.stats());
  if (!Waited.ok())
    return Waited;
  Result.Stats = Engine.stats();
  // Include the cache write-back charged by finalize().
  Result.Run.Cycles = Result.Stats.totalCycles();
  return Result;
}
