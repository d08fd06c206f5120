//===- persist/TieredStore.cpp --------------------------------------------===//

#include "persist/TieredStore.h"

#include "analysis/CertChecker.h"
#include "dbi/Compiler.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <unordered_set>

using namespace pcc;
using namespace pcc::persist;

TieredStore::TieredStore(std::shared_ptr<CacheStore> L1,
                         std::shared_ptr<CacheStore> L2,
                         TieredOptions Opts)
    : L1(std::move(L1)), L2(std::move(L2)), Opts(Opts) {
  assert(this->L1 && this->L2 && "tiered store requires both tiers");
}

std::string TieredStore::nameOf(const std::string &Ref) {
  size_t Slash = Ref.rfind('/');
  return Slash == std::string::npos ? Ref : Ref.substr(Slash + 1);
}

std::string TieredStore::l1RefOf(const std::string &Name) const {
  return L1->location() + "/" + Name;
}

std::string TieredStore::l2RefOf(const std::string &Name) const {
  return L2->location() + "/" + Name;
}

void TieredStore::noteRemoteFailure() {
  uint32_t Consec =
      RemoteConsecFailures.fetch_add(1, std::memory_order_relaxed) + 1;
  if (Consec >= Opts.RemoteBreakerThreshold)
    // Sticky for the store's lifetime: a fleet machine that lost its
    // remote runs local-only until the next session rebuilds the store.
    RemoteEnabled.store(false, std::memory_order_relaxed);
}

void TieredStore::noteRemoteSuccess() {
  RemoteConsecFailures.store(0, std::memory_order_relaxed);
}

uint64_t TieredStore::remoteCycles(uint64_t Bytes) const {
  uint64_t Pages = (Bytes + 4095) / 4096;
  return Opts.RemoteFetchLatencyCycles +
         Pages * Opts.RemoteFetchCyclesPerPage;
}

void TieredStore::touchUseLocked(const std::string &Name) {
  LastUse[Name] = UseClock.fetch_add(1, std::memory_order_relaxed) + 1;
}

bool TieredStore::exists(uint64_t LookupKey) const {
  if (L1->exists(LookupKey))
    return true;
  return remoteUsable() && L2->exists(LookupKey);
}

ErrorOr<CacheFile>
TieredStore::fetchIntoL1Locked(const std::string &Name,
                               uint64_t *FetchBytes,
                               uint64_t *FetchCycles) {
  auto Remote = L2->loadRef(l2RefOf(Name));
  if (!Remote) {
    if (Remote.status().code() == ErrorCode::IoError)
      noteRemoteFailure();
    if (Remote.status().code() != ErrorCode::NotFound)
      ++RemoteFailures;
    return Remote.status();
  }
  noteRemoteSuccess();
  // Self-check the fetched records' validation certificates (the
  // module-less trusted-checker pass: recorded proof vs embedded
  // source vs body bytes). Blobs pass through unmodified either way —
  // prime re-checks against the live guest and owns the quarantine
  // decision; this is the fleet's early-warning telemetry for a
  // poisoned or bit-rotted remote tier.
  for (const TraceRecord &Rec : Remote->Traces) {
    if (Rec.Cert.empty())
      continue;
    ++CertFillChecks;
    if (Rec.Code.size() < dbi::TracePrologueBytes +
                              static_cast<size_t>(Rec.GuestInstCount) *
                                  isa::InstructionSize) {
      ++CertFillRejects;
      continue;
    }
    auto Body =
        isa::decodeAll(Rec.Code.data() + dbi::TracePrologueBytes,
                       Rec.GuestInstCount);
    analysis::CertBindings Bind;
    Bind.BodyBytes = Rec.Code.data() + dbi::TracePrologueBytes;
    Bind.BodyByteCount =
        static_cast<size_t>(Rec.GuestInstCount) * isa::InstructionSize;
    if (!Body ||
        !analysis::checkCertificateBlob(Rec.Cert.data(),
                                        Rec.Cert.size(), Rec.GuestStart,
                                        *Body, nullptr, &Bind)
             .ok())
      ++CertFillRejects;
  }
  uint64_t Size = Remote->serializedSize();
  uint64_t Cycles = remoteCycles(Size);
  ++RemoteFetches;
  RemoteFetchBytes += Size;
  ModeledRemoteCycles += Cycles;
  if (FetchBytes)
    *FetchBytes = Size;
  if (FetchCycles)
    *FetchCycles = Cycles;
  // Best-effort fill: an unwritable L1 still serves the fetched image.
  (void)L1->putRef(l1RefOf(Name), *Remote);
  touchUseLocked(Name);
  enforceL1QuotaLocked(Name);
  return Remote;
}

ErrorOr<StoredCache> TieredStore::openRef(const std::string &Ref,
                                          CacheFileView::Depth D) {
  const std::string Name = nameOf(Ref);
  const std::string LocalRef = l1RefOf(Name);
  auto Local = L1->openRef(LocalRef, D);
  if (Local) {
    {
      std::lock_guard<std::mutex> Guard(FillMutex);
      touchUseLocked(Name);
    }
    ++L1Hits;
    Local->Tier = CacheTier::L1;
    return Local;
  }
  if (!remoteUsable()) {
    if (Local.status().code() == ErrorCode::NotFound)
      ++Misses;
    return Local.status();
  }
  // Read through L2. A corrupt local copy was already pulled into L1's
  // quarantine by the open above, so a healthy remote copy self-heals
  // the slot here.
  std::unique_lock<std::mutex> Lock(FillMutex);
  auto Refilled = L1->openRef(LocalRef, D); // A racer may have filled.
  if (Refilled) {
    touchUseLocked(Name);
    Lock.unlock();
    ++L1Hits;
    Refilled->Tier = CacheTier::L1;
    return Refilled;
  }
  uint64_t FetchBytes = 0, FetchCycles = 0;
  auto Fetched = fetchIntoL1Locked(Name, &FetchBytes, &FetchCycles);
  if (!Fetched) {
    if (Fetched.status().code() == ErrorCode::NotFound) {
      ++Misses;
      return Local.status(); // Both tiers empty: the local story wins.
    }
    return Fetched.status(); // Remote failure: caller degrades.
  }
  // Serve the filled slot (the normal case); when the fill could not
  // land, serve a view over the fetched image instead.
  auto Now = L1->openRef(LocalRef, D);
  StoredCache Out;
  if (Now) {
    Out = Now.take();
  } else {
    auto View = CacheFileView::open(Fetched->serialize(), D);
    if (!View)
      return View.status();
    Out.View = View.take();
  }
  touchUseLocked(Name);
  Lock.unlock();
  ++L2Hits;
  Out.Tier = CacheTier::L2;
  Out.RemoteFetchBytes = FetchBytes;
  Out.RemoteFetchCycles = FetchCycles;
  return Out;
}

ErrorOr<CacheFile> TieredStore::loadRef(const std::string &Ref) {
  const std::string Name = nameOf(Ref);
  auto Local = L1->loadRef(l1RefOf(Name));
  if (Local) {
    {
      std::lock_guard<std::mutex> Guard(FillMutex);
      touchUseLocked(Name);
    }
    ++L1Hits;
    return Local;
  }
  if (!remoteUsable())
    return Local.status();
  std::lock_guard<std::mutex> Guard(FillMutex);
  auto Fetched = fetchIntoL1Locked(Name, nullptr, nullptr);
  if (!Fetched) {
    if (Fetched.status().code() == ErrorCode::NotFound) {
      ++Misses;
      return Local.status();
    }
    return Fetched.status();
  }
  ++L2Hits;
  return Fetched;
}

void TieredStore::fillL1IfNewer(const std::string &Name,
                                const CacheFile &File) {
  std::lock_guard<std::mutex> Guard(FillMutex);
  const std::string LocalRef = l1RefOf(Name);
  auto Cur = L1->openRef(LocalRef, CacheFileView::Depth::HeaderOnly);
  if (Cur) {
    if (Cur->View.generation() > File.Generation) {
      touchUseLocked(Name);
      return; // A racer filled something newer; stay monotone.
    }
    if (Cur->View.generation() == File.Generation) {
      // Equal merge generation: the copies can still differ in
      // promotion state. The header's OptGen flag says whether the
      // resident copy carries validator-proved promoted bodies; the
      // incoming file is only an upgrade when it has them and the
      // resident copy does not — a stale gen-0 finalizer must never
      // clobber a promoted artifact.
      bool CurPromoted = Cur->View.optGenEntries();
      if (CurPromoted || File.maxOptGen() == 0) {
        touchUseLocked(Name);
        return;
      }
    }
  }
  (void)L1->putRef(LocalRef, File);
  touchUseLocked(Name);
  enforceL1QuotaLocked(Name);
}

Status TieredStore::put(uint64_t LookupKey, const CacheFile &File) {
  Status S = L1->put(LookupKey, File);
  if (!S.ok())
    return S;
  const std::string Name = nameOf(L1->refFor(LookupKey));
  {
    std::lock_guard<std::mutex> Guard(FillMutex);
    touchUseLocked(Name);
    enforceL1QuotaLocked(Name);
  }
  if (remoteUsable()) {
    Status R = L2->put(LookupKey, File);
    if (!R.ok()) {
      if (R.code() == ErrorCode::IoError)
        noteRemoteFailure();
      ++RemoteFailures; // Absorbed: the local tier has the data.
    } else {
      noteRemoteSuccess();
      uint64_t Size = File.serializedSize();
      ++RemotePublishes;
      RemotePublishBytes += Size;
      ModeledRemoteCycles += remoteCycles(Size);
    }
  }
  return Status::success();
}

Status TieredStore::putRef(const std::string &Ref,
                           const CacheFile &File) {
  const std::string Name = nameOf(Ref);
  Status S = L1->putRef(l1RefOf(Name), File);
  if (!S.ok())
    return S;
  {
    std::lock_guard<std::mutex> Guard(FillMutex);
    touchUseLocked(Name);
    enforceL1QuotaLocked(Name);
  }
  if (remoteUsable()) {
    Status R = L2->putRef(l2RefOf(Name), File);
    if (!R.ok()) {
      if (R.code() == ErrorCode::IoError)
        noteRemoteFailure();
      ++RemoteFailures;
    } else {
      noteRemoteSuccess();
      uint64_t Size = File.serializedSize();
      ++RemotePublishes;
      RemotePublishBytes += Size;
      ModeledRemoteCycles += remoteCycles(Size);
    }
  }
  return Status::success();
}

ErrorOr<PublishResult> TieredStore::publish(uint64_t LookupKey,
                                            CacheFile File,
                                            uint32_t BaseGeneration) {
  const std::string Name = nameOf(L1->refFor(LookupKey));
  if (remoteUsable()) {
    // L2 first: the shared tier is the global merge truth — concurrent
    // finalizers anywhere in the fleet resolve their generations there.
    uint64_t Size = File.serializedSize();
    auto R = L2->publish(LookupKey, File, BaseGeneration);
    if (R) {
      noteRemoteSuccess();
      ++RemotePublishes;
      RemotePublishBytes += Size;
      ModeledRemoteCycles += remoteCycles(Size);
      if (R->Merged) {
        // The slot holds a merge of ours and a concurrent winner's:
        // pull the union back so the local tier serves it too.
        auto Current = L2->loadKey(LookupKey);
        if (Current) {
          uint64_t MergedSize = Current->serializedSize();
          ++RemoteFetches;
          RemoteFetchBytes += MergedSize;
          ModeledRemoteCycles += remoteCycles(MergedSize);
          fillL1IfNewer(Name, *Current);
        }
      } else {
        // Stored as given: fill from the in-hand copy, no link trip.
        fillL1IfNewer(Name, File);
      }
      if (Opts.L2QuotaBytes)
        (void)L2->shrinkTo(Opts.L2QuotaBytes);
      return R;
    }
    if (R.status().code() == ErrorCode::IoError)
      noteRemoteFailure();
    ++RemoteFailures;
    // Fall through: degrade to a local-only publish so the session's
    // translations survive on this machine.
  }
  auto R = L1->publish(LookupKey, std::move(File), BaseGeneration);
  if (R) {
    std::lock_guard<std::mutex> Guard(FillMutex);
    touchUseLocked(Name);
    enforceL1QuotaLocked(Name);
  }
  return R;
}

Status TieredStore::retire(uint64_t LookupKey) {
  Status S = L1->retire(LookupKey);
  {
    std::lock_guard<std::mutex> Guard(FillMutex);
    LastUse.erase(nameOf(L1->refFor(LookupKey)));
  }
  if (remoteUsable()) {
    Status R = L2->retire(LookupKey);
    if (!R.ok()) {
      if (R.code() == ErrorCode::IoError)
        noteRemoteFailure();
      ++RemoteFailures;
    }
  }
  return S;
}

Status TieredStore::clear() {
  Status S = L1->clear();
  {
    std::lock_guard<std::mutex> Guard(FillMutex);
    LastUse.clear();
  }
  if (remoteUsable()) {
    Status R = L2->clear();
    if (!R.ok()) {
      if (R.code() == ErrorCode::IoError)
        noteRemoteFailure();
      ++RemoteFailures;
    }
  }
  return S;
}

ErrorOr<std::vector<std::string>>
TieredStore::findCompatible(uint64_t EngineHash, uint64_t ToolHash) {
  auto Local = L1->findCompatible(EngineHash, ToolHash);
  if (!Local)
    return Local.status();
  std::unordered_set<std::string> Seen;
  std::vector<std::string> Matches;
  for (const std::string &Ref : *Local) {
    Seen.insert(nameOf(Ref));
    Matches.push_back(Ref);
  }
  std::sort(Matches.begin(), Matches.end());
  if (remoteUsable()) {
    auto Remote = L2->findCompatible(EngineHash, ToolHash);
    if (!Remote) {
      if (Remote.status().code() == ErrorCode::IoError)
        noteRemoteFailure();
      ++RemoteFailures; // Degrade to the local candidate set.
    } else {
      noteRemoteSuccess();
      // Remote-only candidates come after every local one (no fetch
      // needed to try those first) in L1's namespace, so opening one
      // reads it through.
      std::vector<std::string> Extra;
      for (const std::string &Ref : *Remote) {
        std::string Name = nameOf(Ref);
        if (!Seen.count(Name))
          Extra.push_back(l1RefOf(Name));
      }
      std::sort(Extra.begin(), Extra.end());
      Matches.insert(Matches.end(), Extra.begin(), Extra.end());
    }
  }
  return Matches;
}

ErrorOr<std::vector<std::string>> TieredStore::listRefs() const {
  auto Local = L1->listRefs();
  if (!Local)
    return Local.status();
  std::unordered_set<std::string> Names;
  for (const std::string &Ref : *Local)
    Names.insert(nameOf(Ref));
  if (remoteUsable())
    if (auto Remote = L2->listRefs())
      for (const std::string &Ref : *Remote)
        Names.insert(nameOf(Ref));
  std::vector<std::string> Refs;
  Refs.reserve(Names.size());
  for (const std::string &Name : Names)
    Refs.push_back(l1RefOf(Name));
  std::sort(Refs.begin(), Refs.end());
  return Refs;
}

ErrorOr<StoreStats> TieredStore::stats() {
  // Write-through makes the remote tier the superset, so its scan is
  // the fleet-wide truth; quarantine is a local judgment, so that count
  // comes from L1 either way.
  if (remoteUsable()) {
    auto S = L2->stats();
    if (S) {
      noteRemoteSuccess();
      S->QuarantinedFiles = 0;
      if (auto Q = L1->quarantined())
        S->QuarantinedFiles = static_cast<uint32_t>(Q->size());
      return S;
    }
    if (S.status().code() == ErrorCode::IoError)
      noteRemoteFailure();
    ++RemoteFailures;
  }
  return L1->stats();
}

ErrorOr<uint32_t> TieredStore::shrinkTo(uint64_t MaxBytes) {
  if (!remoteUsable())
    return L1->shrinkTo(MaxBytes);
  auto Removed = L2->shrinkTo(MaxBytes);
  if (!Removed) {
    if (Removed.status().code() == ErrorCode::IoError)
      noteRemoteFailure();
    ++RemoteFailures;
    return L1->shrinkTo(MaxBytes);
  }
  noteRemoteSuccess();
  // Reconcile: local copies of files the authoritative tier evicted go
  // too, uncounted — the caller asked about the store, which is L2.
  auto Survivors = L2->listRefs();
  auto LocalRefs = L1->listRefs();
  if (Survivors && LocalRefs) {
    std::unordered_set<std::string> Keep;
    for (const std::string &Ref : *Survivors)
      Keep.insert(nameOf(Ref));
    std::lock_guard<std::mutex> Guard(FillMutex);
    for (const std::string &Ref : *LocalRefs) {
      std::string Name = nameOf(Ref);
      if (Keep.count(Name))
        continue;
      uint64_t Key = std::strtoull(Name.c_str(), nullptr, 16);
      if (l1RefOf(Name) != L1->refFor(Key))
        continue; // Not a key slot (donor fixture): leave it alone.
      (void)L1->retire(Key);
      LastUse.erase(Name);
    }
  }
  return Removed;
}

std::vector<LockInfo> TieredStore::locks() const {
  std::vector<LockInfo> Result = L1->locks();
  std::vector<LockInfo> Remote = L2->locks();
  Result.insert(Result.end(), Remote.begin(), Remote.end());
  return Result;
}

Status TieredStore::quarantineRef(const std::string &Ref,
                                  const std::string &Reason) {
  // Quarantine is local: this machine proved its copy bad; the remote
  // copy stays for the rest of the fleet to judge (and for pcc-dbcheck
  // against the shared tier).
  return L1->quarantineRef(l1RefOf(nameOf(Ref)), Reason);
}

ErrorOr<std::vector<QuarantineEntry>> TieredStore::quarantined() {
  return L1->quarantined();
}

Status TieredStore::restoreQuarantined(const std::string &Name) {
  return L1->restoreQuarantined(Name);
}

ErrorOr<uint32_t> TieredStore::purgeQuarantine() {
  return L1->purgeQuarantine();
}

void TieredStore::setAutoQuarantine(bool Enabled) {
  CacheStore::setAutoQuarantine(Enabled);
  L1->setAutoQuarantine(Enabled);
  L2->setAutoQuarantine(Enabled);
}

void TieredStore::setScanPool(support::ThreadPool *Pool) {
  CacheStore::setScanPool(Pool);
  L1->setScanPool(Pool);
  L2->setScanPool(Pool);
}

void TieredStore::enforceL1QuotaLocked(const std::string &Protect) {
  if (Opts.L1QuotaBytes == 0)
    return;
  auto S = L1->stats();
  if (!S || S->DiskBytes <= Opts.L1QuotaBytes)
    return;
  auto Refs = L1->listRefs();
  if (!Refs)
    return;
  struct Victim {
    std::string Name;
    uint64_t Heat = 0;
    uint64_t Last = 0;
    uint64_t Bytes = 0;
  };
  std::vector<Victim> Victims;
  bool SawCorrupt = false;
  for (const std::string &Ref : *Refs) {
    std::string Name = nameOf(Ref);
    if (Name == Protect)
      continue;
    Victim V;
    V.Name = std::move(Name);
    auto It = LastUse.find(V.Name);
    V.Last = It == LastUse.end() ? 0 : It->second;
    auto Cache = L1->openRef(Ref, CacheFileView::Depth::Index);
    if (!Cache) {
      // Corrupt copies were just auto-quarantined by the open (or are
      // unreadable); either way they are not eviction candidates.
      SawCorrupt = true;
      continue;
    }
    V.Bytes = Cache->View.declaredFileBytes();
    for (uint32_t I = 0; I != Cache->View.numTraces(); ++I)
      V.Heat += Cache->View.entry(I).Heat;
    Victims.push_back(std::move(V));
  }
  uint64_t Total = S->DiskBytes;
  if (SawCorrupt) {
    // Quarantine moves freed bytes; re-measure before evicting.
    auto Fresh = L1->stats();
    if (Fresh)
      Total = Fresh->DiskBytes;
  }
  // Coldest first: least accumulated heat, then least recently used.
  // Evicted files stay one remote fetch away, so the worst case of a
  // wrong choice is a read-through, never a retranslation.
  std::sort(Victims.begin(), Victims.end(),
            [](const Victim &A, const Victim &B) {
              if (A.Heat != B.Heat)
                return A.Heat < B.Heat;
              if (A.Last != B.Last)
                return A.Last < B.Last;
              return A.Name < B.Name;
            });
  for (const Victim &V : Victims) {
    if (Total <= Opts.L1QuotaBytes)
      break;
    uint64_t Key = std::strtoull(V.Name.c_str(), nullptr, 16);
    if (l1RefOf(V.Name) != L1->refFor(Key))
      continue; // Not a key slot: the quota never touches fixtures.
    if (!L1->retire(Key).ok())
      continue;
    ++L1Evictions;
    LastUse.erase(V.Name);
    Total -= std::min(Total, V.Bytes);
  }
}

TieredStats TieredStore::tieredStats() const {
  TieredStats S;
  S.L1Hits = L1Hits.load(std::memory_order_relaxed);
  S.L2Hits = L2Hits.load(std::memory_order_relaxed);
  S.Misses = Misses.load(std::memory_order_relaxed);
  S.RemoteFetches = RemoteFetches.load(std::memory_order_relaxed);
  S.RemoteFetchBytes = RemoteFetchBytes.load(std::memory_order_relaxed);
  S.RemotePublishes = RemotePublishes.load(std::memory_order_relaxed);
  S.RemotePublishBytes =
      RemotePublishBytes.load(std::memory_order_relaxed);
  S.RemoteFailures = RemoteFailures.load(std::memory_order_relaxed);
  S.L1Evictions = L1Evictions.load(std::memory_order_relaxed);
  S.ModeledRemoteCycles =
      ModeledRemoteCycles.load(std::memory_order_relaxed);
  S.CertFillChecks = CertFillChecks.load(std::memory_order_relaxed);
  S.CertFillRejects = CertFillRejects.load(std::memory_order_relaxed);
  S.RemoteDisabled = remoteDisabled();
  return S;
}
