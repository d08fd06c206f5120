//===- persist/DirectoryStore.cpp -----------------------------------------===//

#include "persist/DirectoryStore.h"

#include "persist/RecordingHooks.h"
#include "support/FileLock.h"
#include "support/FileSystem.h"
#include "support/Random.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

using namespace pcc;
using namespace pcc::persist;

namespace {

bool isCacheFileName(const std::string &Name) {
  return Name.size() >= 4 && Name.substr(Name.size() - 4) == ".pcc";
}

bool isLockFileName(const std::string &Name) {
  return Name.size() >= 5 && Name.substr(Name.size() - 5) == ".lock";
}

bool isAttachmentFileName(const std::string &Name) {
  return Name.size() >= 5 && Name.substr(Name.size() - 5) == ".pcrr";
}

/// Raw stdio read that bypasses pcc::readFile, so observing cache bytes
/// for a recording never consumes a FaultOp::Read decision — the
/// record-time and replay-time fault streams must see the exact same
/// call sequence.
bool readFileRaw(const std::string &Path, std::vector<uint8_t> &Out) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return false;
  Out.clear();
  uint8_t Buffer[1 << 16];
  size_t Got = 0;
  while ((Got = std::fread(Buffer, 1, sizeof(Buffer), File)) > 0)
    Out.insert(Out.end(), Buffer, Buffer + Got);
  bool Ok = std::ferror(File) == 0;
  std::fclose(File);
  return Ok;
}

} // namespace

DirectoryStore::DirectoryStore(std::string Dir) : Dir(std::move(Dir)) {
  // Creation failure surfaces later as IoError from open/publish.
  (void)createDirectories(this->Dir);
}

std::string DirectoryStore::refFor(uint64_t LookupKey) const {
  return Dir + "/" + toHex(LookupKey, 16) + ".pcc";
}

std::string DirectoryStore::lockDir() const { return Dir + "/.locks"; }

std::string DirectoryStore::quarantineDir() const {
  return Dir + "/.quarantine";
}

std::string DirectoryStore::storeLockPath() const {
  // Lock files live out of the store directory proper so directory
  // listings see nothing but cache files. Creation failure surfaces as
  // IoError from the subsequent FileLock::acquire.
  (void)createDirectories(lockDir());
  return lockDir() + "/store.lock";
}

std::string DirectoryStore::keyLockPath(uint64_t LookupKey) const {
  (void)createDirectories(lockDir());
  return lockDir() + "/k" + toHex(LookupKey, 16) + ".lock";
}

bool DirectoryStore::exists(uint64_t LookupKey) const {
  return fileExists(refFor(LookupKey));
}

ErrorOr<StoredCache> DirectoryStore::openRef(const std::string &Ref,
                                             CacheFileView::Depth D) {
  if (RecordingHooks *Hooks = recordingHooks()) {
    // Capture the slot's bytes before parsing: a corrupt cache that the
    // open below quarantines must be reproducible at replay too.
    std::vector<uint8_t> Raw;
    if (readFileRaw(Ref, Raw))
      Hooks->onCacheObserved(Ref, Raw);
  }
  // Indexed open: header (and at Depth::Index the module table and
  // trace index) are CRC-validated here; trace payloads stay unread
  // until first execution.
  auto View = CacheFileView::openFile(Ref, D);
  if (!View) {
    maybeAutoQuarantine(Ref, View.status());
    return View.status();
  }
  StoredCache Cache;
  Cache.View = View.take();
  return Cache;
}

ErrorOr<CacheFile> DirectoryStore::loadRef(const std::string &Ref) {
  auto Bytes = readFile(Ref);
  if (!Bytes)
    return Bytes.status();
  return CacheFile::deserialize(*Bytes);
}

Status DirectoryStore::put(uint64_t LookupKey, const CacheFile &File) {
  return writeFileAtomic(refFor(LookupKey), File.serialize());
}

Status DirectoryStore::putRef(const std::string &Ref,
                              const CacheFile &File) {
  return writeFileAtomic(Ref, File.serialize());
}

uint32_t DirectoryStore::slotGeneration(const std::string &Ref) const {
  if (!fileExists(Ref))
    return 0;
  auto View = CacheFileView::openFile(Ref, CacheFileView::Depth::HeaderOnly);
  return View ? View->generation() : 0;
}

ErrorOr<FileLock> DirectoryStore::lockWithRetry(const std::string &Path,
                                                FileLock::Mode M,
                                                uint32_t *Retries) {
  // Per-call jitter stream: process id + a counter decorrelate
  // publishers that collided once, so they do not collide on every
  // retry as well.
  static std::atomic<uint64_t> SeedCounter{0};
  Rng Jitter((static_cast<uint64_t>(currentProcessId()) << 32) ^
             SeedCounter.fetch_add(1, std::memory_order_relaxed));
  uint64_t Delay = Policy.BaseDelayMicros;
  for (uint32_t Attempt = 1;; ++Attempt) {
    auto Lock = FileLock::tryAcquire(Path, M);
    if (Lock.ok() || Lock.status().code() != ErrorCode::WouldBlock)
      return Lock;
    if (Attempt >= Policy.MaxAttempts)
      return Lock; // WouldBlock: contention outlasted the budget.
    if (Retries)
      ++*Retries;
    // Sleep in [Delay/2, Delay], then double toward the cap.
    uint64_t Sleep = Delay - Jitter.nextBelow(Delay / 2 + 1);
    std::this_thread::sleep_for(std::chrono::microseconds(Sleep));
    Delay = std::min<uint64_t>(Delay * 2, Policy.MaxDelayMicros);
  }
}

ErrorOr<PublishResult> DirectoryStore::publish(uint64_t LookupKey,
                                               CacheFile File,
                                               uint32_t BaseGeneration) {
  PublishResult Result;
  // Shared on the store lock: publishers of different keys proceed in
  // parallel, while maintenance (exclusive holder) quiesces them all.
  // Both acquisitions retry with backoff: transient contention (or an
  // injected timeout) is absorbed here, not surfaced to the session.
  auto StoreLock = lockWithRetry(storeLockPath(), FileLock::Mode::Shared,
                                 &Result.LockRetries);
  if (!StoreLock)
    return StoreLock.status();
  // Exclusive on the slot: the generation read, the merge decision and
  // the rename below form one critical section per key.
  auto KeyLock = lockWithRetry(keyLockPath(LookupKey),
                               FileLock::Mode::Exclusive,
                               &Result.LockRetries);
  if (!KeyLock)
    return KeyLock.status();

  std::string Ref = refFor(LookupKey);
  uint32_t Current = slotGeneration(Ref);
  if (Current != 0 && Current != BaseGeneration) {
    // A concurrent finalizer advanced the slot since the caller primed.
    // Re-read the winner and re-accumulate its novel traces, so both
    // runs' translations survive. An unreadable winner is overwritten.
    auto Winner = loadRef(Ref);
    if (Winner) {
      File = mergeCacheFiles(*Winner, std::move(File));
      File.Generation = Current + 1;
      Result.Merged = true;
    }
  }
  Result.Generation = File.Generation;
  Status S = writeFileAtomic(Ref, File.serialize(), /*SyncToDisk=*/true);
  if (!S.ok())
    return S;
  return Result;
}

Status DirectoryStore::retire(uint64_t LookupKey) {
  return removeFile(refFor(LookupKey));
}

void DirectoryStore::sweepOrphanedTemps() {
  auto Names = listDirectory(Dir);
  if (!Names)
    return;
  for (const std::string &Name : *Names)
    if (isAtomicTempName(Name))
      (void)removeFile(Dir + "/" + Name);
}

Status DirectoryStore::clear() {
  auto Lock = FileLock::acquire(storeLockPath());
  if (!Lock)
    return Lock.status();
  sweepOrphanedTemps();
  auto Names = listDirectory(Dir);
  if (!Names)
    return Names.status();
  for (const std::string &Name : *Names) {
    // Lock files are never deleted (see FileLock.h); they normally live
    // in .locks/ (which listDirectory's files-only scan skips anyway),
    // but skip strays in the store directory too.
    if (isLockFileName(Name))
      continue;
    Status S = removeFile(Dir + "/" + Name);
    if (!S.ok())
      return S;
  }
  return Status::success();
}

ErrorOr<std::vector<std::string>>
DirectoryStore::findCompatible(uint64_t EngineHash, uint64_t ToolHash) {
  auto Names = listDirectory(Dir);
  if (!Names)
    return Names.status();
  std::vector<std::string> Candidates;
  for (const std::string &Name : *Names)
    if (isCacheFileName(Name))
      Candidates.push_back(Dir + "/" + Name);
  // Per-file probes are independent (each touches only its own file and
  // at worst its own quarantine rename), so a scan pool fans them out;
  // one match flag per candidate keeps the result in listing order
  // either way.
  std::vector<uint8_t> IsMatch(Candidates.size(), 0);
  auto Probe = [&](size_t I) {
    const std::string &Path = Candidates[I];
    // Header-only open: the compatibility hashes live in the first 76
    // bytes, so the scan cost is independent of cache size.
    auto View =
        CacheFileView::openFile(Path, CacheFileView::Depth::HeaderOnly);
    if (!View) {
      // Not a candidate — and corrupt contents get pulled aside so the
      // next scan is not doomed to trip over them again.
      maybeAutoQuarantine(Path, View.status());
      return;
    }
    if (View->engineHash() == EngineHash && View->toolHash() == ToolHash)
      IsMatch[I] = 1;
  };
  if (ScanPool && ScanPool->workerCount() > 0)
    ScanPool->parallelFor(Candidates.size(), Probe);
  else
    for (size_t I = 0; I < Candidates.size(); ++I)
      Probe(I);
  std::vector<std::string> Matches;
  for (size_t I = 0; I < Candidates.size(); ++I)
    if (IsMatch[I])
      Matches.push_back(std::move(Candidates[I]));
  return Matches;
}

ErrorOr<std::vector<std::string>> DirectoryStore::listRefs() const {
  auto Names = listDirectory(Dir);
  if (!Names)
    return Names.status();
  std::vector<std::string> Refs;
  for (const std::string &Name : *Names)
    if (isCacheFileName(Name))
      Refs.push_back(Dir + "/" + Name);
  std::sort(Refs.begin(), Refs.end());
  return Refs;
}

ErrorOr<StoreStats> DirectoryStore::stats() {
  auto Names = listDirectory(Dir);
  if (!Names)
    return Names.status();
  std::vector<std::string> Paths;
  for (const std::string &Name : *Names)
    if (isCacheFileName(Name))
      Paths.push_back(Dir + "/" + Name);
  // One partial per file; summed in listing order below so the totals
  // are identical whether or not a scan pool fans the files out.
  std::vector<StoreStats> Partials(Paths.size());
  auto ScanOne = [&](size_t I) {
    const std::string &Path = Paths[I];
    StoreStats &Part = Partials[I];
    // Index-deep open: trace counts and code/data totals come from the
    // trace index; payload bytes are never read.
    auto OnDisk = fileSize(Path);
    if (!OnDisk) {
      ++Part.UnreadableFiles;
      return;
    }
    ++Part.CacheFiles;
    Part.DiskBytes += *OnDisk;
    auto View = CacheFileView::openFile(Path, CacheFileView::Depth::Index);
    if (!View) {
      ++Part.CorruptFiles;
      return;
    }
    Part.CodeBytes += View->codeBytes();
    Part.DataBytes += View->dataBytes();
    Part.Traces += View->numTraces();
  };
  if (ScanPool && ScanPool->workerCount() > 0)
    ScanPool->parallelFor(Paths.size(), ScanOne);
  else
    for (size_t I = 0; I < Paths.size(); ++I)
      ScanOne(I);
  StoreStats Result;
  for (const StoreStats &Part : Partials) {
    Result.CacheFiles += Part.CacheFiles;
    Result.CorruptFiles += Part.CorruptFiles;
    Result.UnreadableFiles += Part.UnreadableFiles;
    Result.DiskBytes += Part.DiskBytes;
    Result.CodeBytes += Part.CodeBytes;
    Result.DataBytes += Part.DataBytes;
    Result.Traces += Part.Traces;
  }
  if (auto Entries = quarantined())
    Result.QuarantinedFiles = static_cast<uint32_t>(Entries->size());
  return Result;
}

ErrorOr<uint32_t> DirectoryStore::shrinkTo(uint64_t MaxBytes) {
  // Exclusive on the store lock: no publisher may race the eviction
  // scan, and orphaned temporaries can be swept safely.
  auto Lock = FileLock::acquire(storeLockPath());
  if (!Lock)
    return Lock.status();
  sweepOrphanedTemps();

  auto Names = listDirectory(Dir);
  if (!Names)
    return Names.status();

  struct Entry {
    std::string Path;
    uint64_t Size = 0;
    uint32_t Generation = 0;
    bool Corrupt = false;
  };
  std::vector<Entry> Entries;
  uint64_t Total = 0;
  for (const std::string &Name : *Names) {
    if (!isCacheFileName(Name))
      continue;
    Entry E;
    E.Path = Dir + "/" + Name;
    // Index-deep (still payload-free): shrinkTo must flag files with
    // damaged module tables or trace indices as corrupt so they are
    // deleted unconditionally, not just truncated-header ones.
    auto OnDisk = fileSize(E.Path);
    if (!OnDisk)
      continue;
    E.Size = *OnDisk;
    auto View = CacheFileView::openFile(E.Path, CacheFileView::Depth::Index);
    if (!View)
      E.Corrupt = true;
    else
      E.Generation = View->generation();
    Total += E.Size;
    Entries.push_back(std::move(E));
  }

  uint32_t Removed = 0;
  // Corrupt files leave the store unconditionally — into the
  // quarantine (with deletion as fallback), so the evidence survives
  // for pcc-dbcheck.
  for (auto &E : Entries) {
    if (!E.Corrupt)
      continue;
    if (quarantineRef(E.Path,
                      annotatedQuarantineReason(
                          E.Path, QuarantineReasonCode::InvalidFormat,
                          "failed validation during shrink"))
            .ok() ||
        removeFile(E.Path).ok()) {
      Total -= E.Size;
      E.Size = 0;
      ++Removed;
    }
  }
  if (Total <= MaxBytes)
    return Removed;

  // Evict least-accumulated caches first (lowest reuse evidence); among
  // equals, reclaim the most bytes per eviction.
  std::sort(Entries.begin(), Entries.end(),
            [](const Entry &A, const Entry &B) {
              if (A.Generation != B.Generation)
                return A.Generation < B.Generation;
              return A.Size > B.Size;
            });
  for (const Entry &E : Entries) {
    if (Total <= MaxBytes)
      break;
    if (E.Corrupt || E.Size == 0)
      continue;
    if (removeFile(E.Path).ok()) {
      Total -= E.Size;
      ++Removed;
    }
  }
  return Removed;
}

Status DirectoryStore::quarantineRef(const std::string &Ref,
                                     const std::string &Reason) {
  if (Ref.size() <= Dir.size() + 1 ||
      Ref.compare(0, Dir.size() + 1, Dir + "/") != 0)
    return Status::error(ErrorCode::InvalidArgument,
                         "ref outside store: " + Ref);
  std::string Name = Ref.substr(Dir.size() + 1);
  if (Name.find('/') != std::string::npos)
    return Status::error(ErrorCode::InvalidArgument,
                         "ref not a store slot: " + Ref);
  Status S = createDirectories(quarantineDir());
  if (!S.ok())
    return S;
  S = renameFile(Ref, quarantineDir() + "/" + Name);
  if (!S.ok())
    return S;
  // The reason record is best-effort diagnosis; the move above is what
  // protects readers.
  std::vector<uint8_t> ReasonBytes(Reason.begin(), Reason.end());
  (void)writeFileAtomic(quarantineDir() + "/" + Name + ".reason",
                        ReasonBytes);
  return Status::success();
}

ErrorOr<std::vector<QuarantineEntry>> DirectoryStore::quarantined() {
  std::vector<QuarantineEntry> Entries;
  auto Names = listDirectory(quarantineDir());
  if (!Names)
    return Entries; // No .quarantine/ yet: nothing was ever bad.
  for (const std::string &Name : *Names) {
    if (Name.size() >= 7 && Name.substr(Name.size() - 7) == ".reason")
      continue;
    if (isAtomicTempName(Name))
      continue; // A crashed reason write, not a quarantined cache.
    if (isAttachmentFileName(Name))
      continue; // A replay-log attachment, not a quarantined cache.
    QuarantineEntry E;
    E.Name = Name;
    if (auto Reason = readFile(quarantineDir() + "/" + Name + ".reason")) {
      std::string Stored(Reason->begin(), Reason->end());
      Stored = splitReplayAnnotation(Stored, &E.ReplayLog);
      E.Code = parseQuarantineReason(Stored, &E.Reason);
    }
    if (auto Size = fileSize(quarantineDir() + "/" + Name))
      E.Bytes = *Size;
    Entries.push_back(std::move(E));
  }
  return Entries;
}

Status DirectoryStore::restoreQuarantined(const std::string &Name) {
  std::string From = quarantineDir() + "/" + Name;
  if (!fileExists(From))
    return Status::error(ErrorCode::NotFound,
                         "not in quarantine: " + Name);
  std::string To = Dir + "/" + Name;
  if (fileExists(To))
    return Status::error(ErrorCode::InvalidArgument,
                         "slot occupied, not restoring over " + To);
  Status S = renameFile(From, To);
  if (!S.ok())
    return S;
  (void)removeFile(From + ".reason");
  return Status::success();
}

ErrorOr<uint32_t> DirectoryStore::purgeQuarantine() {
  auto Entries = quarantined();
  if (!Entries)
    return Entries.status();
  uint32_t Purged = 0;
  for (const QuarantineEntry &E : *Entries) {
    if (!removeFile(quarantineDir() + "/" + E.Name).ok())
      continue;
    (void)removeFile(quarantineDir() + "/" + E.Name + ".reason");
    ++Purged;
  }
  // Attachments (replay logs) go with the evidence they document.
  if (auto Names = listDirectory(quarantineDir()))
    for (const std::string &Name : *Names)
      if (isAttachmentFileName(Name))
        (void)removeFile(quarantineDir() + "/" + Name);
  return Purged;
}

Status
DirectoryStore::attachToQuarantine(const std::string &FileName,
                                   const std::vector<uint8_t> &Bytes) {
  if (FileName.empty() || FileName.find('/') != std::string::npos)
    return Status::error(ErrorCode::InvalidArgument,
                         "bad attachment name: " + FileName);
  Status S = createDirectories(quarantineDir());
  if (!S.ok())
    return S;
  return writeFileAtomic(quarantineDir() + "/" + FileName, Bytes);
}

ErrorOr<std::vector<uint8_t>>
DirectoryStore::readQuarantineAttachment(const std::string &FileName) {
  if (FileName.empty() || FileName.find('/') != std::string::npos)
    return Status::error(ErrorCode::InvalidArgument,
                         "bad attachment name: " + FileName);
  return readFile(quarantineDir() + "/" + FileName);
}

void DirectoryStore::maybeAutoQuarantine(const std::string &Ref,
                                         const Status &Failure) {
  // Only readable-but-invalid contents are quarantine material: an
  // IoError may be transient, NotFound has nothing to move, and a
  // version/key mismatch is a perfectly healthy file for some other
  // engine build.
  if (!AutoQuarantine || Failure.code() != ErrorCode::InvalidFormat)
    return;
  if (Ref.size() <= Dir.size() + 1 ||
      Ref.compare(0, Dir.size() + 1, Dir + "/") != 0)
    return;
  std::string Name = Ref.substr(Dir.size() + 1);
  if (Name.find('/') != std::string::npos || !isCacheFileName(Name))
    return;
  // Freeze the slot while re-checking: publishers hold this lock while
  // replacing the file, so a just-republished healthy cache is never
  // swept up. A busy slot is left alone — the next reader retries.
  uint64_t Key = std::strtoull(Name.c_str(), nullptr, 16);
  auto KeyLock = FileLock::tryAcquire(keyLockPath(Key));
  if (!KeyLock)
    return;
  auto View = CacheFileView::openFile(Ref, CacheFileView::Depth::Index);
  if (!View && View.status().code() == ErrorCode::InvalidFormat)
    (void)quarantineRef(Ref, annotatedQuarantineReason(
                                 Ref, QuarantineReasonCode::InvalidFormat,
                                 Failure.message()));
}

std::vector<LockInfo> DirectoryStore::locks() const {
  std::vector<LockInfo> Result;
  auto Names = listDirectory(Dir + "/.locks");
  if (!Names)
    return Result; // No .locks/ yet: nothing has ever published.
  for (const std::string &Name : *Names) {
    if (!isLockFileName(Name))
      continue;
    LockInfo Info;
    Info.Path = Dir + "/.locks/" + Name;
    Info.Held = isFileLockHeld(Info.Path);
    Result.push_back(std::move(Info));
  }
  return Result;
}
