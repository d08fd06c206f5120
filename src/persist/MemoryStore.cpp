//===- persist/MemoryStore.cpp --------------------------------------------===//

#include "persist/MemoryStore.h"

#include "persist/RecordingHooks.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace pcc;
using namespace pcc::persist;

MemoryStore::MemoryStore() = default;

MemoryStore::MemoryStore(std::string Label)
    : Location(std::move(Label)) {}

std::string MemoryStore::refFor(uint64_t LookupKey) const {
  return Location + "/" + toHex(LookupKey, 16) + ".pcc";
}

bool MemoryStore::exists(uint64_t LookupKey) const {
  std::lock_guard<std::mutex> Guard(Mutex);
  return Slots.count(refFor(LookupKey)) != 0;
}

namespace {

/// Parses generation without a full decode: 0 when unreadable.
uint32_t imageGeneration(const std::vector<uint8_t> &Bytes) {
  auto View =
      CacheFileView::open(Bytes, CacheFileView::Depth::HeaderOnly);
  return View ? View->generation() : 0;
}

} // namespace

std::string MemoryStore::nameOf(const std::string &Ref) const {
  size_t Slash = Ref.rfind('/');
  return Slash == std::string::npos ? Ref : Ref.substr(Slash + 1);
}

void MemoryStore::quarantineLocked(const std::string &Ref,
                                   const std::string &Reason) {
  auto It = Slots.find(Ref);
  if (It == Slots.end())
    return;
  Quarantine[nameOf(Ref)] = {std::move(It->second), Reason};
  Slots.erase(It);
}

ErrorOr<StoredCache> MemoryStore::openRef(const std::string &Ref,
                                          CacheFileView::Depth D) {
  std::vector<uint8_t> Bytes;
  {
    std::lock_guard<std::mutex> Guard(Mutex);
    auto It = Slots.find(Ref);
    if (It == Slots.end())
      return Status::error(ErrorCode::NotFound, "no cache at " + Ref);
    Bytes = It->second;
  }
  if (RecordingHooks *Hooks = recordingHooks())
    Hooks->onCacheObserved(Ref, Bytes);
  auto Reject = [&](const Status &S) {
    // Same policy as the directory backend: readable-but-invalid
    // contents move to the quarantine; mismatched versions stay.
    if (AutoQuarantine && S.code() == ErrorCode::InvalidFormat) {
      std::string Reason = annotatedQuarantineReason(
          Ref, QuarantineReasonCode::InvalidFormat, S.message());
      std::lock_guard<std::mutex> Guard(Mutex);
      quarantineLocked(Ref, Reason);
    }
    return S;
  };
  auto View = CacheFileView::open(std::move(Bytes), D);
  if (!View)
    return Reject(View.status());
  StoredCache Cache;
  Cache.View = View.take();
  return Cache;
}

ErrorOr<CacheFile> MemoryStore::loadRef(const std::string &Ref) {
  std::vector<uint8_t> Bytes;
  {
    std::lock_guard<std::mutex> Guard(Mutex);
    auto It = Slots.find(Ref);
    if (It == Slots.end())
      return Status::error(ErrorCode::NotFound, "no cache at " + Ref);
    Bytes = It->second;
  }
  return CacheFile::deserialize(Bytes);
}

Status MemoryStore::put(uint64_t LookupKey, const CacheFile &File) {
  return putRef(refFor(LookupKey), File);
}

Status MemoryStore::putRef(const std::string &Ref,
                           const CacheFile &File) {
  putImage(Ref, File.serialize());
  return Status::success();
}

void MemoryStore::putImage(const std::string &Ref,
                           std::vector<uint8_t> Bytes) {
  std::lock_guard<std::mutex> Guard(Mutex);
  Slots[Ref] = std::move(Bytes);
}

ErrorOr<PublishResult> MemoryStore::publish(uint64_t LookupKey,
                                            CacheFile File,
                                            uint32_t BaseGeneration) {
  // One mutex plays both of the directory store's lock roles: the
  // generation read, merge and slot swap are a single critical section.
  std::lock_guard<std::mutex> Guard(Mutex);
  std::string Ref = refFor(LookupKey);
  PublishResult Result;
  auto It = Slots.find(Ref);
  uint32_t Current = It == Slots.end() ? 0 : imageGeneration(It->second);
  if (Current != 0 && Current != BaseGeneration) {
    auto Winner = CacheFile::deserialize(It->second);
    if (Winner) {
      File = mergeCacheFiles(*Winner, std::move(File));
      File.Generation = Current + 1;
      Result.Merged = true;
    }
  }
  Result.Generation = File.Generation;
  Slots[Ref] = File.serialize();
  return Result;
}

Status MemoryStore::retire(uint64_t LookupKey) {
  std::lock_guard<std::mutex> Guard(Mutex);
  Slots.erase(refFor(LookupKey));
  return Status::success();
}

Status MemoryStore::clear() {
  std::lock_guard<std::mutex> Guard(Mutex);
  Slots.clear();
  return Status::success();
}

ErrorOr<std::vector<std::string>>
MemoryStore::findCompatible(uint64_t EngineHash, uint64_t ToolHash) {
  std::lock_guard<std::mutex> Guard(Mutex);
  std::vector<std::string> Matches;
  for (const auto &[Ref, Bytes] : Slots) {
    auto View =
        CacheFileView::open(Bytes, CacheFileView::Depth::HeaderOnly);
    if (View && View->engineHash() == EngineHash &&
        View->toolHash() == ToolHash)
      Matches.push_back(Ref);
  }
  return Matches;
}

ErrorOr<std::vector<std::string>> MemoryStore::listRefs() const {
  std::lock_guard<std::mutex> Guard(Mutex);
  std::vector<std::string> Refs;
  for (const auto &[Ref, Bytes] : Slots)
    Refs.push_back(Ref);
  return Refs; // Map order is sorted already.
}

ErrorOr<StoreStats> MemoryStore::stats() {
  std::lock_guard<std::mutex> Guard(Mutex);
  StoreStats Result;
  for (const auto &[Ref, Bytes] : Slots) {
    ++Result.CacheFiles;
    Result.DiskBytes += Bytes.size();
    auto File = CacheFile::deserialize(Bytes);
    if (!File) {
      ++Result.CorruptFiles;
      continue;
    }
    Result.CodeBytes += File->codeBytes();
    Result.DataBytes += File->dataBytes();
    Result.Traces += File->Traces.size();
  }
  Result.QuarantinedFiles = static_cast<uint32_t>(Quarantine.size());
  return Result;
}

Status MemoryStore::quarantineRef(const std::string &Ref,
                                  const std::string &Reason) {
  std::lock_guard<std::mutex> Guard(Mutex);
  if (Slots.count(Ref) == 0)
    return Status::error(ErrorCode::NotFound, "no cache at " + Ref);
  quarantineLocked(Ref, Reason);
  return Status::success();
}

ErrorOr<std::vector<QuarantineEntry>> MemoryStore::quarantined() {
  std::lock_guard<std::mutex> Guard(Mutex);
  std::vector<QuarantineEntry> Entries;
  for (const auto &[Name, Image] : Quarantine) {
    QuarantineEntry E;
    E.Name = Name;
    std::string Stored = splitReplayAnnotation(Image.Reason, &E.ReplayLog);
    E.Code = parseQuarantineReason(Stored, &E.Reason);
    E.Bytes = Image.Bytes.size();
    Entries.push_back(std::move(E));
  }
  return Entries;
}

Status MemoryStore::restoreQuarantined(const std::string &Name) {
  std::lock_guard<std::mutex> Guard(Mutex);
  auto It = Quarantine.find(Name);
  if (It == Quarantine.end())
    return Status::error(ErrorCode::NotFound,
                         "not in quarantine: " + Name);
  std::string Ref = Location + "/" + Name;
  if (Slots.count(Ref) != 0)
    return Status::error(ErrorCode::InvalidArgument,
                         "slot occupied, not restoring over " + Ref);
  Slots[Ref] = std::move(It->second.Bytes);
  Quarantine.erase(It);
  return Status::success();
}

ErrorOr<uint32_t> MemoryStore::purgeQuarantine() {
  std::lock_guard<std::mutex> Guard(Mutex);
  uint32_t Purged = static_cast<uint32_t>(Quarantine.size());
  Quarantine.clear();
  Attachments.clear();
  return Purged;
}

Status
MemoryStore::attachToQuarantine(const std::string &FileName,
                                const std::vector<uint8_t> &Bytes) {
  if (FileName.empty() || FileName.find('/') != std::string::npos)
    return Status::error(ErrorCode::InvalidArgument,
                         "bad attachment name: " + FileName);
  std::lock_guard<std::mutex> Guard(Mutex);
  Attachments[FileName] = Bytes;
  return Status::success();
}

ErrorOr<std::vector<uint8_t>>
MemoryStore::readQuarantineAttachment(const std::string &FileName) {
  std::lock_guard<std::mutex> Guard(Mutex);
  auto It = Attachments.find(FileName);
  if (It == Attachments.end())
    return Status::error(ErrorCode::NotFound,
                         "no attachment: " + FileName);
  return It->second;
}

ErrorOr<uint32_t> MemoryStore::shrinkTo(uint64_t MaxBytes) {
  std::lock_guard<std::mutex> Guard(Mutex);
  struct Entry {
    std::string Ref;
    uint64_t Size = 0;
    uint32_t Generation = 0;
    bool Corrupt = false;
  };
  std::vector<Entry> Entries;
  uint64_t Total = 0;
  for (const auto &[Ref, Bytes] : Slots) {
    Entry E;
    E.Ref = Ref;
    E.Size = Bytes.size();
    auto File = CacheFile::deserialize(Bytes);
    if (!File)
      E.Corrupt = true;
    else
      E.Generation = File->Generation;
    Total += E.Size;
    Entries.push_back(std::move(E));
  }

  uint32_t Removed = 0;
  for (auto &E : Entries) {
    if (!E.Corrupt)
      continue;
    quarantineLocked(E.Ref,
                     encodeQuarantineReason(
                         QuarantineReasonCode::InvalidFormat,
                         "failed validation during shrink"));
    Total -= E.Size;
    E.Size = 0;
    ++Removed;
  }
  if (Total <= MaxBytes)
    return Removed;

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
    Slots.erase(E.Ref);
    Total -= E.Size;
    ++Removed;
  }
  return Removed;
}
