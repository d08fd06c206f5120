//===- launchbench/Tracing.cpp --------------------------------------------===//

#include "Tracing.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

using namespace launchbench;
using namespace pcc;

struct SpanRecorder::ThreadLog {
  uint32_t Thread = 0;
  uint32_t Launch = 0;
  std::vector<SpanEvent> Events;
  std::vector<size_t> Open; ///< Indices of the spans still open.
};

namespace {
std::atomic<uint64_t> NextRecorderSerial{1};
} // namespace

std::string launchbench::layerOf(const char *Name) {
  std::string S(Name);
  size_t Dot = S.rfind('.');
  return Dot == std::string::npos ? S : S.substr(0, Dot);
}

std::vector<int64_t>
launchbench::selfTimesNs(const std::vector<SpanEvent> &Spans) {
  std::unordered_map<uint64_t, size_t> ById;
  for (size_t I = 0; I != Spans.size(); ++I)
    ById.emplace(Spans[I].Id, I);
  std::vector<int64_t> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    Self[I] += Spans[I].durNs();
  for (const SpanEvent &S : Spans)
    if (S.Parent != 0) {
      auto It = ById.find(S.Parent);
      if (It != ById.end())
        Self[It->second] -= S.durNs();
    }
  return Self;
}

SpanRecorder::SpanRecorder() : Serial(NextRecorderSerial++) {}

SpanRecorder::~SpanRecorder() = default;

SpanRecorder::ThreadLog &SpanRecorder::local() {
  // Serial numbers, not addresses, identify the owner: a recorder built
  // where an earlier one died must not inherit its thread logs.
  thread_local ThreadLog *Log = nullptr;
  thread_local uint64_t Owner = 0;
  if (Owner != Serial) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Logs.push_back(std::make_unique<ThreadLog>());
    Log = Logs.back().get();
    Log->Thread = static_cast<uint32_t>(Logs.size());
    Owner = Serial;
  }
  return *Log;
}

SpanRecorder::Scope::Scope(SpanRecorder *Rec, const char *Name) {
  if (!Rec)
    return;
  Log = &Rec->local();
  SpanEvent E;
  E.Name = Name;
  E.Id = Rec->NextId.fetch_add(1, std::memory_order_relaxed);
  E.Parent = Log->Open.empty() ? 0 : Log->Events[Log->Open.back()].Id;
  E.Launch = Log->Launch;
  E.Thread = Log->Thread;
  Index = Log->Events.size();
  Log->Open.push_back(Index);
  Log->Events.push_back(E);
  Log->Events.back().StartNs = nowNs();
}

void SpanRecorder::Scope::end() {
  if (!Log)
    return;
  Log->Events[Index].EndNs = nowNs();
  Log->Open.pop_back();
  Log = nullptr;
}

void SpanRecorder::setLaunch(uint32_t Id) { local().Launch = Id; }

std::vector<SpanEvent> SpanRecorder::spans() const {
  std::vector<SpanEvent> All;
  std::lock_guard<std::mutex> Lock(Mutex);
  for (const auto &L : Logs)
    All.insert(All.end(), L->Events.begin(), L->Events.end());
  std::sort(All.begin(), All.end(),
            [](const SpanEvent &A, const SpanEvent &B) {
              return A.StartNs != B.StartNs ? A.StartNs < B.StartNs
                                            : A.Id < B.Id;
            });
  return All;
}

bool launchbench::writeChromeTrace(const std::string &Path,
                                   const std::vector<SpanEvent> &Spans) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  const int64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
  std::fprintf(F, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t I = 0; I != Spans.size(); ++I) {
    const SpanEvent &S = Spans[I];
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"launch\":%u,\"id\":%llu,\"parent\":%llu}}\n",
                 I ? "," : "", S.Name, layerOf(S.Name).c_str(),
                 static_cast<double>(S.StartNs - Origin) / 1e3,
                 static_cast<double>(S.durNs()) / 1e3, S.Thread, S.Launch,
                 static_cast<unsigned long long>(S.Id),
                 static_cast<unsigned long long>(S.Parent));
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}

//===----------------------------------------------------------------------===//
// TimedStore
//===----------------------------------------------------------------------===//

const std::string &TimedStore::location() const { return Inner->location(); }

std::string TimedStore::refFor(uint64_t LookupKey) const {
  return Inner->refFor(LookupKey);
}

bool TimedStore::exists(uint64_t LookupKey) const {
  SpanRecorder::Scope S(&Rec, "persist.store.exists");
  return Inner->exists(LookupKey);
}

ErrorOr<persist::StoredCache>
TimedStore::openRef(const std::string &Ref, persist::CacheFileView::Depth D) {
  SpanRecorder::Scope S(&Rec, "persist.store.open");
  return Inner->openRef(Ref, D);
}

ErrorOr<persist::CacheFile> TimedStore::loadRef(const std::string &Ref) {
  SpanRecorder::Scope S(&Rec, "persist.store.load");
  return Inner->loadRef(Ref);
}

Status TimedStore::put(uint64_t LookupKey, const persist::CacheFile &File) {
  SpanRecorder::Scope S(&Rec, "persist.store.put");
  return Inner->put(LookupKey, File);
}

Status TimedStore::putRef(const std::string &Ref,
                          const persist::CacheFile &File) {
  SpanRecorder::Scope S(&Rec, "persist.store.put");
  return Inner->putRef(Ref, File);
}

ErrorOr<persist::PublishResult>
TimedStore::publish(uint64_t LookupKey, persist::CacheFile File,
                    uint32_t BaseGeneration) {
  SpanRecorder::Scope S(&Rec, "persist.store.publish");
  auto R = Inner->publish(LookupKey, std::move(File), BaseGeneration);
  S.end();
  if (!R)
    return R;
  ++Tally.Published;
  Tally.Merged += R->Merged;
  Tally.LockRetries += R->LockRetries;
  return R;
}

Status TimedStore::retire(uint64_t LookupKey) {
  SpanRecorder::Scope S(&Rec, "persist.store.retire");
  return Inner->retire(LookupKey);
}

Status TimedStore::clear() {
  SpanRecorder::Scope S(&Rec, "persist.store.clear");
  return Inner->clear();
}

ErrorOr<std::vector<std::string>>
TimedStore::findCompatible(uint64_t EngineHash, uint64_t ToolHash) {
  SpanRecorder::Scope S(&Rec, "persist.store.find_compatible");
  return Inner->findCompatible(EngineHash, ToolHash);
}

ErrorOr<std::vector<std::string>> TimedStore::listRefs() const {
  SpanRecorder::Scope S(&Rec, "persist.store.list");
  return Inner->listRefs();
}

ErrorOr<persist::StoreStats> TimedStore::stats() {
  SpanRecorder::Scope S(&Rec, "persist.store.stats");
  return Inner->stats();
}

ErrorOr<uint32_t> TimedStore::shrinkTo(uint64_t MaxBytes) {
  SpanRecorder::Scope S(&Rec, "persist.store.shrink");
  return Inner->shrinkTo(MaxBytes);
}

std::vector<persist::LockInfo> TimedStore::locks() const {
  return Inner->locks();
}

Status TimedStore::quarantineRef(const std::string &Ref,
                                 const std::string &Reason) {
  SpanRecorder::Scope S(&Rec, "persist.store.quarantine");
  return Inner->quarantineRef(Ref, Reason);
}

ErrorOr<std::vector<persist::QuarantineEntry>> TimedStore::quarantined() {
  return Inner->quarantined();
}

Status TimedStore::restoreQuarantined(const std::string &Name) {
  return Inner->restoreQuarantined(Name);
}

ErrorOr<uint32_t> TimedStore::purgeQuarantine() {
  return Inner->purgeQuarantine();
}

Status TimedStore::attachToQuarantine(const std::string &FileName,
                                      const std::vector<uint8_t> &Bytes) {
  return Inner->attachToQuarantine(FileName, Bytes);
}

ErrorOr<std::vector<uint8_t>>
TimedStore::readQuarantineAttachment(const std::string &FileName) {
  return Inner->readQuarantineAttachment(FileName);
}

void TimedStore::setAutoQuarantine(bool Enabled) {
  CacheStore::setAutoQuarantine(Enabled);
  Inner->setAutoQuarantine(Enabled);
}

void TimedStore::setScanPool(support::ThreadPool *Pool) {
  CacheStore::setScanPool(Pool);
  Inner->setScanPool(Pool);
}
