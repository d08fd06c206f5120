//===- launchbench/Tracing.h - Spans around layer calls ---------*- C++ -*-===//
///
/// \file
/// The traced run's instrumentation, kept entirely in the benchmark's own
/// files: spans are recorded around the calls the benchmark makes into
/// each layer (and, through TimedStore, around every call the persistent
/// session makes into its store). Layer names are module names — a span
/// named "persist.store.open" belongs to layer "persist.store".
///
/// Spans are kept in memory, one log per thread, and written out as
/// Chrome trace-event JSON when the run ends. A span's self time is its
/// duration minus the part its child spans cover.
///
//===----------------------------------------------------------------------===//

#ifndef LAUNCHBENCH_TRACING_H
#define LAUNCHBENCH_TRACING_H

#include "persist/CacheStore.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace launchbench {

/// Monotonic host time in nanoseconds.
inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One closed span.
struct SpanEvent {
  const char *Name = nullptr; ///< "<layer>.<call>" (static storage).
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< Enclosing span on the same thread (0: none).
  uint32_t Launch = 0; ///< Launch the span belongs to (0: none, e.g. a
                       ///< background publish on a pool worker).
  uint32_t Thread = 0;
  int64_t StartNs = 0;
  int64_t EndNs = 0;

  int64_t durNs() const { return EndNs - StartNs; }
};

/// Layer of a span name: everything before its last '.'.
std::string layerOf(const char *Name);

/// Self time of each span in \p Spans (index-aligned): its duration
/// minus the durations of the spans whose Parent it is.
std::vector<int64_t> selfTimesNs(const std::vector<SpanEvent> &Spans);

/// In-memory span sink with one log per thread.
class SpanRecorder {
  struct ThreadLog;

public:
  SpanRecorder();
  ~SpanRecorder();
  SpanRecorder(const SpanRecorder &) = delete;
  SpanRecorder &operator=(const SpanRecorder &) = delete;

  /// Opens a span on the calling thread until end() or destruction. A
  /// null recorder makes it a no-op, so untraced runs pay one branch.
  class Scope {
  public:
    Scope(SpanRecorder *Rec, const char *Name);
    ~Scope() { end(); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    void end();

  private:
    ThreadLog *Log = nullptr;
    size_t Index = 0;
  };

  /// Tags the spans the calling thread opens from now on with \p Id.
  void setLaunch(uint32_t Id);

  /// Every span recorded so far, sorted by start time. Call only while
  /// no thread is inside a span.
  std::vector<SpanEvent> spans() const;

private:
  ThreadLog &local();

  const uint64_t Serial;
  std::atomic<uint64_t> NextId{1};
  mutable std::mutex Mutex;
  std::vector<std::unique_ptr<ThreadLog>> Logs; // Guarded by Mutex.
};

/// Writes \p Spans as Chrome trace-event JSON ("X" complete events,
/// microsecond timestamps relative to the first span).
bool writeChromeTrace(const std::string &Path,
                      const std::vector<SpanEvent> &Spans);

/// Successful publishes seen by a TimedStore.
struct PublishTally {
  std::atomic<uint64_t> Published{0};
  std::atomic<uint64_t> Merged{0};
  std::atomic<uint64_t> LockRetries{0};
};

/// Forwarding CacheStore that records a "persist.store.<call>" span
/// around every call into the wrapped store and tallies publish
/// outcomes. Used only by the traced run.
class TimedStore final : public pcc::persist::CacheStore {
public:
  TimedStore(std::shared_ptr<pcc::persist::CacheStore> Inner,
             SpanRecorder &Rec)
      : Inner(std::move(Inner)), Rec(Rec) {}

  const PublishTally &publishes() const { return Tally; }

  const std::string &location() const override;
  std::string refFor(uint64_t LookupKey) const override;
  bool exists(uint64_t LookupKey) const override;
  pcc::ErrorOr<pcc::persist::StoredCache>
  openRef(const std::string &Ref,
          pcc::persist::CacheFileView::Depth D) override;
  pcc::ErrorOr<pcc::persist::CacheFile>
  loadRef(const std::string &Ref) override;
  pcc::Status put(uint64_t LookupKey,
                  const pcc::persist::CacheFile &File) override;
  pcc::Status putRef(const std::string &Ref,
                     const pcc::persist::CacheFile &File) override;
  pcc::ErrorOr<pcc::persist::PublishResult>
  publish(uint64_t LookupKey, pcc::persist::CacheFile File,
          uint32_t BaseGeneration) override;
  pcc::Status retire(uint64_t LookupKey) override;
  pcc::Status clear() override;
  pcc::ErrorOr<std::vector<std::string>>
  findCompatible(uint64_t EngineHash, uint64_t ToolHash) override;
  pcc::ErrorOr<std::vector<std::string>> listRefs() const override;
  pcc::ErrorOr<pcc::persist::StoreStats> stats() override;
  pcc::ErrorOr<uint32_t> shrinkTo(uint64_t MaxBytes) override;
  std::vector<pcc::persist::LockInfo> locks() const override;
  pcc::Status quarantineRef(const std::string &Ref,
                            const std::string &Reason) override;
  pcc::ErrorOr<std::vector<pcc::persist::QuarantineEntry>>
  quarantined() override;
  pcc::Status restoreQuarantined(const std::string &Name) override;
  pcc::ErrorOr<uint32_t> purgeQuarantine() override;
  pcc::Status attachToQuarantine(const std::string &FileName,
                                 const std::vector<uint8_t> &Bytes) override;
  pcc::ErrorOr<std::vector<uint8_t>>
  readQuarantineAttachment(const std::string &FileName) override;
  void setAutoQuarantine(bool Enabled) override;
  void setScanPool(pcc::support::ThreadPool *Pool) override;

private:
  std::shared_ptr<pcc::persist::CacheStore> Inner;
  SpanRecorder &Rec;
  PublishTally Tally;
};

} // namespace launchbench

#endif // LAUNCHBENCH_TRACING_H
