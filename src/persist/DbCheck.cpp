//===- persist/DbCheck.cpp ------------------------------------------------===//

#include "persist/DbCheck.h"

#include "analysis/CertChecker.h"
#include "analysis/Certificate.h"
#include "analysis/Validator.h"
#include "binary/Module.h"
#include "dbi/Compiler.h"
#include "persist/CacheFile.h"
#include "persist/CacheView.h"
#include "persist/DirectoryStore.h"
#include "persist/Key.h"
#include "support/FileLock.h"
#include "support/FileSystem.h"
#include "support/StringUtils.h"

#include <optional>
#include <set>
#include <unordered_map>

using namespace pcc;
using namespace pcc::persist;

namespace {

bool isCacheFileName(const std::string &Name) {
  return Name.size() >= 4 && Name.substr(Name.size() - 4) == ".pcc";
}

/// The guest modules a --deep pass resolves cache ModuleKeys against,
/// loaded once and shared read-only by every per-file worker.
struct DeepContext {
  std::unordered_map<std::string, std::shared_ptr<const binary::Module>>
      ByPath;
};

/// Classification a store Status maps to when it sends a file to the
/// quarantine.
QuarantineReasonCode reasonCodeFor(const Status &S) {
  switch (S.code()) {
  case ErrorCode::InvalidFormat:
    return QuarantineReasonCode::InvalidFormat;
  case ErrorCode::VersionMismatch:
    return QuarantineReasonCode::VersionMismatch;
  default:
    return QuarantineReasonCode::Unknown;
  }
}

/// Self-contained certificate sweep (no guest modules needed): each
/// record carrying a certificate has its recorded proof replayed
/// against the certificate's own embedded source and the record's body
/// bytes — so a bit-flipped certificate, a certificate bound to a
/// different generation's bytes, or an unsound proof is caught without
/// ever resolving the guest. Under \p Repair a rejected certificate is
/// stripped in place (the caller rewrites the file); the trace itself
/// is kept — its payload CRC already checked out, it just loses its
/// fast-path proof. Returns the first rejection description.
std::string certSweepFile(CacheFile &File, bool Repair,
                          FileCheckReport &R) {
  std::string FirstReject;
  for (TraceRecord &Rec : File.Traces) {
    if (Rec.Cert.empty())
      continue;
    ++R.CertsChecked;
    auto Translated =
        isa::decodeAll(Rec.Code.data() + dbi::TracePrologueBytes,
                       Rec.GuestInstCount);
    analysis::CertCheckResult C;
    if (Translated) {
      // The decoded body came straight from the record's stored
      // encodings, so bind those bytes and spare the checker a
      // re-encode.
      analysis::CertBindings Bind;
      Bind.BodyBytes = Rec.Code.data() + dbi::TracePrologueBytes;
      Bind.BodyByteCount =
          static_cast<size_t>(Rec.GuestInstCount) * isa::InstructionSize;
      C = analysis::checkCertificateBlob(Rec.Cert.data(),
                                         Rec.Cert.size(), Rec.GuestStart,
                                         *Translated, nullptr, &Bind);
    } else {
      C.Status = analysis::CertCheckStatus::Malformed;
      C.Detail = Translated.status().message();
    }
    if (C.ok())
      continue;
    ++R.CertsRejected;
    if (FirstReject.empty())
      FirstReject = formatString(
          "trace @%08x: certificate rejected (%s%s%s)", Rec.GuestStart,
          analysis::certCheckStatusName(C.Status),
          C.Detail.empty() ? "" : ": ", C.Detail.c_str());
    if (Repair)
      Rec.Cert.clear();
  }
  return FirstReject;
}

/// Deep semantic sweep over one (CRC-intact) cache file: every trace is
/// symbolically validated against the guest instructions its module
/// supplies. Traces carrying a validation certificate go through the
/// trusted checker first, bound to the real module text; only a
/// rejected (or absent) certificate on a promoted body pays for the
/// full prover. Under \p Repair, a promoted trace the prover vouched
/// for gets a fresh certificate (regenerated from that very proof) and
/// a rejected certificate on a failing trace is simply part of the
/// mismatch disposition. Fills the TracesVerified/Mismatched/
/// Unverifiable and certificate counters; sets \p CertsDirty when a
/// repair changed any record's certificate; returns the first mismatch
/// description (empty when none).
std::string deepCheckFile(CacheFile &File, const DeepContext &Deep,
                          bool Repair, FileCheckReport &R,
                          bool &CertsDirty) {
  const size_t NumMods = File.Modules.size();
  // Per-module relocated guest text, resolved lazily: a module whose
  // key no longer matches its on-disk image produces unverifiable
  // traces, never false mismatches.
  std::vector<std::optional<std::vector<isa::Instruction>>> Text(NumMods);
  std::vector<bool> Resolved(NumMods, false);
  auto textOf =
      [&](uint32_t M) -> const std::vector<isa::Instruction> * {
    if (!Resolved[M]) {
      Resolved[M] = true;
      const ModuleKey &K = File.Modules[M];
      auto It = Deep.ByPath.find(K.Path);
      if (It != Deep.ByPath.end()) {
        loader::LoadedModule Mapped{It->second, K.Base, K.Size};
        ModuleKey Now = ModuleKey::compute(Mapped);
        bool Match = File.PositionIndependent
                         ? Now.matchesIgnoringBase(K)
                         : Now.matches(K);
        if (Match) {
          // The recorded base frames both the persisted GuestStarts
          // and the stored immediates, so the source text is rebased
          // into that same frame.
          std::vector<isa::Instruction> Insts =
              It->second->instructions();
          for (uint32_t Idx : It->second->textRelocations())
            if (Idx < Insts.size())
              Insts[Idx].Imm += K.Base;
          Text[M] = std::move(Insts);
        }
      }
    }
    return Text[M] ? &*Text[M] : nullptr;
  };

  std::string FirstMismatch;
  for (TraceRecord &Rec : File.Traces) {
    auto Flag = [&](const std::string &What) {
      ++R.TracesMismatched;
      if (FirstMismatch.empty())
        FirstMismatch = formatString("trace @%08x: %s", Rec.GuestStart,
                                     What.c_str());
    };
    const std::vector<isa::Instruction> *Insts =
        Rec.ModuleIndex < NumMods ? textOf(Rec.ModuleIndex) : nullptr;
    if (!Insts) {
      ++R.TracesUnverifiable;
      continue;
    }
    const uint32_t Base = File.Modules[Rec.ModuleIndex].Base;
    if (Rec.GuestStart < Base ||
        (Rec.GuestStart - Base) % isa::InstructionSize != 0) {
      Flag("start address outside module text");
      continue;
    }
    uint32_t First = (Rec.GuestStart - Base) / isa::InstructionSize;
    if (First + Rec.GuestInstCount > Insts->size()) {
      Flag("body extends past module text");
      continue;
    }
    if (Rec.Code.size() < dbi::TracePrologueBytes +
                              static_cast<size_t>(Rec.GuestInstCount) *
                                  isa::InstructionSize) {
      Flag("code image smaller than its instruction count");
      continue;
    }
    auto Translated =
        isa::decodeAll(Rec.Code.data() + dbi::TracePrologueBytes,
                       Rec.GuestInstCount);
    if (!Translated) {
      Flag(Translated.status().message());
      continue;
    }
    std::vector<isa::Instruction> Source(
        Insts->begin() + First,
        Insts->begin() + First + Rec.GuestInstCount);
    // Certificate fast path: replay the recorded proof with the
    // trusted checker, bound to the real module text.
    bool CertRejected = false;
    if (!Rec.Cert.empty()) {
      ++R.CertsChecked;
      analysis::CertBindings Bind;
      Bind.BodyBytes = Rec.Code.data() + dbi::TracePrologueBytes;
      Bind.BodyByteCount =
          static_cast<size_t>(Rec.GuestInstCount) * isa::InstructionSize;
      if (analysis::checkCertificateBlob(Rec.Cert.data(),
                                         Rec.Cert.size(), Rec.GuestStart,
                                         *Translated, &Source, &Bind)
              .ok()) {
        ++R.TracesVerified;
        if (Rec.OptGen > 0)
          ++R.TracesPromotedVerified;
        continue;
      }
      ++R.CertsRejected;
      CertRejected = true;
    }
    analysis::Certificate Fresh;
    const bool WantFresh = Repair && Rec.OptGen > 0;
    auto Check = analysis::validateTranslation(
        Rec.GuestStart, Source, *Translated,
        WantFresh ? &Fresh : nullptr);
    if (!Check.Equivalent) {
      Flag(Check.message());
      continue;
    }
    if (Rec.OptGen > 0 && (CertRejected || Rec.Cert.empty()))
      ++R.CertsReplayedByProver;
    if (WantFresh && (CertRejected || Rec.Cert.empty())) {
      // The prover just vouched for this promoted body against the
      // real source: persist that proof as a fresh certificate.
      Fresh.OptGen = Rec.OptGen;
      Rec.Cert = Fresh.serialize();
      CertsDirty = true;
    } else if (Repair && CertRejected) {
      Rec.Cert.clear();
      CertsDirty = true;
    }
    ++R.TracesVerified;
    if (Rec.OptGen > 0)
      ++R.TracesPromotedVerified;
  }
  return FirstMismatch;
}

/// Checks (and with \p Repair, fixes) one cache file. nullopt when the
/// file vanished between the listing and the open — a concurrent
/// retire/quarantine, not a problem.
std::optional<FileCheckReport> checkFile(DirectoryStore &Store,
                                         const std::string &Dir,
                                         const std::string &Name,
                                         bool Repair,
                                         const DeepContext *Deep) {
  using FileState = FileCheckReport::FileState;
  FileCheckReport R;
  R.Name = Name;
  std::string Path = Dir + "/" + Name;

  // Shared disposition for contents we cannot (or may not) fix in
  // place: I/O failures are never repair material, everything else is
  // quarantined under --repair (with \p Code recorded machine-readably)
  // and merely reported otherwise.
  auto Condemn = [&](const Status &Why, QuarantineReasonCode Code) {
    R.Detail = Why.toString();
    if (Why.code() == ErrorCode::IoError)
      R.State = FileState::Unreadable;
    else if (Repair &&
             Store
                 .quarantineRef(Path,
                                encodeQuarantineReason(Code, R.Detail))
                 .ok())
      R.State = FileState::Quarantined;
    else
      R.State = FileState::Corrupt;
  };

  if (!fileExists(Path))
    return std::nullopt;

  // Index-deep open validates the header, module table and trace
  // index CRCs; the payload sweep below covers what every runtime
  // path defers to first execution.
  auto View = CacheFileView::openFile(Path, CacheFileView::Depth::Index);
  if (!View) {
    if (View.status().code() == ErrorCode::NotFound)
      return std::nullopt;
    Condemn(View.status(), reasonCodeFor(View.status()));
    return R;
  }
  CacheFile Out;
  Out.EngineHash = View->engineHash();
  Out.ToolHash = View->toolHash();
  Out.SpecBits = View->specBits();
  Out.PositionIndependent = View->positionIndependent();
  // A salvage rewrite must not silently downgrade an XIP (v3) file
  // to a materializing one: consumers mmap its payload in place and
  // the repaired file must stay page-aligned and flagged.
  Out.ExecuteInPlace = View->executeInPlace();
  R.Xip = View->executeInPlace();
  Out.Generation = View->generation();
  Out.WriterTag = View->writerTag();
  Out.Modules = View->modules();
  for (uint32_t I = 0; I < View->numTraces(); ++I) {
    auto Rec = View->record(I); // CRC-checks the code image.
    if (!Rec) {
      ++R.TracesDropped;
      if (R.Detail.empty())
        R.Detail = formatString("trace %u: %s", I,
                                Rec.status().toString().c_str());
      continue;
    }
    Out.Traces.push_back(Rec.take());
    ++R.TracesKept;
  }
  if (R.TracesDropped == 0) {
    // Structural validation on top of the CRCs: a file whose bytes
    // are all intact can still carry nonsense (out-of-range exits,
    // duplicate starts) if its writer was buggy.
    if (Status V = Out.validate(); !V.ok()) {
      Condemn(V, QuarantineReasonCode::StructuralInvalid);
      return R;
    }
    if (Deep) {
      // Deep semantic sweep decides the final state: a mismatch makes
      // the file corrupt (or quarantined under Repair — semantically
      // wrong code must leave the candidate set even though every
      // checksum is fine); a rejected certificate the prover overruled
      // makes the file corrupt on a report-only pass and is repaired in
      // place (stripped or regenerated) under Repair.
      bool CertsDirty = false;
      std::string Mismatch = deepCheckFile(Out, *Deep, Repair, R, CertsDirty);
      if (R.TracesMismatched != 0) {
        R.Detail = Mismatch;
        if (Repair &&
            Store
                .quarantineRef(
                    Path, encodeQuarantineReason(
                              QuarantineReasonCode::SemanticMismatch,
                              Mismatch))
                .ok())
          R.State = FileState::Quarantined;
        else
          R.State = FileState::Corrupt;
        return R;
      }
      if (CertsDirty) {
        if (Status W = writeFileAtomic(Path, Out.serialize(),
                                       /*SyncToDisk=*/true);
            !W.ok()) {
          R.State = FileState::Unreadable;
          R.Detail = W.toString();
          return R;
        }
        R.State = FileState::Repaired;
        return R;
      }
      if (R.CertsRejected != 0) {
        R.State = FileState::Corrupt;
        R.Detail = formatString(
            "%u certificate(s) rejected; bodies re-proved by the full "
            "validator",
            R.CertsRejected);
        return R;
      }
      R.State = FileState::Clean;
      return R;
    }
    // Plain pass: self-contained certificate sweep (rejections are
    // stripped in place under Repair — the trace survives on its
    // intact payload, it just loses its fast-path proof).
    std::string CertReject = certSweepFile(Out, Repair, R);
    if (R.CertsRejected == 0) {
      R.State = FileState::Clean;
      return R;
    }
    R.Detail = CertReject;
    if (!Repair) {
      R.State = FileState::Corrupt;
      return R;
    }
    if (Status W = writeFileAtomic(Path, Out.serialize(),
                                   /*SyncToDisk=*/true);
        !W.ok()) {
      R.State = FileState::Unreadable;
      R.Detail = W.toString();
      return R;
    }
    R.State = FileState::Repaired;
    return R;
  }
  if (!Repair) {
    R.State = FileState::Corrupt;
    return R;
  }
  // Salvage: keep the traces whose payloads survived, clear links
  // into the dropped ones, and re-finalize in place. Identity fields
  // and the generation carry over so the slot's merge discipline is
  // undisturbed.
  std::set<uint32_t> Kept;
  for (const TraceRecord &T : Out.Traces)
    Kept.insert(T.GuestStart);
  for (TraceRecord &T : Out.Traces)
    for (ExitRecord &E : T.Exits)
      if (E.LinkedStart != 0 && !Kept.count(E.LinkedStart))
        E.LinkedStart = 0;
  if (Status V = Out.validate(); !V.ok()) {
    // Damage beyond the payloads: not salvageable.
    Condemn(V, QuarantineReasonCode::StructuralInvalid);
    return R;
  }
  if (Status W =
          writeFileAtomic(Path, Out.serialize(), /*SyncToDisk=*/true);
      !W.ok()) {
    R.State = FileState::Unreadable;
    R.Detail = W.toString();
    return R;
  }
  R.State = FileState::Repaired;
  return R;
}

} // namespace

const char *
pcc::persist::fileCheckStateName(FileCheckReport::FileState S) {
  switch (S) {
  case FileCheckReport::FileState::Clean:
    return "clean";
  case FileCheckReport::FileState::Corrupt:
    return "corrupt";
  case FileCheckReport::FileState::Unreadable:
    return "unreadable";
  case FileCheckReport::FileState::Repaired:
    return "repaired";
  case FileCheckReport::FileState::Quarantined:
    return "quarantined";
  }
  return "?";
}

ErrorOr<DbCheckReport>
pcc::persist::checkDatabase(const std::string &Dir,
                            const DbCheckOptions &Opts) {
  using FileState = FileCheckReport::FileState;
  DirectoryStore Store(Dir);
  // Observation must not mutate: the store's open paths auto-quarantine
  // corrupt files by default, which is exactly wrong for a plain check.
  // Repair quarantines explicitly, where it can report what it did.
  Store.setAutoQuarantine(false);

  // Repair quiesces every publisher by taking the store lock
  // exclusively (publishers hold it shared for their whole critical
  // section). A plain check takes no locks at all: readers never need
  // them, and a read-only database must stay untouched.
  FileLock StoreLock;
  if (Opts.Repair) {
    auto Lock = FileLock::acquire(Store.storeLockPath());
    if (!Lock)
      return Lock.status();
    StoreLock = Lock.take();
  }

  // --deep needs the guest modules; load them once up front. A module
  // file the operator explicitly named but we cannot read or parse is
  // a whole-pass error, not a per-file one.
  DeepContext Deep;
  if (Opts.Deep) {
    for (const std::string &ModPath : Opts.ModulePaths) {
      auto Bytes = readFile(ModPath);
      if (!Bytes)
        return Status::error(ErrorCode::IoError,
                             "cannot read module file " + ModPath);
      auto Mod = binary::Module::deserialize(*Bytes);
      if (!Mod)
        return Status::error(ErrorCode::InvalidFormat,
                             "cannot parse module file " + ModPath +
                                 ": " + Mod.status().message());
      auto Shared =
          std::make_shared<const binary::Module>(Mod.take());
      Deep.ByPath[Shared->path()] = Shared;
    }
  }

  auto Names = listDirectory(Dir);
  if (!Names)
    return Names.status();

  DbCheckReport Report;
  std::vector<std::string> CacheNames;
  for (const std::string &Name : *Names) {
    if (isAtomicTempName(Name)) {
      // A crashed writer's temporary: invisible to readers, but dead
      // weight until maintenance sweeps it.
      ++Report.TempsFound;
      if (Opts.Repair && removeFile(Dir + "/" + Name).ok())
        ++Report.TempsSwept;
      continue;
    }
    if (isCacheFileName(Name))
      CacheNames.push_back(Name);
  }

  // Files are checked (and under Repair, rewritten/quarantined)
  // independently, so the per-file pass fans across the pool; the
  // per-slot results are aggregated in listing order below, keeping the
  // report byte-identical for any worker count.
  std::vector<std::optional<FileCheckReport>> Checked(CacheNames.size());
  auto CheckOne = [&](size_t I) {
    Checked[I] = checkFile(Store, Dir, CacheNames[I], Opts.Repair,
                           Opts.Deep ? &Deep : nullptr);
  };
  if (Opts.Pool && Opts.Pool->workerCount() > 0)
    Opts.Pool->parallelFor(CacheNames.size(), CheckOne);
  else
    for (size_t I = 0; I < CacheNames.size(); ++I)
      CheckOne(I);

  for (std::optional<FileCheckReport> &R : Checked) {
    if (!R)
      continue; // Vanished mid-scan (concurrent retire).
    ++Report.FilesScanned;
    if (R->Xip)
      ++Report.FilesXip;
    Report.TracesDropped += R->TracesDropped;
    Report.CertsChecked += R->CertsChecked;
    Report.CertsRejected += R->CertsRejected;
    Report.CertsReplayedByProver += R->CertsReplayedByProver;
    Report.TracesVerified += R->TracesVerified;
    Report.TracesMismatched += R->TracesMismatched;
    Report.TracesUnverifiable += R->TracesUnverifiable;
    Report.TracesPromotedVerified += R->TracesPromotedVerified;
    switch (R->State) {
    case FileState::Clean:
      ++Report.FilesClean;
      break;
    case FileState::Corrupt:
      ++Report.FilesCorrupt;
      break;
    case FileState::Unreadable:
      ++Report.FilesUnreadable;
      break;
    case FileState::Repaired:
      ++Report.FilesRepaired;
      break;
    case FileState::Quarantined:
      ++Report.FilesQuarantined;
      break;
    }
    Report.Files.push_back(std::move(*R));
  }

  for (const LockInfo &Info : Store.locks()) {
    ++Report.LocksFound;
    if (Info.Held) {
      ++Report.LocksHeld;
      continue;
    }
    // Stale per-key lock files can be swept here and only here: with
    // the store lock held exclusively no publisher holds (or can
    // acquire) a key lock. The store lock itself is never deleted —
    // we are holding its inode. The sweep re-checks by acquiring each
    // candidate non-blocking first; the one non-publish key-lock user
    // (auto-quarantine's re-validation) also acquires non-blocking and
    // re-checks the file, so the residual inode-split window is
    // harmless.
    std::string Base = Info.Path.substr(Info.Path.rfind('/') + 1);
    if (!Opts.Repair || Base == "store.lock" || Base.empty() ||
        Base[0] != 'k')
      continue;
    auto Guard = FileLock::tryAcquire(Info.Path);
    if (Guard && removeFile(Info.Path).ok())
      ++Report.StaleLocksSwept;
  }

  if (auto Entries = Store.quarantined())
    Report.Quarantine = Entries.take();
  return Report;
}
