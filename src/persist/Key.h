//===- persist/Key.h - Persistent cache keys --------------------*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Keys prevent the reuse of invalid or inconsistent translations
/// (Section 3.2.1): "Keys are a hash of the base address, mapping size,
/// binary path, program header, and modification timestamps." One key is
/// computed per executable mapping; at minimum the application, the
/// engine, and the tool are keyed. A persisted module key must match the
/// key of the identically-named module loaded now, or that module's
/// traces are invalidated and retranslated.
///
/// The PicHash variant excludes the base address; it backs the optional
/// position-independent-translation extension (the paper's noted future
/// work), which tolerates library relocation.
///
//===----------------------------------------------------------------------===//

#ifndef PCC_PERSIST_KEY_H
#define PCC_PERSIST_KEY_H

#include "loader/Loader.h"
#include "support/ByteStream.h"

#include <cstddef>
#include <cstdint>
#include <string>

namespace pcc {
namespace persist {

/// Identity of one executable mapping at persistent-cache creation time.
struct ModuleKey {
  std::string Path;
  uint32_t Base = 0;
  uint32_t Size = 0;
  uint64_t HeaderHash = 0;
  uint64_t ModTime = 0;
  /// Hash over all fields above (the paper's key proper).
  uint64_t FullHash = 0;
  /// Hash excluding the base address (for position-independent reuse).
  uint64_t PicHash = 0;

  /// Computes the key for a mapped module.
  static ModuleKey compute(const loader::LoadedModule &Mod);

  /// Exact match: same binary at the same address.
  bool matches(const ModuleKey &Other) const {
    return FullHash == Other.FullHash;
  }
  /// Relocation-tolerant match: same binary, any address.
  bool matchesIgnoringBase(const ModuleKey &Other) const {
    return PicHash == Other.PicHash;
  }

  /// Serialized size of a key with an empty path: u32 path length,
  /// Base, Size and the four u64 hashes.
  static constexpr size_t MinSerializedBytes = 4 + 4 + 4 + 4 * 8;

  void serialize(ByteWriter &Writer) const;
  static ModuleKey deserialize(ByteReader &Reader);

  bool operator==(const ModuleKey &Other) const = default;
};

/// The database lookup key for a (application, engine, tool) triple —
/// what the cache-lookup function at program startup hashes on.
uint64_t computeLookupKey(const ModuleKey &AppKey, uint64_t EngineHash,
                          uint64_t ToolHash);

} // namespace persist
} // namespace pcc

#endif // PCC_PERSIST_KEY_H
