#pragma once

#include <cstdint>
#include <filesystem>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "store/codec.hpp"
#include "store/hash.hpp"

namespace anacin::store {

/// Shared immutable bytes of one object (what the LRU cache holds).
using ObjectBytes = std::shared_ptr<const std::vector<std::uint8_t>>;

/// File-backed content-addressed object store.
///
/// Layout under the root directory:
///   objects/<first 2 hex chars>/<remaining 30 hex chars>   one artifact each
///   index.json                                             metadata cache
///
/// Publishes are atomic: objects are written to a uniquely named temp file
/// in the final directory and rename()d into place, so concurrent writers
/// and readers (the campaign thread pool) never observe partial objects.
/// The index holds sizes, kinds, and access times (for `gc`); it is a
/// cache, not the source of truth, written once when the store closes (or
/// by `gc`, `repair`, `flush_index`) rather than per publish. Construction
/// rescans the objects directory, so a lost or stale index self-heals.
///
/// Reads are fronted by a byte-bounded in-memory LRU cache. All public
/// methods are thread-safe; file reads happen outside the lock.
class ObjectStore {
 public:
  struct Config {
    std::filesystem::path root;
    /// Byte bound of the in-memory LRU cache (0 disables caching).
    std::uint64_t memory_max_bytes = 256ull << 20;
    /// Persist index.json (a self-healing cache, not the source of truth).
    /// Worker children (--isolate=process) disable this: each would rewrite
    /// the shared index with its partial view whenever it exits.
    bool persist_index = true;
  };

  explicit ObjectStore(Config config);
  ~ObjectStore();

  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  const std::filesystem::path& root() const { return config_.root; }

  /// Fetch an object's bytes (memory cache first, then disk); nullptr when
  /// absent. Counts store.hits / store.misses / store.bytes_read.
  ObjectBytes get(const Digest& key);

  /// Publish an object; a key that already exists is left untouched.
  /// Returns true when newly written. Counts store.bytes_written.
  bool put(const Digest& key, Kind kind, std::span<const std::uint8_t> bytes);

  bool contains(const Digest& key) const;

  /// Drop an object from disk, index, and memory cache (used when a load
  /// detects corruption so the artifact is recomputed, not re-served).
  void remove(const Digest& key);

  struct Stats {
    std::uint64_t objects = 0;
    std::uint64_t total_bytes = 0;
    /// Object count per artifact kind name.
    std::map<std::string, std::uint64_t> kind_counts;
    std::uint64_t memory_objects = 0;
    std::uint64_t memory_bytes = 0;
    std::uint64_t memory_max_bytes = 0;
  };
  Stats stats() const;

  struct VerifyReport {
    std::uint64_t checked = 0;
    /// Keys whose files fail envelope validation (bad magic, truncation,
    /// checksum mismatch, unsupported version).
    std::vector<std::string> corrupt;
    /// Files in objects/ whose names are not valid digests.
    std::vector<std::string> foreign;

    bool ok() const { return corrupt.empty() && foreign.empty(); }
  };
  /// Re-read every object from disk and validate its envelope.
  VerifyReport verify() const;

  struct RepairReport {
    /// verify() results the repair acted on.
    VerifyReport verified;
    /// Objects moved into quarantine/ (corrupt + foreign).
    std::uint64_t quarantined = 0;
    /// Files that could not be moved (e.g. permissions); left in place.
    std::vector<std::string> failed;

    bool ok() const { return failed.empty(); }
  };
  /// Heal a damaged store: re-verify, then move every corrupt and foreign
  /// object aside into `<root>/quarantine/` (preserving the file name,
  /// uniquified on collision) so subsequent loads recompute instead of
  /// tripping over bad bytes. Nothing is deleted — a quarantined object
  /// can be inspected or restored by hand.
  RepairReport repair();

  struct GcReport {
    std::uint64_t removed_objects = 0;
    std::uint64_t removed_bytes = 0;
    std::uint64_t remaining_objects = 0;
    std::uint64_t remaining_bytes = 0;
    /// Orphaned `*.tmp.*` files swept (crashed writers' litter).
    std::uint64_t removed_temp_files = 0;
  };
  /// Evict least-recently-used objects until total size <= max_bytes.
  /// Also sweeps stale temp files older than this process.
  GcReport gc(std::uint64_t max_bytes);

  /// Persist the index if it changed (also done by gc, repair, and close).
  void flush_index();

 private:
  struct Entry {
    std::uint16_t kind = 0;
    std::uint64_t size = 0;
    std::int64_t created_unix = 0;
    std::int64_t last_used_unix = 0;
  };

  std::filesystem::path object_path(const std::string& hex) const;
  void scan_objects();
  void load_index();
  void save_index_locked();
  void touch_memory_locked(const std::string& hex, ObjectBytes bytes);
  void evict_memory_locked();
  void drop_memory_locked(const std::string& hex);

  Config config_;
  mutable std::mutex mutex_;
  std::map<std::string, Entry> index_;
  bool index_dirty_ = false;

  /// LRU over object hex keys, most recent at the front.
  std::list<std::pair<std::string, ObjectBytes>> lru_;
  std::unordered_map<std::string,
                     std::list<std::pair<std::string, ObjectBytes>>::iterator>
      lru_lookup_;
  std::uint64_t lru_bytes_ = 0;
};

}  // namespace anacin::store
