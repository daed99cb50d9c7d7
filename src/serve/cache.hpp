#pragma once

// Content-addressed result cache for the serve layer (ISSUE 8), keyed by
// the tree-wide canonical campaign identity (core/campaign.hpp).  Because
// every campaign is a pure function of its key — the scenario registry
// pins the model, the canonical CLI pins every parameter, and the trial
// runner is bit-identical for any thread count — a cached value can be
// replayed verbatim: a cache hit returns the exact bytes
// (core/format.hpp result_json_object) the original run produced.
//
// Two tiers: an in-memory map (std::map — deterministic iteration, no
// hash-order dependence) in front of an optional on-disk directory, one
// file per entry named by the FNV-1a hash of the key string.  Disk files
// carry the full key string and are verified on read, so a hash collision
// degrades to a miss (plus linear probing over a few suffixed names),
// never to a wrong result.  Writes go through a temp file + rename so a
// crash can never leave a torn entry behind.

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/campaign.hpp"

namespace megflood::serve {

// Files of one campaign in the cache directory (.mfc entry, .mfj journal,
// .mfq quarantine marker) share a stem: the 16-digit lower-case hex of
// the campaign key hash.
std::string hex64(std::uint64_t value);

// Names (not paths) of the entries of `dir` ending in one of `suffixes`,
// sorted so every scan is deterministic.  A missing or unlistable
// directory lists as empty.
std::vector<std::string> list_files_with_suffix(
    const std::string& dir, std::initializer_list<const char*> suffixes);

// A whole file's bytes; nullopt when absent or unreadable.
std::optional<std::string> read_file(const std::string& path);

struct CacheStats {
  std::uint64_t hits = 0;       // lookup answered (memory or disk)
  std::uint64_t misses = 0;     // lookup unanswered
  std::uint64_t disk_hits = 0;  // subset of hits served from disk
  std::uint64_t entries = 0;    // in-memory entries
};

class ResultCache {
 public:
  // `disk_dir` empty = memory-only.  The directory is created if absent
  // (one level); failure to create throws std::runtime_error.
  explicit ResultCache(std::string disk_dir = "");

  // The cached result object bytes for `key`, or nullopt.  A disk hit is
  // promoted into memory.
  std::optional<std::string> lookup(const CampaignKey& key);

  // Stores the result bytes for `key` (memory + disk when configured).
  // Storing the same key again is a no-op (first write wins: the bytes
  // are deterministic, so a second value could only be identical).
  void store(const CampaignKey& key, const std::string& result_json);

  CacheStats stats() const;

  // Test/fault-injection seam: called after each successful disk store
  // with a 1-based daemon-wide store count and the entry's final path
  // (util/fault_injection corrupt:store=N uses it to damage one entry in
  // place).  Must be set before concurrent use.
  void set_disk_store_hook(
      std::function<void(std::size_t index, const std::string& path)> hook) {
    disk_store_hook_ = std::move(hook);
  }

 private:
  std::optional<std::string> disk_lookup(const std::string& key_string);
  void disk_store(const std::string& key_string,
                  const std::string& result_json);
  std::string entry_path(std::uint64_t hash, int probe) const;
  // Startup survey of the cache directory: warns on stderr about .mfc
  // cache entries and .mfj journals the daemon will not be able to open
  // (permissions, foreign ownership) instead of failing later, silently
  // or loudly.  Never throws — an unreadable entry degrades to a miss.
  void scan_disk() const;

  mutable std::mutex mutex_;
  std::map<std::string, std::string> entries_;  // key string -> result bytes
  std::string dir_;
  CacheStats stats_;
  std::function<void(std::size_t, const std::string&)> disk_store_hook_;
  std::size_t disk_stores_ = 0;
};

}  // namespace megflood::serve
