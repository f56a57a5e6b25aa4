#pragma once

#include <cstdint>
#include <filesystem>
#include <string>

#include "support/io_chaos.hpp"

namespace anacin::support {

/// Crash-consistent file write: the content is written to a
/// unique_temp_path() sibling, the stream state is checked after every stage
/// (open, write, flush), and the temp file is renamed into place only when
/// the bytes are durably complete. Readers therefore never observe a
/// truncated file — a crash or full disk leaves at worst a stale previous
/// version plus an orphaned temp file, never a plausible-looking prefix.
///
/// Durability: at durability_level() >= kCommit the temp file is fsync'd
/// before the rename and the parent directory after it, so the commit
/// survives power loss, not just a process crash (docs/RESILIENCE.md,
/// "Durability model").
///
/// Fault injection: every call consults the process-global io-chaos
/// engine (ANACIN_IO_CHAOS / --io-chaos-*) under `path_class`, plus the
/// legacy one-shot ANACIN_FAIL_WRITE_AFTER hook (strictly parsed; kept as
/// a compatibility alias for the pre-chaos tests). Injected failures
/// throw IoError and leave the same on-disk shapes real faults would:
/// enospc/eio leave a partial temp, rename_fail leaves a complete temp,
/// open_fail leaves nothing.
///
/// Parent directories are created as needed. Throws IoError on any
/// failure.
void atomic_write_file(const std::string& path, const std::string& content,
                       PathClass path_class = PathClass::kOther);

/// `<target>.tmp.<pid>.<seq>`: a temp sibling no other writer uses. The
/// per-process sequence separates threads; the pid separates processes,
/// including forked workers that inherit the sequence. Every `*.tmp.*`
/// name is a writer's temp to the stale-temp sweep and `cache verify`.
std::filesystem::path unique_temp_path(const std::filesystem::path& target);

/// Number of successful atomic_write_file calls so far (test observability).
std::uint64_t atomic_write_count();

/// In-process override of ANACIN_FAIL_WRITE_AFTER (test hook): the next
/// `budget` writes succeed, then one fails; -1 disables injection.
/// Forwards to io_chaos::set_fail_write_after.
void set_fail_write_after(std::int64_t budget);

/// fsync one path. For regular files a failure throws IoError (the bytes
/// are not durable); directory fsyncs are best-effort (some filesystems
/// refuse O_DIRECTORY reads) and directory fsync is what makes a rename
/// survive power loss. No-op on platforms without fsync.
void fsync_path(const std::filesystem::path& path, bool is_directory);

/// Filesystem timestamp captured at process start (static initialization).
/// Temp files older than this belong to a previous — crashed — process.
std::filesystem::file_time_type process_start_file_time();

/// Recursively remove orphaned `*.tmp.*` litter under `root` that is
/// clearly older than this process — a 30 s grace window below the
/// process start absorbs coarse-clock timestamp skew (atomic_write_file
/// and the object store leave partial temps behind on crashes and
/// injected faults). Fresh temps — possibly another live writer's
/// in-flight publish — are left alone.
/// Returns the number of files removed; never throws (cleanup is
/// best-effort, errors skip the file).
std::uint64_t remove_stale_temp_files(const std::filesystem::path& root);

}  // namespace anacin::support
