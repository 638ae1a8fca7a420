// Crash-safe persistence: atomic file replacement and CRC32-footed
// checkpoint snapshots for the hours-long batch layers.
//
// Guarantees every caller relies on:
//   * write_file_atomic() never leaves a truncated or half-written file
//     visible at the target path. The contents go to a temp file in the same
//     directory, are fsync'd, and the temp is rename(2)'d over the target —
//     a reader (or a restarted run) sees either the old complete file or the
//     new complete file, nothing in between.
//   * save()/load() wrap a payload in a footer line carrying its CRC32 and
//     byte length. load() verifies both and returns nullopt — with one
//     warning per (path, reason), never an exception — for a missing,
//     truncated, garbled, or CRC-mismatched file, so a consumer restarts
//     cleanly from scratch instead of resuming from garbage.
//   * Checkpoint placement is env-driven for zero-plumbing adoption:
//     MEMSTRESS_CHECKPOINT_DIR selects the directory (unset = checkpointing
//     off), MEMSTRESS_CHECKPOINT_INTERVAL the default snapshot cadence in
//     completed tasks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace memstress::checkpoint {

/// Plain CRC-32 (IEEE 802.3, the zlib polynomial) of `size` bytes.
std::uint32_t crc32(const void* data, std::size_t size);
std::uint32_t crc32(const std::string& text);
/// crc32(text) as 8 lowercase hex digits (fingerprints, the db_crc guard).
std::string crc32_hex(const std::string& text);

/// Atomically replace `path` with `contents` (temp file + fsync + rename).
/// Throws Error on I/O failure; on failure the target path is untouched.
void write_file_atomic(const std::string& path, const std::string& contents);

/// Atomically write `payload` plus a CRC32 footer line to `path`.
void save(const std::string& path, const std::string& payload);

/// Load a checkpoint written by save(). Returns the payload, or nullopt
/// (missing file is silent; any corruption logs one warning per distinct
/// (path, reason) naming the problem, mirroring the CSV-cache error style).
std::optional<std::string> load(const std::string& path);

/// Best-effort removal of a consumed checkpoint (no error if absent).
void remove(const std::string& path);

/// "<MEMSTRESS_CHECKPOINT_DIR>/<job>.ckpt", or "" when the variable is
/// unset/empty (checkpointing disabled).
std::string default_path(const std::string& job);

/// MEMSTRESS_CHECKPOINT_INTERVAL clamped to [1, 1e9]; `fallback` when unset
/// or invalid (the usual util/env contract: warn once on garbage).
long default_interval(long fallback);

}  // namespace memstress::checkpoint
