// Small filesystem helpers for the tools and the checkpoint layer.
//
// Campaign checkpoints are written by shards that may be killed at any
// instant (and may share one directory over a network filesystem), so
// they are written by atomic publication: write_file_atomic streams the
// content to a process-unique sibling temp file, syncs it and renames it
// over the target, so readers only ever see either the previous complete
// file or the new complete file — never a truncated one. write_file is
// the plain in-place write the tools use for their --out reports. Both
// create parent directories on demand.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace urmem {

/// Atomically replaces `path` with `content`: writes a process-unique
/// sibling temp file, fsyncs it, renames it over `path` (POSIX rename is
/// atomic within a filesystem) and fsyncs the parent directory, so the
/// new content survives a host crash, not just a killed process. Parent
/// directories are created on demand. Throws std::runtime_error on I/O
/// failure, a failed fsync included; the temp file is removed on every
/// failure path before the rename.
void write_file_atomic(const std::string& path, std::string_view content);

/// Writes `content` to `path` in place (creating parent directories),
/// for reports written to a path the user names, which may be a device
/// such as /dev/stdout that a rename would replace. Throws
/// std::runtime_error naming the path when the open, the write or the
/// close fails, so a full disk never passes for a written report.
void write_file(const std::string& path, std::string_view content);

/// Whole-file read; nullopt when the file is missing or unreadable.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

}  // namespace urmem
