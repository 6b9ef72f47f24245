// Fault-map serialization.
//
// Post-fabrication test equipment exports fault maps; POST firmware
// reloads them. The format is a line-oriented text file, diffable and
// versionable:
//
//   urmem-faultmap v1
//   geometry <rows> <width>
//   fault <row> <col> <kind>
//   ...
//
// with kind one of: sa0, sa1, flip, tfup, tfdown.
//
// The v2 form carries the fault-lifecycle annotations the timeline
// layer (src/lifecycle) needs: the epoch a fault first appeared and
// whether the cell is intermittent (active only on some epochs):
//
//   urmem-faultmap v2
//   geometry <rows> <width>
//   fault <row> <col> <kind> <birth_epoch> [intermittent]
//
// read_timeline_faults accepts both versions (v1 records load as
// persistent epoch-0 faults), so v1 exports from older test flows feed
// the lifecycle machinery unchanged.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "urmem/memory/fault_map.hpp"

namespace urmem {

/// Writes `map` in the v1 text format.
void write_fault_map(std::ostream& out, const fault_map& map);

/// Parses a v1 text fault map with read_timeline_faults' parser, so
/// both readers agree on every v1 file. Throws std::invalid_argument on
/// malformed input (a header other than v1, unknown kind, trailing junk
/// such as a v2 birth epoch, out-of-range cells). Memory is O(faults),
/// whatever geometry the header declares.
[[nodiscard]] fault_map read_fault_map(std::istream& in);

/// One timeline-annotated fault record (v2 format).
struct timeline_fault {
  fault f;
  std::uint32_t birth_epoch = 0;  ///< epoch the fault first appeared
  bool intermittent = false;      ///< active only on some epochs
  friend constexpr bool operator==(const timeline_fault&,
                                   const timeline_fault&) = default;
};

/// A timeline-extended fault population: every cell that has failed (or
/// intermittently fails) by some epoch, with its lifecycle annotations.
struct timeline_fault_set {
  array_geometry geometry;
  std::vector<timeline_fault> faults;  ///< ascending (row, col)
};

/// Writes `set` in the v2 text format.
void write_timeline_faults(std::ostream& out, const timeline_fault_set& set);

/// Parses a v1 or v2 text fault map into a timeline fault set (v1
/// faults become persistent epoch-0 records). Throws
/// std::invalid_argument on malformed input, unknown kinds, trailing
/// junk or out-of-range cells.
[[nodiscard]] timeline_fault_set read_timeline_faults(std::istream& in);

/// Writes `map` to `path` in the v1 format through write_file, which
/// creates parent directories and throws std::runtime_error naming the
/// path when the open, the write or the close fails (a full disk too).
void save_fault_map(const std::string& path, const fault_map& map);

/// Reads a v1 file with read_fault_map. Throws std::invalid_argument
/// when the file cannot be opened or is malformed.
[[nodiscard]] fault_map load_fault_map(const std::string& path);

/// Human-readable kind name used by the format (e.g. "sa0").
[[nodiscard]] std::string fault_kind_name(fault_kind kind);

/// Inverse of fault_kind_name; throws on unknown names.
[[nodiscard]] fault_kind fault_kind_from_name(const std::string& name);

}  // namespace urmem
