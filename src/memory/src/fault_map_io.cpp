#include "urmem/memory/fault_map_io.hpp"

#include <fstream>
#include <sstream>

#include "urmem/common/contracts.hpp"
#include "urmem/common/fs.hpp"

namespace urmem {

std::string fault_kind_name(fault_kind kind) {
  switch (kind) {
    case fault_kind::stuck_at_zero: return "sa0";
    case fault_kind::stuck_at_one: return "sa1";
    case fault_kind::flip: return "flip";
    case fault_kind::transition_up_fail: return "tfup";
    case fault_kind::transition_down_fail: return "tfdown";
  }
  return "unknown";
}

fault_kind fault_kind_from_name(const std::string& name) {
  if (name == "sa0") return fault_kind::stuck_at_zero;
  if (name == "sa1") return fault_kind::stuck_at_one;
  if (name == "flip") return fault_kind::flip;
  if (name == "tfup") return fault_kind::transition_up_fail;
  if (name == "tfdown") return fault_kind::transition_down_fail;
  throw std::invalid_argument("unknown fault kind: " + name);
}

void write_fault_map(std::ostream& out, const fault_map& map) {
  out << "urmem-faultmap v1\n";
  out << "geometry " << map.geometry().rows << " " << map.geometry().width << "\n";
  for (const fault& f : map.all_faults()) {
    out << "fault " << f.row << " " << f.col << " " << fault_kind_name(f.kind)
        << "\n";
  }
}

void write_timeline_faults(std::ostream& out, const timeline_fault_set& set) {
  out << "urmem-faultmap v2\n";
  out << "geometry " << set.geometry.rows << " " << set.geometry.width << "\n";
  for (const timeline_fault& record : set.faults) {
    out << "fault " << record.f.row << " " << record.f.col << " "
        << fault_kind_name(record.f.kind) << " " << record.birth_epoch;
    if (record.intermittent) out << " intermittent";
    out << "\n";
  }
}

namespace {

/// The one fault-map text parser: v1, or v1 and v2 when `accept_v2`.
timeline_fault_set parse_fault_text(std::istream& in, bool accept_v2) {
  std::string line;
  expects(static_cast<bool>(std::getline(in, line)), "empty fault map file");
  if (!line.empty() && line.back() == '\r') line.pop_back();
  const bool v2 = accept_v2 && line == "urmem-faultmap v2";
  expects(v2 || line == "urmem-faultmap v1", "bad fault map header: " + line);

  expects(static_cast<bool>(std::getline(in, line)), "missing geometry line");
  std::istringstream geo(line);
  std::string tag;
  timeline_fault_set set;
  geo >> tag >> set.geometry.rows >> set.geometry.width;
  expects(tag == "geometry" && !geo.fail(), "bad geometry line: " + line);

  std::size_t line_no = 2;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line.front() == '#') continue;
    std::istringstream ss(line);
    std::string kind_name;
    timeline_fault record;
    ss >> tag >> record.f.row >> record.f.col >> kind_name;
    expects(tag == "fault" && !ss.fail(),
            "bad fault line " + std::to_string(line_no) + ": " + line);
    record.f.kind = fault_kind_from_name(kind_name);
    if (v2) {
      ss >> record.birth_epoch;
      expects(!ss.fail(),
              "fault line " + std::to_string(line_no) +
                  " misses the birth epoch: " + line);
      std::string flag;
      if (ss >> flag) {
        expects(flag == "intermittent",
                "bad annotation on line " + std::to_string(line_no) + ": " +
                    flag);
        record.intermittent = true;
      }
    }
    std::string junk;
    expects(!(ss >> junk),
            "trailing junk on line " + std::to_string(line_no) + ": " + line);
    expects(record.f.row < set.geometry.rows &&
                record.f.col < set.geometry.width,
            "fault line " + std::to_string(line_no) +
                " lies outside the geometry: " + line);
    set.faults.push_back(record);
  }
  return set;
}

}  // namespace

fault_map read_fault_map(std::istream& in) {
  const timeline_fault_set set = parse_fault_text(in, false);
  std::vector<fault> faults;
  faults.reserve(set.faults.size());
  for (const timeline_fault& record : set.faults) faults.push_back(record.f);
  return fault_map(set.geometry, std::move(faults));
}

timeline_fault_set read_timeline_faults(std::istream& in) {
  return parse_fault_text(in, true);
}

void save_fault_map(const std::string& path, const fault_map& map) {
  std::ostringstream text;
  write_fault_map(text, map);
  write_file(path, text.str());
}

fault_map load_fault_map(const std::string& path) {
  std::ifstream in(path);
  expects(in.good(), "cannot open fault map file: " + path);
  return read_fault_map(in);
}

}  // namespace urmem
