// The JSON layer every spec, report, golden and checkpoint goes through:
// round trips, error positions, RFC 8259 number syntax and the nesting
// bound that keeps adversarial input from overflowing the stack.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "urmem/common/json.hpp"

namespace urmem {
namespace {

TEST(Json, ParseDumpRoundTrip) {
  const json_value doc = json_value::parse(
      R"({"a": 1, "b": [true, null, 2.5, "x\n"], "c": {"d": 1e-3}})");
  const json_value again = json_value::parse(doc.dump());
  EXPECT_TRUE(doc == again);
  EXPECT_EQ(doc.find("a")->as_u64(), 1u);
  EXPECT_DOUBLE_EQ(doc.find("c")->find("d")->as_double(), 1e-3);
}

TEST(Json, ParseErrorsCarryPosition) {
  try {
    (void)json_value::parse("{\n  \"a\": nope\n}");
    FAIL() << "expected json_parse_error";
  } catch (const json_parse_error& error) {
    EXPECT_EQ(error.line(), 2u);
  }
}

TEST(Json, IntegersRoundTripExactly) {
  const json_value doc = json_value::parse(R"({"seed": 18446744073709551615})");
  EXPECT_EQ(doc.find("seed")->as_u64(), 18446744073709551615ull);
  EXPECT_NE(doc.dump().find("18446744073709551615"), std::string::npos);
}

TEST(Json, NumbersFollowRfc8259) {
  for (const char* text : {"0", "-0", "7", "10", "0.5", "-1.5e-3", "1e5",
                           "1E+5", "2.5E-07", "18446744073709551616"}) {
    EXPECT_NO_THROW((void)json_value::parse(text)) << text;
  }
  // from_chars alone would read "01" and "1." as 1.
  for (const char* text : {"01", "-01", "00", "1.", "1.e5", ".5", "-.5", "1e",
                           "1e+", "+1", "-", "--1", "0x10"}) {
    EXPECT_THROW((void)json_value::parse(text), json_parse_error) << text;
    EXPECT_THROW((void)json_value::parse(std::string("[") + text + "]"),
                 json_parse_error)
        << text;
  }
  EXPECT_EQ(json_value::parse("[0, 10]").dump(0), "[0,10]");
}

TEST(Json, DeepNestingIsAParseErrorNotACrash) {
  // Unbounded, 50,000 levels overflow the recursive descent's stack.
  const std::string deep(50'000, '[');
  try {
    (void)json_value::parse(deep);
    FAIL() << "expected json_parse_error";
  } catch (const json_parse_error& error) {
    EXPECT_EQ(error.line(), 1u);
    EXPECT_GT(error.column(), 1u);
    EXPECT_NE(std::string(error.what()).find("nesting too deep"),
              std::string::npos);
  }
  std::string objects;
  for (int i = 0; i < 50'000; ++i) objects += "{\"a\":";
  EXPECT_THROW((void)json_value::parse(objects), json_parse_error);
}

TEST(Json, NestingUpToTheBoundParses) {
  const std::size_t levels = json_value::max_nesting_depth;
  const std::string ok = std::string(levels, '[') + std::string(levels, ']');
  EXPECT_NO_THROW((void)json_value::parse(ok));
  const std::string over =
      std::string(levels + 1, '[') + std::string(levels + 1, ']');
  EXPECT_THROW((void)json_value::parse(over), json_parse_error);
}

std::vector<std::filesystem::path> json_files_in(
    const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string read_text(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(Json, CheckedInFilesReachAParseDumpFixedPoint) {
  const std::filesystem::path root(URMEM_SCENARIO_DIR);
  std::vector<std::filesystem::path> files = json_files_in(root);
  const std::vector<std::filesystem::path> goldens =
      json_files_in(root / "golden");
  files.insert(files.end(), goldens.begin(), goldens.end());
  ASSERT_GE(files.size(), 10u);
  for (const auto& path : files) {
    SCOPED_TRACE(path.string());
    const json_value first = json_value::parse(read_text(path));
    const std::string dumped = first.dump();
    const json_value second = json_value::parse(dumped);
    EXPECT_TRUE(first == second);
    EXPECT_EQ(second.dump(), dumped);
  }
}

}  // namespace
}  // namespace urmem
