#include "scifile/cdl.hpp"

#include <cctype>
#include <charconv>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace sidr::sci {

namespace {

struct Line {
  std::size_t number;
  std::string text;
};

[[noreturn]] void fail(const Line& line, const std::string& what) {
  std::ostringstream os;
  os << "parseCdl: " << what << " at line " << line.number << ": \""
     << line.text << "\"";
  throw std::invalid_argument(os.str());
}

std::string strip(const std::string& s) {
  std::size_t a = 0;
  std::size_t b = s.size();
  while (a < b && std::isspace(static_cast<unsigned char>(s[a]))) ++a;
  while (b > a && std::isspace(static_cast<unsigned char>(s[b - 1]))) --b;
  return s.substr(a, b - a);
}

std::vector<std::string> splitList(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      parts.push_back(strip(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  parts.push_back(strip(cur));
  return parts;
}

DataType parseType(const Line& line, const std::string& name) {
  if (name == "int") return DataType::kInt32;
  if (name == "long") return DataType::kInt64;
  if (name == "float") return DataType::kFloat32;
  if (name == "double") return DataType::kFloat64;
  fail(line, "unknown type '" + name + "'");
}

}  // namespace

Metadata parseCdl(const std::string& text) {
  Metadata meta;
  enum class Section { kNone, kDimensions, kVariables } section =
      Section::kNone;

  std::istringstream in(text);
  std::string raw;
  std::size_t lineNo = 0;
  while (std::getline(in, raw)) {
    Line line{++lineNo, raw};
    std::string s = strip(raw);
    if (s.empty()) continue;
    if (s == "dimensions:") {
      section = Section::kDimensions;
      continue;
    }
    if (s == "variables:") {
      section = Section::kVariables;
      continue;
    }
    if (s.back() != ';') fail(line, "expected ';'");
    s.pop_back();
    s = strip(s);

    if (section == Section::kDimensions) {
      // name = length
      auto eq = s.find('=');
      if (eq == std::string::npos) fail(line, "expected 'name = length'");
      std::string name = strip(s.substr(0, eq));
      std::string len = strip(s.substr(eq + 1));
      if (name.empty() || len.empty()) fail(line, "empty dimension entry");
      std::int64_t length = 0;
      const auto [end, ec] =
          std::from_chars(len.data(), len.data() + len.size(), length);
      if (ec != std::errc() || end != len.data() + len.size()) {
        fail(line, "dimension length is not a 64-bit integer");
      }
      try {
        meta.addDimension(name, length);
      } catch (const std::invalid_argument& e) {
        fail(line, e.what());
      }
    } else if (section == Section::kVariables) {
      // type name(dim, dim, ...)
      auto open = s.find('(');
      auto close = s.rfind(')');
      if (open == std::string::npos || close == std::string::npos ||
          close < open) {
        fail(line, "expected 'type name(dims...)'");
      }
      std::string head = strip(s.substr(0, open));
      auto space = head.find_last_of(" \t");
      if (space == std::string::npos) fail(line, "expected 'type name'");
      std::string typeName = strip(head.substr(0, space));
      std::string varName = strip(head.substr(space + 1));
      std::vector<std::string> dims =
          splitList(s.substr(open + 1, close - open - 1), ',');
      if (dims.size() == 1 && dims[0].empty()) dims.clear();
      const DataType type = parseType(line, typeName);
      try {
        meta.addVariable(varName, type, dims);
      } catch (const std::logic_error& e) {  // bad name, rank past kMaxRank
        fail(line, e.what());
      }
    } else {
      fail(line, "entry outside 'dimensions:' / 'variables:' sections");
    }
  }
  return meta;
}

}  // namespace sidr::sci
