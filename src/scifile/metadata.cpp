#include "scifile/metadata.hpp"

#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace sidr::sci {

std::size_t dataTypeSize(DataType t) {
  switch (t) {
    case DataType::kInt32:
    case DataType::kFloat32:
      return 4;
    case DataType::kInt64:
    case DataType::kFloat64:
      return 8;
  }
  throw std::invalid_argument("dataTypeSize: bad DataType");
}

std::string dataTypeName(DataType t) {
  switch (t) {
    case DataType::kInt32:
      return "int";
    case DataType::kInt64:
      return "long";
    case DataType::kFloat32:
      return "float";
    case DataType::kFloat64:
      return "double";
  }
  throw std::invalid_argument("dataTypeName: bad DataType");
}

std::size_t Metadata::addDimension(std::string name, nd::Index length) {
  if (length <= 0) {
    throw std::invalid_argument("Metadata: dimension length must be positive");
  }
  dims_.push_back(Dimension{std::move(name), length});
  return dims_.size() - 1;
}

std::size_t Metadata::addVariable(std::string name, DataType type,
                                  const std::vector<std::string>& dimNames) {
  Variable v;
  v.name = std::move(name);
  v.type = type;
  for (const auto& dn : dimNames) {
    bool found = false;
    for (std::size_t i = 0; i < dims_.size(); ++i) {
      if (dims_[i].name == dn) {
        v.dimIndices.push_back(i);
        found = true;
        break;
      }
    }
    if (!found) {
      throw std::invalid_argument("Metadata: unknown dimension " + dn);
    }
  }
  if (v.dimIndices.size() > nd::kMaxRank) {
    throw std::length_error("Metadata: variable rank exceeds kMaxRank");
  }
  vars_.push_back(std::move(v));
  return vars_.size() - 1;
}

void Metadata::setAttribute(const std::string& key, std::string value) {
  for (auto& [k, v] : attrs_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  attrs_.emplace_back(key, std::move(value));
}

std::string Metadata::attribute(const std::string& key) const {
  for (const auto& [k, v] : attrs_) {
    if (k == key) return v;
  }
  return {};
}

std::size_t Metadata::variableIndex(const std::string& name) const {
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    if (vars_[i].name == name) return i;
  }
  throw std::invalid_argument("Metadata: unknown variable " + name);
}

nd::Coord Metadata::variableShape(std::size_t varIdx) const {
  const Variable& v = vars_.at(varIdx);
  nd::Coord shape = nd::Coord::zeros(v.dimIndices.size());
  for (std::size_t d = 0; d < v.dimIndices.size(); ++d) {
    shape[d] = dims_.at(v.dimIndices[d]).length;
  }
  return shape;
}

std::uint64_t Metadata::variableByteSize(std::size_t varIdx) const {
  return static_cast<std::uint64_t>(variableElementCount(varIdx)) *
         dataTypeSize(vars_.at(varIdx).type);
}

std::string Metadata::toText() const {
  std::ostringstream os;
  os << "dimensions:\n";
  for (const auto& d : dims_) {
    os << "  " << d.name << " = " << d.length << ";\n";
  }
  os << "variables:\n";
  for (const auto& v : vars_) {
    os << "  " << dataTypeName(v.type) << " " << v.name << "(";
    for (std::size_t i = 0; i < v.dimIndices.size(); ++i) {
      if (i != 0) os << ", ";
      os << dims_.at(v.dimIndices[i]).name;
    }
    os << ");\n";
  }
  return os.str();
}

namespace {

constexpr auto kMaxIndex =
    static_cast<std::uint64_t>(std::numeric_limits<nd::Index>::max());

void putU64(std::vector<std::byte>& out, std::uint64_t x) {
  for (int b = 0; b < 8; ++b) {
    out.push_back(static_cast<std::byte>((x >> (b * 8)) & 0xff));
  }
}

void putString(std::vector<std::byte>& out, const std::string& s) {
  putU64(out, s.size());
  for (char c : s) out.push_back(static_cast<std::byte>(c));
}

class ByteCursor {
 public:
  explicit ByteCursor(std::span<const std::byte> bytes) : bytes_(bytes) {}

  std::uint64_t getU64() {
    if (pos_ + 8 > bytes_.size()) {
      throw std::out_of_range("Metadata::deserialize: truncated input");
    }
    std::uint64_t x = 0;
    for (int b = 0; b < 8; ++b) {
      x |= static_cast<std::uint64_t>(bytes_[pos_ + static_cast<std::size_t>(b)])
           << (b * 8);
    }
    pos_ += 8;
    return x;
  }

  std::string getString() {
    std::uint64_t n = getU64();
    if (n > bytes_.size() - pos_) {
      throw std::out_of_range("Metadata::deserialize: truncated string");
    }
    std::string s(n, '\0');
    std::memcpy(s.data(), bytes_.data() + pos_, n);
    pos_ += n;
    return s;
  }

 private:
  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

std::vector<std::byte> Metadata::serialize() const {
  std::vector<std::byte> out;
  putU64(out, dims_.size());
  for (const auto& d : dims_) {
    putString(out, d.name);
    putU64(out, static_cast<std::uint64_t>(d.length));
  }
  putU64(out, vars_.size());
  for (const auto& v : vars_) {
    putString(out, v.name);
    putU64(out, static_cast<std::uint64_t>(v.type));
    putU64(out, v.dimIndices.size());
    for (std::size_t di : v.dimIndices) putU64(out, di);
  }
  putU64(out, attrs_.size());
  for (const auto& [k, v] : attrs_) {
    putString(out, k);
    putString(out, v);
  }
  return out;
}

Metadata Metadata::deserialize(std::span<const std::byte> bytes) {
  ByteCursor cur(bytes);
  Metadata m;
  std::uint64_t nDims = cur.getU64();
  for (std::uint64_t i = 0; i < nDims; ++i) {
    std::string name = cur.getString();
    auto length = static_cast<nd::Index>(cur.getU64());
    m.addDimension(std::move(name), length);
  }
  std::uint64_t nVars = cur.getU64();
  for (std::uint64_t i = 0; i < nVars; ++i) {
    Variable v;
    v.name = cur.getString();
    // The checks addVariable makes, plus one it need not: a decoded
    // shape's byte size must fit Index, or Coord::volume() overflows.
    const std::uint64_t type = cur.getU64();
    if (type > static_cast<std::uint64_t>(DataType::kFloat64)) {
      throw std::runtime_error("Metadata::deserialize: bad data type");
    }
    v.type = static_cast<DataType>(type);
    std::uint64_t nvd = cur.getU64();
    if (nvd > nd::kMaxRank) {
      throw std::length_error("Metadata::deserialize: rank exceeds kMaxRank");
    }
    std::uint64_t varBytes = dataTypeSize(v.type);
    for (std::uint64_t d = 0; d < nvd; ++d) {
      std::size_t di = cur.getU64();
      if (di >= m.dims_.size()) {
        throw std::out_of_range("Metadata::deserialize: bad dim index");
      }
      const auto length = static_cast<std::uint64_t>(m.dims_[di].length);
      if (varBytes > kMaxIndex / length) {
        throw std::length_error("Metadata::deserialize: variable too large");
      }
      varBytes *= length;
      v.dimIndices.push_back(di);
    }
    m.vars_.push_back(std::move(v));
  }
  std::uint64_t nAttrs = cur.getU64();
  for (std::uint64_t i = 0; i < nAttrs; ++i) {
    std::string k = cur.getString();
    std::string v = cur.getString();
    m.attrs_.emplace_back(std::move(k), std::move(v));
  }
  return m;
}

}  // namespace sidr::sci
