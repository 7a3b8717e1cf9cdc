#include "value/value.h"

#include <cmath>

#include "util/logging.h"
#include "util/string_util.h"

namespace dbps {

const char* ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNil:
      return "nil";
    case ValueType::kInt:
      return "int";
    case ValueType::kFloat:
      return "float";
    case ValueType::kSymbol:
      return "symbol";
    case ValueType::kString:
      return "string";
  }
  return "?";
}

int64_t Value::AsInt() const {
  DBPS_CHECK(is_int()) << "Value is " << ValueTypeToString(type_);
  return int_;
}

double Value::AsFloat() const {
  DBPS_CHECK(is_float()) << "Value is " << ValueTypeToString(type_);
  return float_;
}

SymbolId Value::AsSymbol() const {
  if (is_nil()) return kNilSymbol;
  DBPS_CHECK(is_symbol()) << "Value is " << ValueTypeToString(type_);
  return symbol_;
}

const std::string& Value::AsString() const {
  DBPS_CHECK(is_string()) << "Value is " << ValueTypeToString(type_);
  return *string_;
}

double Value::AsNumber() const {
  if (is_int()) return static_cast<double>(int_);
  DBPS_CHECK(is_float()) << "Value is " << ValueTypeToString(type_);
  return float_;
}

bool Value::operator==(const Value& other) const {
  // Cross-type numeric equality (3 == 3.0), everything else type-strict.
  if (is_number() && other.is_number()) {
    if (is_int() && other.is_int()) return int_ == other.int_;
    return AsNumber() == other.AsNumber();
  }
  if (type_ != other.type_) return false;
  switch (type_) {
    case ValueType::kNil:
      return true;
    case ValueType::kInt:
      return int_ == other.int_;
    case ValueType::kFloat:
      return float_ == other.float_;
    case ValueType::kSymbol:
      return symbol_ == other.symbol_;
    case ValueType::kString:
      return *string_ == *other.string_;
  }
  return false;
}

bool Value::Comparable(const Value& other) const {
  if (is_number() && other.is_number()) return true;
  return is_string() && other.is_string();
}

bool Value::operator<(const Value& other) const {
  DBPS_CHECK(Comparable(other))
      << ValueTypeToString(type_) << " vs " << ValueTypeToString(other.type_);
  if (is_number()) {
    if (is_int() && other.is_int()) return int_ < other.int_;
    return AsNumber() < other.AsNumber();
  }
  return *string_ < *other.string_;
}

bool Value::operator<=(const Value& other) const {
  return *this < other || *this == other;
}

size_t Value::Hash() const {
  size_t seed = static_cast<size_t>(type_);
  switch (type_) {
    case ValueType::kNil:
      break;
    case ValueType::kInt:
    case ValueType::kFloat: {
      // Every number hashes by its double value, so each pair operator==
      // calls equal hashes alike: 3 and 3.0, and also an int past 2^53
      // and the float it rounds to. -0.0 hashes as 0.0, and every NaN
      // alike (ValueKeyEq treats NaNs as one key).
      seed = static_cast<size_t>(ValueType::kInt);
      const double d = AsNumber();
      if (std::isnan(d)) {
        HashCombine(&seed, uint64_t{0x7ff8000000000000ULL});
      } else {
        HashCombine(&seed, d == 0.0 ? 0.0 : d);
      }
      break;
    }
    case ValueType::kSymbol:
      HashCombine(&seed, symbol_);
      break;
    case ValueType::kString:
      HashCombine(&seed, *string_);
      break;
  }
  return seed;
}

std::string Value::ToString() const {
  switch (type_) {
    case ValueType::kNil:
      return "nil";
    case ValueType::kInt:
      return std::to_string(int_);
    case ValueType::kFloat:
      return StringPrintf("%g", float_);
    case ValueType::kSymbol:
      return SymName(symbol_);
    case ValueType::kString:
      return "\"" + *string_ + "\"";
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

}  // namespace dbps
