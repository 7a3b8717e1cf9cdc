// Value: the dynamic type stored in WME attributes.
//
// OPS5 working memories hold symbols and numbers; we add strings for the
// database flavour. `nil` is both the "unset attribute" value and the
// symbol nil, matching OPS5 semantics.

#ifndef DBPS_VALUE_VALUE_H_
#define DBPS_VALUE_VALUE_H_

#include <cmath>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>

#include "util/hash.h"
#include "value/symbol_table.h"

namespace dbps {

enum class ValueType : uint8_t { kNil = 0, kInt, kFloat, kSymbol, kString };

const char* ValueTypeToString(ValueType type);

/// \brief Small tagged union: nil | int64 | double | symbol | string.
///
/// Comparison semantics follow OPS5: numbers compare numerically across
/// int/float; symbols and strings compare by content; values of
/// incomparable types are unequal and not ordered.
class Value {
 public:
  /// nil.
  Value() : type_(ValueType::kNil), int_(0) {}

  static Value Nil() { return Value(); }
  static Value Int(int64_t v) {
    Value out;
    out.type_ = ValueType::kInt;
    out.int_ = v;
    return out;
  }
  static Value Float(double v) {
    Value out;
    out.type_ = ValueType::kFloat;
    out.float_ = v;
    return out;
  }
  static Value Symbol(SymbolId id) {
    if (id == kNilSymbol) return Nil();
    Value out;
    out.type_ = ValueType::kSymbol;
    out.symbol_ = id;
    return out;
  }
  /// Interns `name` in the global symbol table.
  static Value Symbol(std::string_view name) { return Symbol(Sym(name)); }
  static Value String(std::string s) {
    Value out;
    out.type_ = ValueType::kString;
    out.string_ = std::make_shared<std::string>(std::move(s));
    return out;
  }

  ValueType type() const { return type_; }
  bool is_nil() const { return type_ == ValueType::kNil; }
  bool is_int() const { return type_ == ValueType::kInt; }
  bool is_float() const { return type_ == ValueType::kFloat; }
  bool is_symbol() const { return type_ == ValueType::kSymbol; }
  bool is_string() const { return type_ == ValueType::kString; }
  bool is_number() const { return is_int() || is_float(); }

  /// Accessors die on type mismatch (use type() first).
  int64_t AsInt() const;
  double AsFloat() const;
  SymbolId AsSymbol() const;
  const std::string& AsString() const;

  /// Numeric value as double; valid for int and float.
  double AsNumber() const;

  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// True iff both are numbers or both strings/symbols-with-order; numbers
  /// order numerically, strings lexicographically. Symbols are unordered.
  bool Comparable(const Value& other) const;

  /// Requires Comparable(other).
  bool operator<(const Value& other) const;
  bool operator<=(const Value& other) const;
  bool operator>(const Value& other) const { return other < *this; }
  bool operator>=(const Value& other) const { return other <= *this; }

  size_t Hash() const;

  /// Human-readable form; symbols print their spelling, strings quoted.
  std::string ToString() const;

 private:
  ValueType type_;
  union {
    int64_t int_;
    double float_;
    SymbolId symbol_;
  };
  std::shared_ptr<std::string> string_;  // set iff kString
};

std::ostream& operator<<(std::ostream& os, const Value& v);

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

/// Key equality for hash indexes keyed by Value, consistent with
/// ValueHash: numbers are equal iff their double values are, and every
/// NaN equals every other NaN. Unlike operator==, this is an equivalence
/// relation, which unordered containers require: operator== calls an int
/// past 2^53 equal to the float it rounds to but not to the int next to
/// it, and never finds a NaN key again (so one could not be erased). A
/// bucket under this equality is a superset of the entries operator==
/// calls equal to the key; callers filter it with operator==.
struct ValueKeyEq {
  bool operator()(const Value& a, const Value& b) const {
    if (a.is_number() && b.is_number()) {
      const double x = a.AsNumber();
      const double y = b.AsNumber();
      return x == y || (std::isnan(x) && std::isnan(y));
    }
    return a == b;
  }
};

}  // namespace dbps

#endif  // DBPS_VALUE_VALUE_H_
