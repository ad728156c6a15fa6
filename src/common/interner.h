#ifndef SQO_COMMON_INTERNER_H_
#define SQO_COMMON_INTERNER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_set>

namespace sqo {

/// Backing record of one interned string. Allocated once by the global
/// interner and never moved or freed, so `Symbol` can hold a raw pointer.
struct SymbolData {
  std::string text;
  size_t hash;  // std::hash<std::string>(text), precomputed
  uint32_t id;  // dense, in interning order (0 = the empty string)
};

/// An interned string: a pointer into the process-wide intern table.
///
/// Equality is pointer equality (one machine word compare) and `hash()` is
/// precomputed, which is the whole point — DATALOG predicate and variable
/// names are compared millions of times per optimization, and after
/// interning those comparisons never touch the characters. `hash()` equals
/// `std::hash<std::string>()(str())` so containers keyed on symbol hashes
/// agree with legacy string-keyed hashes.
///
/// Ordering (`operator<`) intentionally stays *lexicographic* on the
/// underlying text: canonicalization and every `std::set`/`std::map` keyed
/// on names must stay deterministic across runs, which pointer or id order
/// would not be.
class Symbol {
 public:
  /// The interned empty string.
  Symbol();

  const std::string& str() const { return data_->text; }
  std::string_view view() const { return data_->text; }
  size_t hash() const { return data_->hash; }
  uint32_t id() const { return data_->id; }
  bool empty() const { return data_->text.empty(); }

  bool operator==(const Symbol& o) const { return data_ == o.data_; }
  bool operator!=(const Symbol& o) const { return data_ != o.data_; }
  bool operator<(const Symbol& o) const {
    return data_ != o.data_ && data_->text < o.data_->text;
  }

 private:
  friend Symbol Intern(std::string_view s);
  explicit Symbol(const SymbolData* data) : data_(data) {}

  const SymbolData* data_;
};

struct SymbolHash {
  size_t operator()(const Symbol& s) const { return s.hash(); }
};

/// Unordered symbol set — the matcher's bindable-variable representation.
using SymbolSet = std::unordered_set<Symbol, SymbolHash>;

/// Interns `s` in the process-wide table (thread-safe; a hit takes the
/// mutex once and does one hash-map probe). Returned symbols are valid for
/// the life of the process.
Symbol Intern(std::string_view s);

/// Number of distinct strings interned so far. Exported to observability
/// as the `interner.size` gauge (a point-in-time reading of a table that
/// only grows) by layers that link obs.
size_t InternerSize();

}  // namespace sqo

#endif  // SQO_COMMON_INTERNER_H_
