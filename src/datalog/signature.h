#ifndef SQO_DATALOG_SIGNATURE_H_
#define SQO_DATALOG_SIGNATURE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"

namespace sqo::datalog {

/// What object-model construct a DATALOG relation was generated from
/// (paper §4.2 RELATIONS rules 1–4, plus access support relations of §5.4).
enum class RelationKind {
  kClass,         // c(OID, A1..An, OID_S1..OID_Sm)
  kStructure,     // s(OID, A1..An, ...)
  kRelationship,  // r(OID_C1, OID_C2)
  kMethod,        // m(OID_C, A1..An, V)
  kAsr,           // asr(OID_first, OID_last) — materialized path view
};

std::string_view RelationKindName(RelationKind kind);

/// Dense id of a catalog relation, assigned by `RelationCatalog::Add` in
/// registration order. Ids are append-only: a relation registered later
/// (an ASR) never renumbers an earlier one, so tables indexed by id stay
/// valid as the catalog grows.
using RelationId = uint32_t;
inline constexpr RelationId kNoRelation = ~RelationId{0};

/// The positional signature of one DATALOG relation: its name, provenance
/// kind, and ordered attribute names. For class/structure relations
/// `attributes[0]` is "oid"; for relationships the two endpoint roles; for
/// methods "oid", the user-argument names, then "value".
struct RelationSignature {
  std::string name;
  RelationKind kind = RelationKind::kClass;
  /// Set by `RelationCatalog::Add`.
  RelationId id = kNoRelation;
  std::vector<std::string> attributes;

  /// The original ODL spelling of the construct ("Student", "Takes",
  /// "taxes_withheld") — relation names are lower-cased, but Step 4 must
  /// render OQL edits with the ODL names.
  std::string display_name;

  /// For kClass/kStructure: the ODL type name this relation represents.
  /// For kRelationship: the source class name. Empty otherwise.
  std::string owner;

  /// For kRelationship: the target class relation name (for OID
  /// identification ICs and query translation range resolution).
  std::string target;

  /// For kRelationship / kAsr: whether the relation is functional left to
  /// right (each src has at most one dst — a to-one relationship) and right
  /// to left (one-to-one, or a to-many whose inverse is to-one). The
  /// optimizer's join introduction/elimination uses these to preserve
  /// multiplicities. Meaningless for other kinds (class, structure and
  /// method relations are always functional in their OID/receiver).
  bool functional_src_to_dst = false;
  bool functional_dst_to_src = false;

  size_t arity() const { return attributes.size(); }

  /// Position of attribute `attr`, or nullopt.
  std::optional<size_t> AttributeIndex(std::string_view attr) const;

  /// `faculty(oid, name, salary, age)`.
  std::string ToString() const;
};

/// Name → signature map for every relation produced by schema translation.
/// Owned by the translated schema; consulted by the IC parser (named-argument
/// expansion), the query translator and the optimizer.
class RelationCatalog {
 public:
  RelationCatalog() = default;
  RelationCatalog(const RelationCatalog& other);
  RelationCatalog& operator=(const RelationCatalog& other);
  RelationCatalog(RelationCatalog&&) = default;
  RelationCatalog& operator=(RelationCatalog&&) = default;

  /// Registers a signature under the next id. Fails on duplicate names.
  sqo::Status Add(RelationSignature signature);

  /// Looks up by relation name; nullptr if absent.
  const RelationSignature* Find(std::string_view name) const;

  /// The signature with id `id`; `id` must be below `size()`.
  const RelationSignature& ById(RelationId id) const { return *by_id_[id]; }

  /// Lookup that errors with kNotFound instead of returning nullptr.
  sqo::Result<const RelationSignature*> Get(std::string_view name) const;

  const std::map<std::string, RelationSignature, std::less<>>& relations() const {
    return relations_;
  }

  size_t size() const { return relations_.size(); }

 private:
  std::map<std::string, RelationSignature, std::less<>> relations_;
  /// Points into `relations_` (map nodes never move), indexed by id.
  std::vector<const RelationSignature*> by_id_;
};

}  // namespace sqo::datalog

#endif  // SQO_DATALOG_SIGNATURE_H_
