#include "datalog/signature.h"

#include "common/strings.h"

namespace sqo::datalog {

std::string_view RelationKindName(RelationKind kind) {
  switch (kind) {
    case RelationKind::kClass:
      return "class";
    case RelationKind::kStructure:
      return "structure";
    case RelationKind::kRelationship:
      return "relationship";
    case RelationKind::kMethod:
      return "method";
    case RelationKind::kAsr:
      return "asr";
  }
  return "unknown";
}

std::optional<size_t> RelationSignature::AttributeIndex(
    std::string_view attr) const {
  for (size_t i = 0; i < attributes.size(); ++i) {
    if (attributes[i] == attr) return i;
  }
  return std::nullopt;
}

std::string RelationSignature::ToString() const {
  return name + "(" + StrJoin(attributes, ", ") + ")";
}

RelationCatalog::RelationCatalog(const RelationCatalog& other)
    : relations_(other.relations_), by_id_(other.by_id_.size()) {
  for (const auto& [name, sig] : relations_) by_id_[sig.id] = &sig;
}

RelationCatalog& RelationCatalog::operator=(const RelationCatalog& other) {
  if (this != &other) *this = RelationCatalog(other);
  return *this;
}

sqo::Status RelationCatalog::Add(RelationSignature signature) {
  signature.id = static_cast<RelationId>(by_id_.size());
  auto [it, inserted] = relations_.emplace(signature.name, std::move(signature));
  if (!inserted) {
    return sqo::InvalidArgumentError("duplicate relation name: " + it->first);
  }
  by_id_.push_back(&it->second);
  return sqo::Status::Ok();
}

const RelationSignature* RelationCatalog::Find(std::string_view name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : &it->second;
}

sqo::Result<const RelationSignature*> RelationCatalog::Get(
    std::string_view name) const {
  const RelationSignature* sig = Find(name);
  if (sig == nullptr) {
    return sqo::NotFoundError("unknown relation: " + std::string(name));
  }
  return sig;
}

}  // namespace sqo::datalog
