#include "selfheal/wfspec/object_catalog.hpp"

#include <stdexcept>

namespace selfheal::wfspec {

ObjectId ObjectCatalog::intern(const std::string& name) {
  const auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  const auto id = static_cast<ObjectId>(names_.size());
  names_.push_back(name);
  index_.emplace(name, id);
  return id;
}

void ObjectCatalog::truncate(std::size_t size) {
  for (std::size_t i = size; i < names_.size(); ++i) index_.erase(names_[i]);
  if (size < names_.size()) names_.resize(size);
}

std::optional<ObjectId> ObjectCatalog::find(const std::string& name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

const std::string& ObjectCatalog::name(ObjectId id) const {
  if (!valid(id)) throw std::out_of_range("ObjectCatalog: invalid object id");
  return names_[static_cast<std::size_t>(id)];
}

}  // namespace selfheal::wfspec
