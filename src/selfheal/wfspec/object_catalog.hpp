// Interning catalog for workflow data objects.
//
// Data objects are shared across workflows processed by the same
// workflow-management system (that sharing is how damage spreads from
// one workflow to another in the paper's Figure 1, e.g. t1 -> t8).
// All WorkflowSpecs executing together must therefore intern their
// object names in one shared catalog.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace selfheal::wfspec {

using ObjectId = std::int32_t;
inline constexpr ObjectId kInvalidObject = -1;

class ObjectCatalog {
 public:
  /// Returns the id for `name`, creating it on first use.
  ObjectId intern(const std::string& name);

  /// Forgets every name interned after the first `size`: rolls back
  /// what a rejected parse interned. No-op when size >= size().
  void truncate(std::size_t size);

  /// Id for an existing name; nullopt if never interned.
  [[nodiscard]] std::optional<ObjectId> find(const std::string& name) const;

  [[nodiscard]] const std::string& name(ObjectId id) const;
  [[nodiscard]] std::size_t size() const noexcept { return names_.size(); }
  [[nodiscard]] bool valid(ObjectId id) const noexcept {
    return id >= 0 && static_cast<std::size_t>(id) < names_.size();
  }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, ObjectId> index_;
};

}  // namespace selfheal::wfspec
