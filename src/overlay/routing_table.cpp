#include "overlay/routing_table.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace vitis::overlay {

const char* to_string(LinkKind kind) {
  switch (kind) {
    case LinkKind::kPredecessor:
      return "predecessor";
    case LinkKind::kSuccessor:
      return "successor";
    case LinkKind::kSmallWorld:
      return "small-world";
    case LinkKind::kFriend:
      return "friend";
    case LinkKind::kCoverage:
      return "coverage";
  }
  return "?";
}

RoutingTable::RoutingTable(std::size_t capacity)
    : capacity_(capacity),
      owned_(std::make_unique<RoutingEntry[]>(capacity)) {
  VITIS_CHECK(capacity > 0);
  data_ = owned_.get();
}

RoutingTable::RoutingTable(RoutingEntry* slab, std::size_t capacity)
    : capacity_(capacity), data_(slab) {
  VITIS_CHECK(capacity > 0);
  VITIS_CHECK(slab != nullptr);
}

bool RoutingTable::contains(ids::NodeIndex node) const {
  return std::any_of(data_, data_ + size_,
                     [node](const RoutingEntry& e) { return e.node == node; });
}

std::optional<RoutingEntry> RoutingTable::find(ids::NodeIndex node) const {
  for (std::size_t i = 0; i < size_; ++i) {
    if (data_[i].node == node) return data_[i];
  }
  return std::nullopt;
}

void RoutingTable::assign(std::span<const RoutingEntry> entries) {
  VITIS_CHECK(entries.size() <= capacity_);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    for (std::size_t j = i + 1; j < entries.size(); ++j) {
      VITIS_CHECK(entries[i].node != entries[j].node);
    }
  }
  std::copy(entries.begin(), entries.end(), data_);
  size_ = entries.size();
}

bool RoutingTable::add(const RoutingEntry& entry) {
  if (size_ >= capacity_ || contains(entry.node)) return false;
  data_[size_++] = entry;
  return true;
}

bool RoutingTable::remove(ids::NodeIndex node) {
  for (std::size_t i = 0; i < size_; ++i) {
    if (data_[i].node == node) {
      // Preserve insertion order, like vector::erase did historically.
      std::move(data_ + i + 1, data_ + size_, data_ + i);
      --size_;
      return true;
    }
  }
  return false;
}

void RoutingTable::increment_ages() {
  for (std::size_t i = 0; i < size_; ++i) ++data_[i].age;
}

void RoutingTable::mark_fresh(ids::NodeIndex node) {
  for (std::size_t i = 0; i < size_; ++i) {
    if (data_[i].node == node) {
      data_[i].age = 0;
      return;
    }
  }
}

void RoutingTable::drop_older_than(std::uint32_t max_age) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < size_; ++i) {
    if (data_[i].age <= max_age) {
      if (kept != i) data_[kept] = data_[i];
      ++kept;
    }
  }
  size_ = kept;
}

std::optional<RoutingEntry> RoutingTable::first_of(LinkKind kind) const {
  for (std::size_t i = 0; i < size_; ++i) {
    if (data_[i].kind == kind) return data_[i];
  }
  return std::nullopt;
}

std::size_t RoutingTable::count_of(LinkKind kind) const {
  return static_cast<std::size_t>(std::count_if(
      data_, data_ + size_,
      [kind](const RoutingEntry& e) { return e.kind == kind; }));
}

}  // namespace vitis::overlay
