#include "gossip/view.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace vitis::gossip {

PartialView::PartialView(std::size_t capacity)
    : capacity_(capacity), owned_(std::make_unique<Descriptor[]>(capacity)) {
  VITIS_CHECK(capacity > 0);
  data_ = owned_.get();
}

PartialView::PartialView(Descriptor* slab, std::size_t capacity)
    : capacity_(capacity), data_(slab) {
  VITIS_CHECK(capacity > 0);
  VITIS_CHECK(slab != nullptr);
}

void PartialView::insert(const Descriptor& descriptor) {
  VITIS_DCHECK(descriptor.node != ids::kInvalidNode);
  for (std::size_t i = 0; i < size_; ++i) {
    if (data_[i].node == descriptor.node) {
      if (descriptor.age < data_[i].age) data_[i] = descriptor;
      return;
    }
  }
  if (size_ < capacity_) {
    data_[size_++] = descriptor;
    return;
  }
  auto* oldest = std::max_element(
      data_, data_ + size_,
      [](const Descriptor& a, const Descriptor& b) { return a.age < b.age; });
  if (descriptor.age < oldest->age) *oldest = descriptor;
}

void PartialView::merge(std::span<const Descriptor> batch) {
  for (const auto& d : batch) insert(d);
}

bool PartialView::remove(ids::NodeIndex node) {
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

bool PartialView::contains(ids::NodeIndex node) const {
  return std::any_of(data_, data_ + size_,
                     [node](const Descriptor& d) { return d.node == node; });
}

void PartialView::increment_ages() {
  for (std::size_t i = 0; i < size_; ++i) ++data_[i].age;
}

}  // namespace vitis::gossip
