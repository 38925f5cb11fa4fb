// Bounded partial view of the network, the state of the peer sampling
// service at one node. Holds at most `capacity` descriptors, unique by node,
// always keeping the freshest copy of a duplicate.
//
// Like overlay::RoutingTable, storage is dual-mode: a view either owns its
// fixed-capacity descriptor buffer or is a handle into a slab owned by the
// sampling service (one contiguous N×view_size Descriptor allocation for
// the whole network). Semantics are identical in both modes.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "gossip/descriptor.hpp"

namespace vitis::gossip {

class PartialView {
 public:
  /// Owning mode: allocates a private fixed-capacity descriptor buffer.
  explicit PartialView(std::size_t capacity);

  /// Slab mode: `slab` points at `capacity` descriptors owned by the caller;
  /// the slab must outlive the view and never be reallocated while handles
  /// exist.
  PartialView(Descriptor* slab, std::size_t capacity);

  PartialView(PartialView&&) noexcept = default;
  PartialView& operator=(PartialView&&) noexcept = default;
  PartialView(const PartialView&) = delete;
  PartialView& operator=(const PartialView&) = delete;

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::span<const Descriptor> entries() const {
    return {data_, size_};
  }

  void clear() { size_ = 0; }

  /// Insert or refresh (keep the younger age); evicts the oldest entry when
  /// at capacity and the newcomer is younger than it.
  void insert(const Descriptor& descriptor);

  /// Merge a batch of descriptors (e.g. a peer's view) via `insert`.
  void merge(std::span<const Descriptor> batch);

  /// Remove the entry for `node` if present; returns true when removed.
  bool remove(ids::NodeIndex node);

  [[nodiscard]] bool contains(ids::NodeIndex node) const;

  /// Age every entry by one round.
  void increment_ages();

 private:
  std::size_t capacity_;
  std::size_t size_ = 0;
  Descriptor* data_ = nullptr;           // owned_ buffer or caller's slab
  std::unique_ptr<Descriptor[]> owned_;  // null in slab mode
};

}  // namespace vitis::gossip
