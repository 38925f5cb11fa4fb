// Bounded routing tables (§III: "Every Vitis node maintains a bounded-size
// routing table (RT) … entries are selected either as small-world
// connections or similarity connections").
//
// Entries are tagged with the link kind so selection policies, dissemination
// and the analysis toolkit can distinguish structural links (ring + small
// world) from similarity links (friends) and OPT's coverage links.
//
// Storage is dual-mode: a table either owns its fixed-capacity entry buffer
// (standalone construction, used by tests and small tools) or is a handle
// into an externally owned slab (core::OverlaySystem allocates one
// contiguous N×capacity RoutingEntry slab and hands each node a slice),
// so a million node tables cost one allocation instead of a million. The
// API and semantics are identical in both modes; capacity is fixed for the
// table's lifetime either way.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "gossip/descriptor.hpp"
#include "ids/id.hpp"

namespace vitis::overlay {

enum class LinkKind : std::uint8_t {
  kPredecessor,  // ring link, counterclockwise
  kSuccessor,    // ring link, clockwise
  kSmallWorld,   // Symphony-style long link
  kFriend,       // similarity link (Vitis preference function)
  kCoverage,     // OPT/SpiderCast per-topic coverage link
};

[[nodiscard]] const char* to_string(LinkKind kind);

/// True for links that define the navigable structure (ring + small world).
[[nodiscard]] constexpr bool is_structural(LinkKind kind) {
  return kind == LinkKind::kPredecessor || kind == LinkKind::kSuccessor ||
         kind == LinkKind::kSmallWorld;
}

struct RoutingEntry {
  ids::NodeIndex node = ids::kInvalidNode;
  ids::RingId id = 0;
  LinkKind kind = LinkKind::kFriend;
  std::uint32_t age = 0;  // profile-exchange rounds since last heartbeat
};

class RoutingTable {
 public:
  /// Owning mode: allocates a private fixed-capacity entry buffer.
  explicit RoutingTable(std::size_t capacity);

  /// Slab mode: `slab` points at `capacity` entries owned by the caller
  /// (e.g. one arena allocation covering every node); the slab must outlive
  /// the table and must never be reallocated while handles exist.
  RoutingTable(RoutingEntry* slab, std::size_t capacity);

  RoutingTable(RoutingTable&&) noexcept = default;
  RoutingTable& operator=(RoutingTable&&) noexcept = default;
  RoutingTable(const RoutingTable&) = delete;
  RoutingTable& operator=(const RoutingTable&) = delete;

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::span<const RoutingEntry> entries() const {
    return {data_, size_};
  }

  void clear() { size_ = 0; }

  [[nodiscard]] bool contains(ids::NodeIndex node) const;
  [[nodiscard]] std::optional<RoutingEntry> find(ids::NodeIndex node) const;

  /// Replace the whole table with a fresh selection (the T-Man way: the
  /// selection function rebuilds the table each round). Capacity enforced;
  /// duplicates by node are rejected. The span overload copies into the
  /// table's retained storage (fixed at construction), so callers can reuse
  /// one scratch selection buffer allocation-free.
  void assign(std::span<const RoutingEntry> entries);
  void assign(std::vector<RoutingEntry> entries) {
    assign(std::span<const RoutingEntry>(entries));
  }

  /// Add one entry if there is room and the node is absent. Returns success.
  bool add(const RoutingEntry& entry);

  bool remove(ids::NodeIndex node);

  /// Heartbeat bookkeeping (Algorithms 6-7): age everything...
  void increment_ages();
  /// ...mark one neighbor fresh on response...
  void mark_fresh(ids::NodeIndex node);
  /// ...and drop stale entries.
  void drop_older_than(std::uint32_t max_age);

  /// First entry of the given kind, if any.
  [[nodiscard]] std::optional<RoutingEntry> first_of(LinkKind kind) const;

  /// Number of entries of the given kind.
  [[nodiscard]] std::size_t count_of(LinkKind kind) const;

 private:
  std::size_t capacity_;
  std::size_t size_ = 0;
  RoutingEntry* data_ = nullptr;          // owned_ buffer or caller's slab
  std::unique_ptr<RoutingEntry[]> owned_;  // null in slab mode
};

}  // namespace vitis::overlay
