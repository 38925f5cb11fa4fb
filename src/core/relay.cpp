#include "core/relay.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace vitis::core {

namespace {

// Copy `count` items into `out`. When it must grow, it grows to a
// sixteenth more than the need: a table whose size wanders above its
// previous high (RVR's trees) then reallocates rarely instead of at every
// new high, and no capacity exceeds its table's largest size by more than
// a sixteenth.
template <typename T>
void assign_with_headroom(std::vector<T>& out, const T* first,
                          std::size_t count) {
  if (count > out.capacity()) out.reserve(count + count / 16);
  out.assign(first, first + count);
}

}  // namespace

std::size_t RelayTable::lower_bound(ids::TopicIndex topic) const {
  const auto it = std::lower_bound(
      segments_.begin(), segments_.end(), topic,
      [](const Segment& s, ids::TopicIndex t) { return s.topic < t; });
  return static_cast<std::size_t>(it - segments_.begin());
}

void RelayTable::add_link(ids::TopicIndex topic, ids::NodeIndex peer) {
  std::size_t pos = lower_bound(topic);
  if (pos == segments_.size() || segments_[pos].topic != topic) {
    const std::uint32_t begin =
        pos == 0 ? 0 : segments_[pos - 1].begin + segments_[pos - 1].count;
    segments_.insert(segments_.begin() + static_cast<std::ptrdiff_t>(pos),
                     Segment{topic, begin, 0});
  }
  Segment& segment = segments_[pos];
  for (std::uint32_t i = 0; i < segment.count; ++i) {
    if (links_[segment.begin + i].peer == peer) {
      links_[segment.begin + i].age = 0;
      return;
    }
  }
  // Append at the segment's end; later segments shift right by one.
  links_.insert(
      links_.begin() + static_cast<std::ptrdiff_t>(segment.begin) +
          static_cast<std::ptrdiff_t>(segment.count),
      Link{peer, 0});
  ++segment.count;
  for (std::size_t i = pos + 1; i < segments_.size(); ++i) {
    ++segments_[i].begin;
  }
}

std::span<const RelayTable::Link> RelayTable::links(
    ids::TopicIndex topic) const {
  const std::size_t pos = lower_bound(topic);
  if (pos == segments_.size() || segments_[pos].topic != topic) return {};
  return {links_.data() + segments_[pos].begin, segments_[pos].count};
}

bool RelayTable::is_relay_for(ids::TopicIndex topic) const {
  const std::size_t pos = lower_bound(topic);
  return pos < segments_.size() && segments_[pos].topic == topic;
}

void RelayTable::age_and_expire(std::uint32_t ttl) {
  std::uint32_t out = 0;
  for (auto& segment : segments_) {
    const std::uint32_t begin = segment.begin;
    segment.begin = out;
    std::uint32_t kept = 0;
    for (std::uint32_t i = 0; i < segment.count; ++i) {
      Link link = links_[begin + i];
      ++link.age;
      if (link.age <= ttl) links_[out + kept++] = link;
    }
    segment.count = kept;
    out += kept;
  }
  links_.resize(out);
  std::erase_if(segments_, [](const Segment& s) { return s.count == 0; });
}

void RelayTable::rebuild(std::uint32_t ttl, std::span<const Install> installs,
                         Scratch& scratch) {
  // Without installs nothing grows, so the in-place pass suffices.
  if (installs.empty()) {
    age_and_expire(ttl);
    return;
  }
  // Size the scratch for the worst case (every link survives, every
  // install adds a link and a segment) so the merge writes unchecked.
  const std::size_t max_links = links_.size() + installs.size();
  const std::size_t max_segments = segments_.size() + installs.size();
  if (scratch.links_.size() < max_links) scratch.links_.resize(max_links);
  if (scratch.segments_.size() < max_segments) {
    scratch.segments_.resize(max_segments);
  }
  // Raw pointers and local cursors: the link stores could alias any
  // counter the compiler would otherwise have to keep in memory.
  const Link* const held = links_.data();
  Link* const out = scratch.links_.data();
  Segment* const out_segment = scratch.segments_.data();
  std::uint32_t links = 0;
  std::size_t segments = 0;
  // age_and_expire on one segment: the survivors keep their order, one
  // round older (each link is written, and kept by advancing the cursor).
  const auto age = [ttl, held, out](const Segment& segment,
                                    std::uint32_t cursor) {
    for (std::uint32_t i = 0; i < segment.count; ++i) {
      Link link = held[segment.begin + i];
      ++link.age;
      out[cursor] = link;
      cursor += link.age <= ttl ? 1 : 0;
    }
    return cursor;
  };
  // A segment whose links all expired is dropped.
  const auto age_alone = [&](const Segment& segment) {
    const std::uint32_t begin = links;
    links = age(segment, links);
    if (links != begin) {
      out_segment[segments++] = Segment{segment.topic, begin, links - begin};
    }
  };

  const Segment* segment = segments_.data();
  const Segment* const segment_end = segment + segments_.size();
  const Install* install = installs.data();
  const Install* const install_end = install + installs.size();
  while (install != install_end) {
    const ids::TopicIndex topic = install->topic;
    // Segments before the next installed topic only age.
    for (; segment != segment_end && segment->topic < topic; ++segment) {
      age_alone(*segment);
    }
    const std::uint32_t begin = links;
    if (segment != segment_end && segment->topic == topic) {
      links = age(*segment, links);
      ++segment;
    }
    // add_link per install: refresh a link the segment holds (a survivor
    // or an earlier install of this round), else append one.
    for (; install != install_end && install->topic == topic; ++install) {
      const ids::NodeIndex peer = install->peer;
      Link* const end = out + links;
      Link* const found = std::find_if(
          out + begin, end,
          [peer](const Link& link) { return link.peer == peer; });
      if (found != end) {
        found->age = 0;
      } else {
        *end = Link{peer, 0};
        ++links;
      }
    }
    VITIS_DCHECK(segments == 0 || out_segment[segments - 1].topic < topic);
    out_segment[segments++] = Segment{topic, begin, links - begin};
  }
  for (; segment != segment_end; ++segment) age_alone(*segment);
  assign_with_headroom(segments_, out_segment, segments);
  assign_with_headroom(links_, out, links);
}

}  // namespace vitis::core
