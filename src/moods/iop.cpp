#include "moods/iop.hpp"

#include <algorithm>

namespace peertrack::moods {

std::size_t IopStore::RecordArrival(const hash::UInt160& object, Time arrived) {
  auto& list = visits_[object];
  // Arrivals come in time order in practice, but keep the invariant under
  // out-of-order delivery: insert sorted.
  auto position = std::upper_bound(
      list.begin(), list.end(), arrived,
      [](Time t, const Visit& v) { return t < v.arrived; });
  // Idempotence: an arrival at the same timestamp is the same capture
  // (e.g. SetFrom raced ahead and pre-created the visit).
  if (position != list.begin() && std::prev(position)->arrived == arrived) {
    return static_cast<std::size_t>(std::distance(list.begin(), std::prev(position)));
  }
  Visit visit;
  visit.arrived = arrived;
  const auto index = static_cast<std::size_t>(std::distance(list.begin(), position));
  list.insert(position, visit);
  ++total_visits_;
  PublishVisitKey(object, actor_, arrived);
  return index;
}

Visit* IopStore::FindVisit(const hash::UInt160& object, Time arrived) {
  std::vector<Visit>* found = visits_.Find(object);
  if (found == nullptr) return nullptr;
  auto& list = *found;
  auto position = std::lower_bound(
      list.begin(), list.end(), arrived,
      [](const Visit& v, Time t) { return v.arrived < t; });
  if (position == list.end() || position->arrived != arrived) return nullptr;
  return &*position;
}

void IopStore::SetFrom(const hash::UInt160& object, Time arrived,
                       const chord::NodeRef& from, std::optional<Time> from_arrived) {
  Visit* visit = FindVisit(object, arrived);
  if (visit == nullptr) {
    RecordArrival(object, arrived);
    visit = FindVisit(object, arrived);
  }
  // Overwriting a link strands the OLD counterpart (its reciprocal link no
  // longer points back) — its findings change too, so publish it first.
  if (visit->from.has_value() && visit->from->Valid() &&
      visit->from_arrived.has_value()) {
    PublishVisitKey(object, visit->from->actor, *visit->from_arrived);
  }
  visit->from = from;
  visit->from_arrived = from_arrived;
  PublishVisitKey(object, actor_, arrived);
  // The predecessor visit's forward check inspects THIS from-link, so its
  // finding can flip too.
  if (from.Valid() && from_arrived.has_value()) {
    PublishVisitKey(object, from.actor, *from_arrived);
  }
}

void IopStore::SetTo(const hash::UInt160& object, const chord::NodeRef& to,
                     Time to_arrived) {
  std::vector<Visit>* found = visits_.Find(object);
  if (found == nullptr) return;  // M2 for an arrival we never saw.
  auto& list = *found;
  // The departing visit is the latest one that began STRICTLY before the
  // object arrived at its next stop. The strict bound matters when the
  // next stop is this very node (a revisit): the new visit has
  // arrived == to_arrived and must not be chosen, or the chain would gain
  // a self-loop.
  auto position = std::lower_bound(
      list.begin(), list.end(), to_arrived,
      [](const Visit& v, Time t) { return v.arrived < t; });
  if (position == list.begin()) return;
  Visit& visit = *std::prev(position);
  // Overwriting a link strands the OLD counterpart (its reciprocal link no
  // longer points back) — its findings change too, so publish it first.
  if (visit.to.has_value() && visit.to->Valid() && visit.to_arrived.has_value()) {
    PublishVisitKey(object, visit.to->actor, *visit.to_arrived);
  }
  visit.to = to;
  visit.to_arrived = to_arrived;
  // The new to-link is judgeable only once the next hop settles, so gate
  // the monitor's first audit there instead of at this (old) arrival.
  PublishVisitKey(object, actor_, visit.arrived, to_arrived);
  // The successor visit's reverse check inspects THIS to-link.
  if (to.Valid()) PublishVisitKey(object, to.actor, to_arrived);
}

const Visit* IopStore::DepartingVisit(const hash::UInt160& object,
                                      Time to_arrived) const {
  const std::vector<Visit>* found = visits_.Find(object);
  if (found == nullptr) return nullptr;
  const auto& list = *found;
  auto position = std::lower_bound(
      list.begin(), list.end(), to_arrived,
      [](const Visit& v, Time t) { return v.arrived < t; });
  if (position == list.begin()) return nullptr;
  return &*std::prev(position);
}

bool IopStore::Knows(const hash::UInt160& object) const {
  return visits_.Contains(object);
}

const std::vector<Visit>* IopStore::VisitsOf(const hash::UInt160& object) const {
  return visits_.Find(object);
}

const Visit* IopStore::VisitAtOrBefore(const hash::UInt160& object, Time at) const {
  const std::vector<Visit>* found = visits_.Find(object);
  if (found == nullptr) return nullptr;
  const auto& list = *found;
  auto position = std::upper_bound(
      list.begin(), list.end(), at,
      [](Time t, const Visit& v) { return t < v.arrived; });
  if (position == list.begin()) return nullptr;
  return &*std::prev(position);
}

const Visit* IopStore::VisitAt(const hash::UInt160& object, Time arrived) const {
  return const_cast<IopStore*>(this)->FindVisit(object, arrived);
}

std::vector<hash::UInt160> IopStore::InventoryAt(Time at) const {
  std::vector<hash::UInt160> present;
  for (const auto& [object, visits] : visits_) {
    // Latest visit that had begun by `at`.
    const Visit* current = nullptr;
    for (const auto& visit : visits) {
      if (visit.arrived <= at) current = &visit;
    }
    if (current == nullptr) continue;
    // Present unless it departed (to-link with departure implied by the
    // successor's arrival) before `at`.
    const bool departed = current->to.has_value() && current->to->Valid() &&
                          current->to_arrived.value_or(1e300) <= at;
    if (!departed) present.push_back(object);
  }
  return present;
}

bool IopStore::RepointLink(const hash::UInt160& object, Time arrived, bool fix_to,
                           const chord::NodeRef& new_node) {
  Visit* visit = FindVisit(object, arrived);
  if (visit == nullptr) return false;
  if (fix_to) {
    if (!visit->to.has_value() || !visit->to->Valid()) return false;
    if (visit->to_arrived.has_value()) {
      // Old and new counterpart both change findings (see SetTo).
      PublishVisitKey(object, visit->to->actor, *visit->to_arrived);
    }
    visit->to = new_node;
    if (visit->to_arrived.has_value()) {
      PublishVisitKey(object, new_node.actor, *visit->to_arrived);
    }
  } else {
    if (!visit->from.has_value() || !visit->from->Valid()) return false;
    if (visit->from_arrived.has_value()) {
      PublishVisitKey(object, visit->from->actor, *visit->from_arrived);
    }
    visit->from = new_node;
    if (visit->from_arrived.has_value()) {
      PublishVisitKey(object, new_node.actor, *visit->from_arrived);
    }
  }
  PublishVisitKey(object, actor_, arrived);
  return true;
}

void IopStore::RepointNode(sim::ActorId old_actor, const chord::NodeRef& new_node) {
  for (auto& [object, list] : visits_) {
    for (Visit& visit : list) {
      bool touched = false;
      if (visit.from.has_value() && visit.from->actor == old_actor) {
        visit.from = new_node;
        touched = true;
        if (visit.from_arrived.has_value()) {
          PublishVisitKey(object, new_node.actor, *visit.from_arrived);
        }
      }
      if (visit.to.has_value() && visit.to->actor == old_actor) {
        visit.to = new_node;
        touched = true;
        if (visit.to_arrived.has_value()) {
          PublishVisitKey(object, new_node.actor, *visit.to_arrived);
        }
      }
      if (touched) PublishVisitKey(object, actor_, visit.arrived);
    }
  }
}

std::vector<std::pair<hash::UInt160, std::vector<Visit>>> IopStore::ExtractAll() {
  std::vector<std::pair<hash::UInt160, std::vector<Visit>>> all;
  all.reserve(visits_.Size());
  for (auto& [object, list] : visits_) {
    all.emplace_back(object, std::move(list));
    PublishTouched(obs::RecEvent::kIopDropped, object);
  }
  visits_.Clear();
  total_visits_ = 0;
  return all;
}

void IopStore::AdoptVisits(const hash::UInt160& object,
                           const std::vector<Visit>& visits) {
  for (const Visit& incoming : visits) {
    RecordArrival(object, incoming.arrived);
    Visit* local = FindVisit(object, incoming.arrived);
    // Handed-over links fill gaps but never erase locally-known links: the
    // adopter may already hold fresher M2/M3 state for a shared visit.
    if (incoming.from.has_value() && !local->from.has_value()) {
      local->from = incoming.from;
      local->from_arrived = incoming.from_arrived;
      if (local->from->Valid() && local->from_arrived.has_value()) {
        PublishVisitKey(object, local->from->actor, *local->from_arrived);
      }
    }
    if (incoming.to.has_value() && !local->to.has_value()) {
      local->to = incoming.to;
      local->to_arrived = incoming.to_arrived;
      if (local->to->Valid() && local->to_arrived.has_value()) {
        PublishVisitKey(object, local->to->actor, *local->to_arrived);
      }
    }
    // RecordArrival only publishes on a fresh insert; the link merges above
    // can change an existing visit's findings, so always mark it.
    PublishVisitKey(object, actor_, incoming.arrived);
  }
}

IopStore::DwellStats IopStore::DwellStatistics() const {
  DwellStats stats;
  double sum = 0.0;
  for (const auto& [object, visits] : visits_) {
    for (const auto& visit : visits) {
      if (!visit.to.has_value() || !visit.to->Valid() ||
          !visit.to_arrived.has_value()) {
        continue;  // Still open.
      }
      const double dwell = *visit.to_arrived - visit.arrived;
      if (stats.completed_visits == 0) {
        stats.min_ms = stats.max_ms = dwell;
      } else {
        stats.min_ms = std::min(stats.min_ms, dwell);
        stats.max_ms = std::max(stats.max_ms, dwell);
      }
      ++stats.completed_visits;
      sum += dwell;
    }
  }
  if (stats.completed_visits > 0) {
    stats.mean_ms = sum / static_cast<double>(stats.completed_visits);
  }
  return stats;
}

}  // namespace peertrack::moods
