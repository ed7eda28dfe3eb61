// Data-Triangle machinery (paper Section IV-A2 and Figure 5).
//
// A prefix gateway delegates its oldest entries to the gateways of the two
// one-bit-longer prefixes; during index persistence, records for objects
// unknown locally are pulled back from ascent (shorter-prefix) and descent
// (longer-prefix) gateways; and when the global Lp changes, buckets split
// down or merge up so the structure stays a triangle rather than a deep
// tree. Gateway addresses are cached (per the paper), so each exchange is
// charged as exactly one request + one response message.

#include <algorithm>

#include "tracking/tracker_node.hpp"
#include "util/logging.hpp"

namespace peertrack::tracking {

namespace {

constexpr std::size_t kEntryWireBytes = 20 + chord::kNodeRefBytes + 8;

/// Remove from `unknown` every object that now has an entry in `bucket`.
void PruneKnown(std::vector<hash::UInt160>& unknown, const PrefixBucket& bucket) {
  std::erase_if(unknown,
                [&](const hash::UInt160& object) { return bucket.Find(object) != nullptr; });
}

}  // namespace

void TrackerNode::ChargeRpc(std::string_view request_type, std::size_t request_bytes,
                            std::string_view response_type, std::size_t response_bytes,
                            sim::ActorId peer) {
  if (peer == Self().actor) return;  // Local: no wire cost.
  auto& metrics = chord_.network().metrics();
  metrics.RecordMessage(request_type, sim::kMessageHeaderBytes + request_bytes,
                        Self().actor, peer);
  metrics.RecordMessage(response_type, sim::kMessageHeaderBytes + response_bytes,
                        peer, Self().actor);
}

TrackerNode::FetchResult TrackerNode::FetchEntries(
    const hash::Prefix& prefix, std::span<const hash::UInt160> objects, bool remove) {
  FetchResult result;
  PrefixBucket* bucket = store_.TryBucket(prefix);
  if (bucket == nullptr) return result;
  result.bucket_exists = true;
  for (const auto& object : objects) {
    if (remove) {
      if (auto entry = bucket->Extract(object)) {
        result.entries.emplace_back(object, *entry);
      }
    } else if (const IndexEntry* entry = bucket->Find(object)) {
      result.entries.emplace_back(object, *entry);
    }
  }
  if (remove) store_.DropIfEmpty(prefix);
  return result;
}

void TrackerNode::RefreshFromAscent(std::vector<hash::UInt160>& unknown,
                                    const hash::Prefix& prefix, PrefixBucket& bucket) {
  // Figure 5, refresh_from_ascent: walk shorter prefixes down to Lmin,
  // stopping at the first level with no gateway bucket.
  hash::Prefix ancestor = prefix;
  while (ancestor.length > config_.lmin && !unknown.empty()) {
    ancestor = ancestor.Parent();
    TrackerNode* owner = peers_.OwnerOf(hash::GroupKey(ancestor));
    if (owner == nullptr) break;
    FetchResult fetched;
    if (owner == this) {
      fetched = FetchEntries(ancestor, unknown, /*remove=*/true);
    } else {
      ChargeRpc("track.fetch_req", 9 + unknown.size() * 20, "track.fetch_resp",
                1 + kEntryWireBytes, owner->Self().actor);
      fetched = owner->FetchEntries(ancestor, unknown, /*remove=*/true);
    }
    if (!fetched.bucket_exists) break;  // "while there exists gateway node".
    for (auto& [object, entry] : fetched.entries) {
      bucket.Upsert(object, entry);
    }
    PruneKnown(unknown, bucket);
  }
}

void TrackerNode::RefreshFromDescent(std::vector<hash::UInt160>& unknown,
                                     const hash::Prefix& prefix, PrefixBucket& bucket,
                                     std::size_t depth) {
  // Figure 5, refresh_from_descent: recurse into both children, pruning by
  // prefix match; in steady state the triangle is one level deep, but the
  // recursion handles transient deeper shapes after Lp changes.
  if (depth >= config_.max_descent_depth || prefix.length >= 63 || unknown.empty()) {
    return;
  }
  for (const bool bit : {false, true}) {
    const hash::Prefix child = prefix.Child(bit);
    std::vector<hash::UInt160> filtered;
    for (const auto& object : unknown) {
      if (child.Matches(object)) filtered.push_back(object);
    }
    if (filtered.empty()) continue;
    TrackerNode* owner = peers_.OwnerOf(hash::GroupKey(child));
    if (owner == nullptr) continue;
    FetchResult fetched;
    if (owner == this) {
      fetched = FetchEntries(child, filtered, /*remove=*/true);
    } else {
      ChargeRpc("track.fetch_req", 9 + filtered.size() * 20, "track.fetch_resp",
                1 + kEntryWireBytes, owner->Self().actor);
      fetched = owner->FetchEntries(child, filtered, /*remove=*/true);
    }
    for (auto& [object, entry] : fetched.entries) {
      bucket.Upsert(object, entry);
    }
    if (fetched.bucket_exists) {
      // Entries may have been delegated further down; keep descending with
      // the objects still unresolved in this subtree.
      std::vector<hash::UInt160> still_unknown;
      for (const auto& object : filtered) {
        if (bucket.Find(object) == nullptr) still_unknown.push_back(object);
      }
      if (!still_unknown.empty()) {
        RefreshFromDescent(still_unknown, child, bucket, depth + 1);
      }
    }
  }
  PruneKnown(unknown, bucket);
}

void TrackerNode::MaybeDelegate(const hash::Prefix& prefix, PrefixBucket& bucket) {
  if (bucket.Size() <= config_.delegation_threshold) return;
  if (prefix.length >= 63) return;
  const auto count =
      static_cast<std::size_t>(config_.alpha * static_cast<double>(bucket.Size()));
  if (count == 0) return;
  auto moving = bucket.ExtractEarliest(count);
  chord_.network().metrics().Bump("track.triangle_delegation");
  delegated_children_.insert(prefix);
  // Entry moves publish through the bucket choke points; the delegation
  // marker itself is a shape event on the parent prefix.
  {
    obs::FlightRecorder& log = chord_.network().delta_bus();
    if (log.Active()) {
      log.Publish(obs::StateDelta::Shape(Self().actor, prefix, false));
    }
  }
  if (config_.replicate_index) {
    // The entries leave this gateway; replicas must not resurrect them at
    // this level on a later promotion. The child gateways re-replicate
    // them at their own successors on accept.
    std::vector<hash::UInt160> moved;
    moved.reserve(moving.size());
    for (const auto& [object, _] : moving) moved.push_back(object);
    SendReplicaErase(std::move(moved));
  }

  // Partition by the next bit after the prefix.
  std::vector<std::pair<hash::UInt160, IndexEntry>> child0;
  std::vector<std::pair<hash::UInt160, IndexEntry>> child1;
  for (auto& item : moving) {
    const bool bit = item.first.BitFromMsb(prefix.length);
    (bit ? child1 : child0).push_back(std::move(item));
  }
  if (!child0.empty()) {
    DeliverEntries(prefix.Child(false), std::move(child0), "track.delegate",
                   /*as_delegation=*/true);
  }
  if (!child1.empty()) {
    DeliverEntries(prefix.Child(true), std::move(child1), "track.delegate",
                   /*as_delegation=*/true);
  }
}

void TrackerNode::DeliverEntries(
    const hash::Prefix& prefix,
    std::vector<std::pair<hash::UInt160, IndexEntry>> entries,
    std::string_view charge_type, bool as_delegation) {
  const sim::ActorId owner_actor = peers_.OwnerActorOf(hash::GroupKey(prefix));
  if (owner_actor == sim::kInvalidActor) {
    util::LogWarn("no owner for prefix {}", prefix.ToString());
    return;
  }
  if (owner_actor == Self().actor) {
    AcceptEntries(prefix, std::move(entries), as_delegation);
    return;
  }
  ChargeRpc(charge_type, 9 + entries.size() * kEntryWireBytes, "track.delegate_ack",
            8, owner_actor);
  // Wire accounting stays on the caller (above); the owner-side accept
  // runs through RunOnActor so a split/merge cascade re-delivering to a
  // gateway on another shard lands on that shard's thread at the window
  // boundary instead of mutating its bucket from this one.
  chord_.network().RunOnActor(
      owner_actor,
      [&peers = peers_, owner_actor, prefix, entries = std::move(entries),
       as_delegation]() mutable {
        TrackerNode* owner = peers.TrackerByActor(owner_actor);
        if (owner != nullptr) {
          owner->AcceptEntries(prefix, std::move(entries), as_delegation);
        }
      });
}

void TrackerNode::AcceptEntries(
    const hash::Prefix& prefix,
    std::vector<std::pair<hash::UInt160, IndexEntry>> entries, bool as_delegation) {
  const unsigned lp = CurrentLp();
  // Delegation children live one level below the gateway; everything else
  // normalizes to exactly Lp so no entry strands at an unprobed level.
  if (as_delegation && prefix.length == lp + 1) {
    PrefixBucket& bucket = store_.BucketFor(prefix);
    std::vector<ReplicaUpdate::Item> accepted;
    for (auto& [object, entry] : entries) {
      const IndexEntry* existing = bucket.Find(object);
      if (existing == nullptr || existing->latest_arrived < entry.latest_arrived) {
        bucket.Upsert(object, entry);
        if (config_.replicate_index) {
          accepted.push_back({object, entry.latest_node, entry.latest_arrived, prefix});
        }
      }
    }
    ReplicateEntries(accepted, obs::TraceContext{});
    return;
  }
  if (prefix.length < lp) {
    std::vector<std::pair<hash::UInt160, IndexEntry>> child0;
    std::vector<std::pair<hash::UInt160, IndexEntry>> child1;
    for (auto& item : entries) {
      const bool bit = item.first.BitFromMsb(prefix.length);
      (bit ? child1 : child0).push_back(std::move(item));
    }
    if (!child0.empty()) DeliverEntries(prefix.Child(false), std::move(child0), "track.split");
    if (!child1.empty()) DeliverEntries(prefix.Child(true), std::move(child1), "track.split");
    return;
  }
  if (prefix.length > lp) {
    DeliverEntries(prefix.Parent(), std::move(entries), "track.merge");
    return;
  }
  PrefixBucket& bucket = store_.BucketFor(prefix);
  std::vector<ReplicaUpdate::Item> accepted;
  for (auto& [object, entry] : entries) {
    const IndexEntry* existing = bucket.Find(object);
    if (existing == nullptr || existing->latest_arrived < entry.latest_arrived) {
      bucket.Upsert(object, entry);
      if (config_.replicate_index) {
        accepted.push_back({object, entry.latest_node, entry.latest_arrived, prefix});
      }
    }
  }
  ReplicateEntries(accepted, obs::TraceContext{});
}

void TrackerNode::OnPrefixLengthChanged(unsigned new_lp) {
  // Splitting-merging process (Section IV-A2): buckets shorter than the new
  // Lp split into their children; buckets deeper than Lp+1 merge upward.
  delegated_children_.clear();  // Delegations re-form under load at the new shape.
  for (const auto& prefix : store_.Prefixes()) {
    if (prefix.length == new_lp) continue;
    PrefixBucket* bucket = store_.TryBucket(prefix);
    if (bucket == nullptr || bucket->Empty()) continue;
    auto entries = bucket->ExtractAll();
    store_.DropIfEmpty(prefix);
    if (prefix.length < new_lp) {
      chord_.network().metrics().Bump("track.triangle_split");
      std::vector<std::pair<hash::UInt160, IndexEntry>> child0;
      std::vector<std::pair<hash::UInt160, IndexEntry>> child1;
      for (auto& item : entries) {
        const bool bit = item.first.BitFromMsb(prefix.length);
        (bit ? child1 : child0).push_back(std::move(item));
      }
      if (!child0.empty()) DeliverEntries(prefix.Child(false), std::move(child0), "track.split");
      if (!child1.empty()) DeliverEntries(prefix.Child(true), std::move(child1), "track.split");
    } else {
      chord_.network().metrics().Bump("track.triangle_merge");
      DeliverEntries(prefix.Parent(), std::move(entries), "track.merge");
    }
  }
}

const IndexEntry* TrackerNode::TriangleLookup(const hash::UInt160& object, unsigned lp) {
  // Lookup algorithm (Section IV-A3): gateway bucket first, then parent and
  // the two children — 3 extra lookups per object at most in steady state.
  const hash::Prefix prefix = hash::Prefix::OfKey(object, lp);
  if (PrefixBucket* bucket = store_.TryBucket(prefix)) {
    if (const IndexEntry* entry = bucket->Find(object)) return entry;
  }
  const hash::UInt160 probe[] = {object};

  if (config_.always_refresh_ascent && prefix.length > config_.lmin) {
    const hash::Prefix parent = prefix.Parent();
    TrackerNode* owner = peers_.OwnerOf(hash::GroupKey(parent));
    if (owner != nullptr) {
      if (owner != this) {
        ChargeRpc("track.lookup_req", 29, "track.lookup_resp",
                  1 + kEntryWireBytes, owner->Self().actor);
      }
      auto fetched = owner->FetchEntries(parent, probe, /*remove=*/false);
      if (!fetched.entries.empty()) {
        // Cache locally so repeated queries hit the gateway bucket.
        store_.BucketFor(prefix).Upsert(object, fetched.entries.front().second);
        return store_.BucketFor(prefix).Find(object);
      }
    }
  }
  if (prefix.length < 63 && delegated_children_.contains(prefix)) {
    const hash::Prefix child = prefix.Child(object.BitFromMsb(prefix.length));
    TrackerNode* owner = peers_.OwnerOf(hash::GroupKey(child));
    if (owner != nullptr) {
      if (owner != this) {
        ChargeRpc("track.lookup_req", 29, "track.lookup_resp",
                  1 + kEntryWireBytes, owner->Self().actor);
      }
      auto fetched = owner->FetchEntries(child, probe, /*remove=*/false);
      if (!fetched.bucket_exists) {
        // Stale marker (the child bucket merged away); self-clean.
        delegated_children_.erase(prefix);
      }
      if (!fetched.entries.empty()) {
        store_.BucketFor(prefix).Upsert(object, fetched.entries.front().second);
        return store_.BucketFor(prefix).Find(object);
      }
    }
  }
  return nullptr;
}

}  // namespace peertrack::tracking
