#include "tracking/gateway_index.hpp"

#include <algorithm>

namespace peertrack::tracking {

std::optional<IndexEntry> PrefixBucket::Extract(const hash::UInt160& object) {
  const IndexEntry* found = entries_.Find(object);
  if (found == nullptr) return std::nullopt;
  IndexEntry entry = *found;
  entries_.Erase(object);
  PublishErase(object);
  return entry;
}

std::vector<std::pair<hash::UInt160, IndexEntry>> PrefixBucket::ExtractEarliest(
    std::size_t count) {
  count = std::min(count, entries_.Size());
  std::vector<std::pair<hash::UInt160, IndexEntry>> all;
  all.reserve(entries_.Size());
  for (const auto& [key, entry] : entries_) all.emplace_back(key, entry);
  // Oldest `count` by last update time; ties broken by key for determinism
  // (unordered_map iteration order must not leak into results).
  std::nth_element(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(count),
                   all.end(), [](const auto& a, const auto& b) {
                     if (a.second.latest_arrived != b.second.latest_arrived) {
                       return a.second.latest_arrived < b.second.latest_arrived;
                     }
                     return a.first < b.first;
                   });
  all.resize(count);
  for (const auto& [key, _] : all) {
    entries_.Erase(key);
    PublishErase(key);
  }
  return all;
}

std::vector<std::pair<hash::UInt160, IndexEntry>> PrefixBucket::ExtractAll() {
  std::vector<std::pair<hash::UInt160, IndexEntry>> all;
  all.reserve(entries_.Size());
  for (const auto& [key, entry] : entries_) {
    all.emplace_back(key, entry);
    PublishErase(key);
  }
  entries_.Clear();
  return all;
}

std::vector<std::pair<hash::UInt160, ReplicaRecord>> ReplicaStore::ExtractAll() {
  std::vector<std::pair<hash::UInt160, ReplicaRecord>> all;
  all.reserve(records_.Size());
  for (const auto& [key, record] : records_) {
    all.emplace_back(key, record);
    PublishTouched(obs::RecEvent::kReplicaErase, key);
  }
  records_.Clear();
  return all;
}

PrefixBucket* PrefixIndexStore::TryBucket(const hash::Prefix& prefix) {
  const auto it = buckets_.find(prefix);
  return it == buckets_.end() ? nullptr : &it->second;
}

const PrefixBucket* PrefixIndexStore::TryBucket(const hash::Prefix& prefix) const {
  const auto it = buckets_.find(prefix);
  return it == buckets_.end() ? nullptr : &it->second;
}

void PrefixIndexStore::DropIfEmpty(const hash::Prefix& prefix) {
  const auto it = buckets_.find(prefix);
  if (it != buckets_.end() && it->second.Empty()) {
    buckets_.erase(it);
    if (log_ != nullptr && log_->Active()) {
      log_->Publish(obs::StateDelta::Shape(actor_, prefix, false));
    }
  }
}

std::vector<hash::Prefix> PrefixIndexStore::Prefixes() const {
  std::vector<hash::Prefix> prefixes;
  prefixes.reserve(buckets_.size());
  for (const auto& [prefix, bucket] : buckets_) {
    if (!bucket.Empty()) prefixes.push_back(prefix);
  }
  return prefixes;
}

std::size_t PrefixIndexStore::TotalEntries() const {
  std::size_t total = 0;
  for (const auto& [_, bucket] : buckets_) total += bucket.Size();
  return total;
}

}  // namespace peertrack::tracking
