#include "sim/metrics.hpp"

#include "obs/lane.hpp"
#include "sim/network.hpp"
#include "util/format.hpp"

namespace peertrack::sim {

namespace {

/// Histogram layout for lookup hop counts: hops are small integers, so a
/// fine min bound keeps every value in its own bucket.
obs::HistogramOptions HopHistogramOptions() {
  obs::HistogramOptions options;
  options.min_bound = 1.0;
  options.buckets_per_octave = 4;
  options.max_buckets = 48;
  return options;
}

/// The per-type accounting names Counter() recognizes, mapped to the slot
/// field they read.
constexpr std::string_view kRpcRetryPrefix = "rpc.retry:";
constexpr std::string_view kRpcTimeoutPrefix = "rpc.timeout:";
constexpr std::string_view kDropLossPrefix = "drop.loss:";
constexpr std::string_view kDropDownPrefix = "drop.down:";

}  // namespace

Metrics& Metrics::Active() noexcept {
  if (lanes_ == nullptr) return *this;
  const std::uint32_t lane = obs::CurrentLane();
  if (lane == 0) return *this;
  return *(*lanes_)[lane - 1];
}

void Metrics::EnableLanes(std::size_t lanes) {
  if (lanes_ != nullptr || lanes <= 1) return;
  registry_.EnableStriping(lanes);
  // Resolve the hop histogram eagerly: the lazy-init pointer write in
  // RecordLookupHops would race between worker threads.
  lookup_hops_hist_ =
      &registry_.GetHistogram("chord.lookup_hops", HopHistogramOptions());
  lanes_ = std::make_unique<std::vector<std::unique_ptr<Metrics>>>();
  lanes_->reserve(lanes - 1);
  for (std::size_t i = 1; i < lanes; ++i) {
    lanes_->push_back(std::make_unique<Metrics>());
  }
}

void Metrics::FoldLanesImpl() noexcept {
  for (const std::unique_ptr<Metrics>& lane_ptr : *lanes_) {
    Metrics& lane = *lane_ptr;
    if (lane.total_messages_ == 0 && lane.dropped_loss_ == 0 &&
        lane.dropped_down_ == 0 && lane.rpc_retries_ == 0 &&
        lane.rpc_timeouts_ == 0) {
      continue;
    }
    total_messages_ += lane.total_messages_;
    total_bytes_ += lane.total_bytes_;
    dropped_loss_ += lane.dropped_loss_;
    dropped_down_ += lane.dropped_down_;
    rpc_retries_ += lane.rpc_retries_;
    rpc_timeouts_ += lane.rpc_timeouts_;
    if (slots_.size() < lane.slots_.size()) slots_.resize(lane.slots_.size());
    for (std::size_t i = 0; i < lane.slots_.size(); ++i) {
      TypeSlot& into = slots_[i];
      const TypeSlot& from = lane.slots_[i];
      if (into.name.empty()) into.name = from.name;
      into.count += from.count;
      into.bytes += from.bytes;
      into.drop_loss += from.drop_loss;
      into.drop_down += from.drop_down;
      into.rpc_retry += from.rpc_retry;
      into.rpc_timeout += from.rpc_timeout;
    }
    for (const auto& [name, counter] : lane.extra_types_) {
      TypeCounter& into = extra_types_[name];
      into.count += counter.count;
      into.bytes += counter.bytes;
    }
    const auto fold_vec = [](std::vector<std::uint64_t>& into,
                             const std::vector<std::uint64_t>& from) {
      if (into.size() < from.size()) into.resize(from.size(), 0);
      for (std::size_t i = 0; i < from.size(); ++i) into[i] += from[i];
    };
    fold_vec(received_per_actor_, lane.received_per_actor_);
    fold_vec(sent_per_actor_, lane.sent_per_actor_);
    fold_vec(received_bytes_per_actor_, lane.received_bytes_per_actor_);
    fold_vec(sent_bytes_per_actor_, lane.sent_bytes_per_actor_);
    lane.Reset();
  }
}

void Metrics::BumpPerActor(std::vector<std::uint64_t>& v, ActorId id,
                           std::uint64_t by) {
  if (id == kInvalidActor) return;
  if (v.size() <= id) v.resize(id + 1, 0);
  v[id] += by;
}

Metrics::TypeSlot& Metrics::SlotFor(const Message& message) {
  const MsgTypeId id = message.TypeId();
  if (slots_.size() <= id) slots_.resize(id + 1);
  TypeSlot& slot = slots_[id];
  if (slot.name.empty()) slot.name = message.TypeName();
  return slot;
}

const Metrics::TypeSlot* Metrics::FindSlot(std::string_view name) const noexcept {
  // Linear scan over a few dozen slots; only rendering / test queries come
  // through here, never the per-event path.
  for (const TypeSlot& slot : slots_) {
    if (!slot.name.empty() && slot.name == name) return &slot;
  }
  return nullptr;
}

void Metrics::RecordMessage(const Message& message, std::size_t bytes, ActorId from,
                            ActorId to) {
  Metrics& lane = Active();
  if (&lane != this) {
    lane.RecordMessage(message, bytes, from, to);
    return;
  }
  ++total_messages_;
  total_bytes_ += bytes;
  TypeSlot& slot = SlotFor(message);
  ++slot.count;
  slot.bytes += bytes;
  BumpPerActor(sent_per_actor_, from, 1);
  BumpPerActor(received_per_actor_, to, 1);
  BumpPerActor(sent_bytes_per_actor_, from, bytes);
  BumpPerActor(received_bytes_per_actor_, to, bytes);
}

void Metrics::RecordMessage(std::string_view type, std::size_t bytes, ActorId from,
                            ActorId to) {
  Metrics& lane = Active();
  if (&lane != this) {
    lane.RecordMessage(type, bytes, from, to);
    return;
  }
  ++total_messages_;
  total_bytes_ += bytes;
  auto it = extra_types_.find(type);
  if (it == extra_types_.end()) {
    it = extra_types_.emplace(std::string(type), TypeCounter{}).first;
  }
  ++it->second.count;
  it->second.bytes += bytes;
  BumpPerActor(sent_per_actor_, from, 1);
  BumpPerActor(received_per_actor_, to, 1);
  BumpPerActor(sent_bytes_per_actor_, from, bytes);
  BumpPerActor(received_bytes_per_actor_, to, bytes);
}

void Metrics::RecordDrop(const Message& message, DropReason reason) {
  Metrics& lane = Active();
  if (&lane != this) {
    lane.RecordDrop(message, reason);
    return;
  }
  TypeSlot& slot = SlotFor(message);
  if (reason == DropReason::kLoss) {
    ++dropped_loss_;
    ++slot.drop_loss;
  } else {
    ++dropped_down_;
    ++slot.drop_down;
  }
}

void Metrics::RecordRpcRetry(const Message& request) {
  Metrics& lane = Active();
  ++lane.rpc_retries_;
  ++lane.SlotFor(request).rpc_retry;
}

void Metrics::RecordRpcTimeout(const Message& request) {
  Metrics& lane = Active();
  ++lane.rpc_timeouts_;
  ++lane.SlotFor(request).rpc_timeout;
}

void Metrics::RecordLookupHops(std::size_t hops) {
  if (lookup_hops_hist_ == nullptr) {
    // Un-sharded only: EnableLanes resolves this pointer eagerly, so the
    // lazy write never races between worker threads.
    lookup_hops_hist_ =
        &registry_.GetHistogram("chord.lookup_hops", HopHistogramOptions());
  }
  lookup_hops_hist_->Add(static_cast<double>(hops));
}

void Metrics::RecordLatency(std::string_view name, double ms) {
  LatencyHistogram(name).Add(ms);
}

obs::Histogram& Metrics::LatencyHistogram(std::string_view name) {
  return registry_.GetHistogram(util::Format("latency:{}", name));
}

void Metrics::Bump(std::string_view counter, std::uint64_t by) {
  registry_.GetCounter(counter).Add(by);
}

Metrics::TypeCounter Metrics::ForType(std::string_view type) const {
  FoldLanes();
  TypeCounter result;
  if (const TypeSlot* slot = FindSlot(type)) {
    result.count += slot->count;
    result.bytes += slot->bytes;
  }
  if (const auto it = extra_types_.find(type); it != extra_types_.end()) {
    result.count += it->second.count;
    result.bytes += it->second.bytes;
  }
  return result;
}

std::map<std::string, Metrics::TypeCounter, std::less<>> Metrics::ByType() const {
  FoldLanes();
  std::map<std::string, TypeCounter, std::less<>> merged = extra_types_;
  for (const TypeSlot& slot : slots_) {
    if (slot.name.empty() || slot.count == 0) continue;
    TypeCounter& counter = merged[slot.name];
    counter.count += slot.count;
    counter.bytes += slot.bytes;
  }
  return merged;
}

std::map<std::string, std::uint64_t, std::less<>> Metrics::MergedCounters() const {
  FoldLanes();
  std::map<std::string, std::uint64_t, std::less<>> merged;
  for (const auto& [name, counter] : registry_.counters()) {
    if (counter.Value() != 0) merged[name] = counter.Value();
  }
  for (const TypeSlot& slot : slots_) {
    if (slot.name.empty()) continue;
    if (slot.drop_loss != 0) {
      merged[util::Format("drop.loss:{}", slot.name)] += slot.drop_loss;
    }
    if (slot.drop_down != 0) {
      merged[util::Format("drop.down:{}", slot.name)] += slot.drop_down;
    }
    if (slot.rpc_retry != 0) {
      merged[util::Format("rpc.retry:{}", slot.name)] += slot.rpc_retry;
    }
    if (slot.rpc_timeout != 0) {
      merged[util::Format("rpc.timeout:{}", slot.name)] += slot.rpc_timeout;
    }
  }
  return merged;
}

std::uint64_t Metrics::Counter(std::string_view name) const {
  FoldLanes();
  std::uint64_t value = registry_.CounterValue(name);
  const auto slot_field =
      [&](std::string_view prefix,
          std::uint64_t TypeSlot::*field) -> std::uint64_t {
    if (name.size() <= prefix.size() || name.substr(0, prefix.size()) != prefix) {
      return 0;
    }
    const TypeSlot* slot = FindSlot(name.substr(prefix.size()));
    return slot != nullptr ? slot->*field : 0;
  };
  value += slot_field(kRpcRetryPrefix, &TypeSlot::rpc_retry);
  value += slot_field(kRpcTimeoutPrefix, &TypeSlot::rpc_timeout);
  value += slot_field(kDropLossPrefix, &TypeSlot::drop_loss);
  value += slot_field(kDropDownPrefix, &TypeSlot::drop_down);
  return value;
}

void Metrics::Reset() {
  if (lanes_ != nullptr) {
    for (const std::unique_ptr<Metrics>& lane : *lanes_) lane->Reset();
  }
  total_messages_ = 0;
  total_bytes_ = 0;
  dropped_loss_ = 0;
  dropped_down_ = 0;
  rpc_retries_ = 0;
  rpc_timeouts_ = 0;
  for (TypeSlot& slot : slots_) {
    // Keep the interned name; zero the counts.
    std::string name = std::move(slot.name);
    slot = TypeSlot{};
    slot.name = std::move(name);
  }
  extra_types_.clear();
  registry_.ResetValues();
  received_per_actor_.clear();
  sent_per_actor_.clear();
  received_bytes_per_actor_.clear();
  sent_bytes_per_actor_.clear();
}

std::string Metrics::Summary() const {
  FoldLanes();
  std::string out = util::Format(
      "messages={} bytes={} dropped={} (loss={} down={}) rpc_retries={} "
      "rpc_timeouts={}\n",
      total_messages_, total_bytes_, DroppedMessages(), dropped_loss_,
      dropped_down_, rpc_retries_, rpc_timeouts_);
  for (const auto& [type, counter] : ByType()) {
    out += util::Format("  {:<24} count={:<10} bytes={}\n", type, counter.count,
                       counter.bytes);
  }
  if (lookup_hops_hist_ != nullptr && lookup_hops_hist_->Count() > 0) {
    out += util::Format("  lookup hops: mean={:.2f} max={:.0f} n={}\n",
                       lookup_hops_hist_->Mean(), lookup_hops_hist_->Max(),
                       lookup_hops_hist_->Count());
  }
  for (const auto& [name, value] : MergedCounters()) {
    out += util::Format("  counter {:<22} {}\n", name, value);
  }
  for (const auto& [name, gauge] : registry_.gauges()) {
    out += util::Format("  gauge {:<24} {:.3f}\n", name, gauge.Value());
  }
  for (const auto& [name, histogram] : registry_.histograms()) {
    if (histogram.Count() == 0) continue;
    out += util::Format(
        "  hist {:<25} n={} p50={:.2f} p95={:.2f} p99={:.2f} max={:.2f}\n", name,
        histogram.Count(), histogram.P50(), histogram.P95(), histogram.P99(),
        histogram.Max());
  }
  return out;
}

std::vector<std::vector<std::string>> Metrics::CsvRows() const {
  FoldLanes();
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"metric", "value"});
  rows.push_back({"total_messages", std::to_string(total_messages_)});
  rows.push_back({"total_bytes", std::to_string(total_bytes_)});
  rows.push_back({"dropped", std::to_string(DroppedMessages())});
  rows.push_back({"dropped_loss", std::to_string(dropped_loss_)});
  rows.push_back({"dropped_down_actor", std::to_string(dropped_down_)});
  rows.push_back({"rpc_retries", std::to_string(rpc_retries_)});
  rows.push_back({"rpc_timeouts", std::to_string(rpc_timeouts_)});
  for (const auto& [type, counter] : ByType()) {
    rows.push_back({util::Format("count:{}", type), std::to_string(counter.count)});
    rows.push_back({util::Format("bytes:{}", type), std::to_string(counter.bytes)});
  }
  for (const auto& [name, value] : MergedCounters()) {
    rows.push_back({util::Format("counter:{}", name), std::to_string(value)});
  }
  for (const auto& [name, gauge] : registry_.gauges()) {
    rows.push_back({util::Format("gauge:{}", name),
                    util::Format("{:.6f}", gauge.Value())});
  }
  for (const auto& [name, histogram] : registry_.histograms()) {
    if (histogram.Count() == 0) continue;
    rows.push_back({util::Format("hist:{}:count", name),
                    std::to_string(histogram.Count())});
    rows.push_back({util::Format("hist:{}:p50", name),
                    util::Format("{:.4f}", histogram.P50())});
    rows.push_back({util::Format("hist:{}:p95", name),
                    util::Format("{:.4f}", histogram.P95())});
    rows.push_back({util::Format("hist:{}:p99", name),
                    util::Format("{:.4f}", histogram.P99())});
    rows.push_back({util::Format("hist:{}:max", name),
                    util::Format("{:.4f}", histogram.Max())});
  }
  return rows;
}

}  // namespace peertrack::sim
