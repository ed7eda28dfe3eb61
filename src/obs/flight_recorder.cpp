#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "obs/health.hpp"  // JsonEscape
#include "util/format.hpp"

namespace peertrack::obs {

const char* RecEventName(RecEvent event) noexcept {
  switch (event) {
    case RecEvent::kMsgSend: return "msg.send";
    case RecEvent::kMsgRecv: return "msg.recv";
    case RecEvent::kMsgDrop: return "msg.drop";
    case RecEvent::kRingNeighbors: return "ring.neighbors";
    case RecEvent::kRingFinger: return "ring.finger";
    case RecEvent::kMembership: return "ring.membership";
    case RecEvent::kIopVisit: return "iop.visit";
    case RecEvent::kIopDropped: return "iop.dropped";
    case RecEvent::kIndexUpsert: return "index.upsert";
    case RecEvent::kIndexErase: return "index.erase";
    case RecEvent::kReplicaUpsert: return "replica.upsert";
    case RecEvent::kReplicaErase: return "replica.erase";
    case RecEvent::kObjectTruth: return "object.truth";
    case RecEvent::kPrefixShape: return "prefix.shape";
    case RecEvent::kLpChange: return "lp.change";
    case RecEvent::kHandoffFinished: return "handoff.finished";
    case RecEvent::kHandoffBegin: return "handoff.begin";
    case RecEvent::kReplicaPromote: return "replica.promote";
    case RecEvent::kRpcRetry: return "rpc.retry";
    case RecEvent::kRpcTimeout: return "rpc.timeout";
    case RecEvent::kSuccessorFailover: return "ring.successor_failover";
  }
  return "unknown";
}

void FlightRecorder::Grow(std::uint32_t actor) {
  if (actor >= rings_.size()) rings_.resize(actor + 1);
  if (rings_[actor].slots.empty()) rings_[actor].slots.resize(capacity_);
}

namespace {

// The non-temporal drain copy below moves exactly one cache line per record.
static_assert(sizeof(RecordedEvent) == 64 && alignof(RecordedEvent) == 64,
              "RecordedEvent must stay one 64-byte cache line");

/// Warm one cache line for a write that is a few loop iterations away.
[[maybe_unused]] inline void PrefetchForWrite(const void* line) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(line, 1, 1);
#else
  (void)line;
#endif
}

/// Copy one record into its ring slot. The rings are write-only between
/// forensic dumps, so on x86 the copy streams past the cache hierarchy:
/// no read-for-ownership fetch, and megabytes of ring memory never evict
/// the simulation's working set. Readers are same-thread (after the
/// drain's closing fence), so no cross-thread visibility concerns.
inline void CopyRecord(RecordedEvent* dst, const RecordedEvent& src) noexcept {
#if defined(__SSE2__)
  const auto* from = reinterpret_cast<const __m128i*>(&src);
  auto* to = reinterpret_cast<__m128i*>(dst);
  _mm_stream_si128(to + 0, _mm_load_si128(from + 0));
  _mm_stream_si128(to + 1, _mm_load_si128(from + 1));
  _mm_stream_si128(to + 2, _mm_load_si128(from + 2));
  _mm_stream_si128(to + 3, _mm_load_si128(from + 3));
#else
  *dst = src;
#endif
}

inline void DrainFence() noexcept {
#if defined(__SSE2__)
  _mm_sfence();
#endif
}

/// Peer and message type of `e` (none for state records, whose union bytes
/// carry delta fields instead).
RecordedEvent::Counterpart CounterpartOf(const RecordedEvent& e) noexcept {
  return IsStateEvent(e.event) ? RecordedEvent::Counterpart{} : e.msg;
}

}  // namespace

void FlightRecorder::DrainStage(Lane& lane) {
  std::vector<RecordedEvent>& staged = lane.staged;
  if (staged.empty()) return;
  lane.holds_state = false;
  if (consumer_) consumer_(std::span<const RecordedEvent>(staged));
  if (capacity_ == 0) {
    staged.clear();
    return;
  }
  // The rings span ~actors * capacity records of memory, so each slot write
  // would be a dependent cache miss if appends went straight to them.
  // Batching lets a lookahead prefetch issue the slot fetches kAhead
  // iterations early (covering the non-streaming fallback) while the
  // streaming copy overlaps the stores — the whole point of staging
  // (DESIGN.md §12).
  PROF_SCOPE("obs.recorder", "drain");
  const std::size_t n = staged.size();
  for (std::size_t i = 0; i < n; ++i) {
#if !defined(__SSE2__)
    // Streaming stores bypass the cache, so warming the destination would
    // be wasted work — the lookahead only pays off for the plain copy.
    constexpr std::size_t kAhead = 16;
    if (i + kAhead < n) {
      const Ring* ahead = FindRing(staged[i + kAhead].actor);
      if (ahead != nullptr) PrefetchForWrite(&ahead->slots[ahead->head]);
    }
#endif
    const RecordedEvent& e = staged[i];
    Ring& ring = RingFor(e.actor);
    CopyRecord(&ring.slots[ring.head], e);
    if (++ring.head == capacity_) ring.head = 0;
    ++ring.appended;
  }
  staged.clear();
  DrainFence();
}

void FlightRecorder::Flush() {
  for (Lane& lane : lanes_) DrainStage(lane);
}

void FlightRecorder::FlushAtBarrier() {
  for (Lane& lane : lanes_) {
    if ((consumer_ && lane.holds_state) ||
        lane.staged.size() >= kStageCapacity) {
      DrainStage(lane);
    }
  }
}

bool FlightRecorder::Claim(Consumer consumer) {
  if (consumer_ || !consumer) return false;
  // The consumer sees only what is published from now on.
  Flush();
  consumer_ = std::move(consumer);
  return true;
}

void FlightRecorder::Release() {
  consumer_ = nullptr;
  Flush();
}

void FlightRecorder::EnableLanes(std::size_t lanes) {
  if (lanes_.size() > 1 || lanes <= 1) return;
  lanes_.resize(lanes);
  type_flags_ = std::make_unique<std::atomic<std::uint32_t>[]>(kMaxTypeIds);
  for (std::uint32_t i = 0; i < kMaxTypeIds; ++i) {
    type_flags_[i].store(0, std::memory_order_relaxed);
  }
  // Names interned before sharding was enabled are already readable.
  for (std::uint32_t i = 0;
       i < type_names_.size() && i < kMaxTypeIds; ++i) {
    if (!type_names_[i].empty()) {
      type_flags_[i].store(1, std::memory_order_release);
    }
  }
}

std::uint64_t FlightRecorder::LastSeq() const noexcept {
  if (lanes_.size() == 1) return lanes_[0].seq;
  std::uint64_t last = 0;
  for (std::uint64_t i = 0; i < lanes_.size(); ++i) {
    if (lanes_[i].seq != 0) {
      last = std::max(last, (lanes_[i].seq << kLaneSeqBits) | i);
    }
  }
  return last;
}

std::uint64_t FlightRecorder::EventsRecorded() const noexcept {
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.seq;
  return total;
}

std::uint64_t FlightRecorder::Published() const noexcept {
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.published;
  return total;
}

void FlightRecorder::RegisterTypeNameSlow(std::uint32_t type,
                                          std::string_view name) {
  if (type >= type_names_.size()) type_names_.resize(type + 1);
  if (type_names_[type].empty()) type_names_[type] = std::string(name);
}

void FlightRecorder::RegisterTypeNameLocked(std::uint32_t type,
                                            std::string_view name) {
  std::lock_guard<std::mutex> lock(names_mutex_);
  RegisterTypeNameSlow(type, name);
  if (type < kMaxTypeIds) {
    type_flags_[type].store(1, std::memory_order_release);
  }
}

std::size_t FlightRecorder::WindowSize(std::uint32_t actor) {
  Flush();
  const Ring* ring = FindRing(actor);
  if (ring == nullptr) return 0;
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(ring->appended, capacity_));
}

std::vector<RecordedEvent> FlightRecorder::Window(std::uint32_t actor) {
  Flush();
  std::vector<RecordedEvent> out;
  const Ring* found = FindRing(actor);
  if (found == nullptr) return out;
  const Ring& ring = *found;
  const std::uint64_t retained = std::min<std::uint64_t>(ring.appended, capacity_);
  out.reserve(static_cast<std::size_t>(retained));
  for (std::uint64_t i = ring.appended - retained; i < ring.appended; ++i) {
    out.push_back(ring.slots[i % capacity_]);
  }
  return out;
}

ForensicBundle FlightRecorder::Collect(
    const ForensicTrigger& trigger,
    const std::vector<std::uint32_t>& implicated) {
  Flush();
  ForensicBundle bundle;
  bundle.trigger = trigger;

  const auto mentions_object = [this, &trigger](const Ring& ring) {
    const std::uint64_t retained =
        std::min<std::uint64_t>(ring.appended, capacity_);
    for (std::uint64_t i = ring.appended - retained; i < ring.appended; ++i) {
      const RecordedEvent& e = ring.slots[i % capacity_];
      if (e.has_object && e.object == trigger.object) return true;
    }
    return false;
  };

  std::vector<char> include(rings_.size(), 0);
  bool include_world = false;
  for (const std::uint32_t actor : implicated) {
    if (actor == kWorldActor) {
      include_world = true;
    } else if (actor < include.size()) {
      include[actor] = 1;
    }
  }
  if (trigger.has_object) {
    // Any actor whose retained window mentions the subject object has (or
    // had) state for the key — a past holder's stale write is often the
    // cause, so "currently holds" is not enough. The world ring joins on
    // the same rule: it carries the ground-truth movement (object.truth)
    // the explainer compares written arrivals against.
    for (std::uint32_t actor = 0; actor < rings_.size(); ++actor) {
      if (include[actor]) continue;
      if (mentions_object(rings_[actor])) include[actor] = 1;
    }
    if (!include_world && !world_.slots.empty() && mentions_object(world_)) {
      include_world = true;
    }
  }

  for (std::uint32_t actor = 0; actor < include.size(); ++actor) {
    if (!include[actor]) continue;
    bundle.actors.push_back(actor);
    std::vector<RecordedEvent> window = Window(actor);
    bundle.events.insert(bundle.events.end(), window.begin(), window.end());
  }
  if (include_world && !world_.slots.empty()) {
    bundle.actors.push_back(kWorldActor);
    std::vector<RecordedEvent> window = Window(kWorldActor);
    bundle.events.insert(bundle.events.end(), window.begin(), window.end());
  }
  std::sort(bundle.events.begin(), bundle.events.end(),
            [](const RecordedEvent& a, const RecordedEvent& b) {
              if (a.when != b.when) return a.when < b.when;
              return a.seq < b.seq;
            });
  return bundle;
}

std::string FlightRecorder::ToJson(const ForensicBundle& bundle) const {
  const ForensicTrigger& t = bundle.trigger;
  std::string json = util::Format(
      "{{\n  \"schema\": \"peertrack.forensics.v1\",\n"
      "  \"trigger\": {{\"check\": \"{}\", \"subject\": \"{}\", "
      "\"detail\": \"{}\", \"actor\": {}, \"when_ms\": {}, "
      "\"event_seq\": {}, \"object\": {}}},\n"
      "  \"capacity_per_actor\": {},\n  \"actors\": [",
      JsonEscape(t.check), JsonEscape(t.subject), JsonEscape(t.detail),
      t.actor, t.when_ms, t.event_seq,
      t.has_object ? util::Format("\"{}\"", t.object.ToShortHex()) : "null",
      capacity_);
  for (std::size_t i = 0; i < bundle.actors.size(); ++i) {
    json += util::Format("{}{}", i == 0 ? "" : ", ", bundle.actors[i]);
  }
  json += "],\n  \"events\": [";
  for (std::size_t i = 0; i < bundle.events.size(); ++i) {
    const RecordedEvent& e = bundle.events[i];
    json += util::Format(
        "{}\n    {{\"seq\": {}, \"when_ms\": {}, \"event\": \"{}\", "
        "\"actor\": {}",
        i == 0 ? "" : ",", e.seq, e.when, RecEventName(e.event), e.actor);
    const RecordedEvent::Counterpart to = CounterpartOf(e);
    if (to.peer != 0xFFFFFFFFu) json += util::Format(", \"peer\": {}", to.peer);
    if (to.type != 0xFFFFFFFFu) {
      const std::string_view name = TypeName(to.type);
      json += util::Format(", \"type\": \"{}\"",
                           name.empty() ? util::Format("msg#{}", to.type)
                                        : JsonEscape(name));
    }
    if (e.has_object) {
      json += util::Format(", \"object\": \"{}\"", e.object.ToShortHex());
    }
    if (e.arg >= 0.0) json += util::Format(", \"arg_ms\": {}", e.arg);
    json += "}";
  }
  json += "\n  ]\n}\n";
  return json;
}

std::string FlightRecorder::ToPerfettoJson(const ForensicBundle& bundle) const {
  // Instant events ("i"), one per record, threaded by actor — loads in the
  // Perfetto UI next to the span traces obs::PerfettoExporter writes. ts is
  // microseconds; the sim clock is milliseconds.
  std::string json = "{\"traceEvents\": [";
  bool first = true;
  const auto append = [&json, &first](std::string line) {
    json += first ? "\n  " : ",\n  ";
    json += line;
    first = false;
  };
  for (const RecordedEvent& e : bundle.events) {
    std::string args = util::Format("\"seq\": {}", e.seq);
    if (e.has_object) {
      args += util::Format(", \"object\": \"{}\"", e.object.ToShortHex());
    }
    const RecordedEvent::Counterpart to = CounterpartOf(e);
    if (to.peer != 0xFFFFFFFFu) args += util::Format(", \"peer\": {}", to.peer);
    if (to.type != 0xFFFFFFFFu) {
      const std::string_view name = TypeName(to.type);
      if (!name.empty()) {
        args += util::Format(", \"type\": \"{}\"", JsonEscape(name));
      }
    }
    append(util::Format(
        "{{\"name\": \"{}\", \"ph\": \"i\", \"s\": \"t\", \"ts\": {:.3f}, "
        "\"pid\": 0, \"tid\": {}, \"args\": {{{}}}}}",
        RecEventName(e.event), e.when * 1000.0, e.actor, args));
  }
  append(util::Format(
      "{{\"name\": \"TRIGGER {}\", \"ph\": \"i\", \"s\": \"g\", "
      "\"ts\": {:.3f}, \"pid\": 0, \"tid\": {}, "
      "\"args\": {{\"subject\": \"{}\", \"detail\": \"{}\"}}}}",
      JsonEscape(bundle.trigger.check), bundle.trigger.when_ms * 1000.0,
      bundle.trigger.actor, JsonEscape(bundle.trigger.subject),
      JsonEscape(bundle.trigger.detail)));
  json += "\n]}\n";
  return json;
}

namespace {

// Filesystem-safe slug: alnum and '.' survive, everything else becomes '-',
// truncated so a long subject key cannot blow the path limit.
std::string Slug(std::string_view s, std::size_t max_len = 48) {
  std::string out;
  out.reserve(std::min(s.size(), max_len));
  for (const char c : s) {
    if (out.size() >= max_len) break;
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.';
    out += keep ? c : '-';
  }
  return out;
}

}  // namespace

std::string FlightRecorder::WriteBundle(const ForensicBundle& bundle,
                                        const std::string& dir) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return "";
  const std::string stem =
      util::Format("forensic-{}-{}-{}", bundle.trigger.event_seq,
                   Slug(bundle.trigger.check), Slug(bundle.trigger.subject));
  const std::string json_path = dir + "/" + stem + ".json";
  {
    std::ofstream out(json_path, std::ios::trunc);
    if (!out) return "";
    out << ToJson(bundle);
    if (!out) return "";
  }
  std::ofstream perfetto(dir + "/" + stem + ".perfetto.json", std::ios::trunc);
  if (perfetto) perfetto << ToPerfettoJson(bundle);
  return json_path;
}

}  // namespace peertrack::obs
