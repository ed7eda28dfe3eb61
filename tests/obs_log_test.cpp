// FlightRecorder as the mutation log: the exclusive consumer claim, the
// state fields a published delta carries through the stage, publish order
// across stage drains, and the ring-less (capacity 0) consumer mode.

#include "obs/flight_recorder.hpp"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace peertrack::obs {
namespace {

hash::UInt160 Key(std::uint32_t tag) { return hash::UInt160(tag); }

/// Consumer that copies every batch it is handed.
struct Collected {
  std::vector<RecordedEvent> events;
  std::size_t batches = 0;

  FlightRecorder::Consumer Sink() {
    return [this](std::span<const RecordedEvent> batch) {
      ++batches;
      events.insert(events.end(), batch.begin(), batch.end());
    };
  }
};

TEST(FlightRecorderLog, SecondClaimIsRefusedAndReleasedClaimRetaken) {
  FlightRecorder log;
  Collected first;
  Collected second;
  EXPECT_FALSE(log.Active());
  EXPECT_TRUE(log.Claim(first.Sink()));
  EXPECT_TRUE(log.Active());
  EXPECT_FALSE(log.Claim(second.Sink()));  // A second consumer is refused.
  log.Release();
  EXPECT_FALSE(log.Active());
  EXPECT_TRUE(log.Claim(second.Sink()));  // Released claims can be retaken.
  log.Publish(StateDelta::Ring(RecEvent::kMembership, 4));
  log.Flush();
  EXPECT_TRUE(first.events.empty());
  ASSERT_EQ(second.events.size(), 1u);
  EXPECT_EQ(second.events[0].event, RecEvent::kMembership);
  EXPECT_EQ(second.events[0].actor, 4u);
  log.Release();
}

TEST(FlightRecorderLog, StateFieldsSurviveTheRoundTrip) {
  FlightRecorder log;
  double now = 12.5;
  log.BindClock(&now);
  Collected sink;
  ASSERT_TRUE(log.Claim(sink.Sink()));

  StateDelta visit = StateDelta::Object(RecEvent::kIopVisit, 7, Key(1), 10.0);
  visit.gate = 25.0;  // Departure write judged at the next hop's arrival.
  log.Publish(visit);
  log.Publish(StateDelta::Finger(3, 17));
  const hash::Prefix prefix{0b1011ull << 60, 4};
  log.Publish(StateDelta::Index(RecEvent::kIndexUpsert, 8, Key(2),
                                /*individual=*/false, prefix, 30.0));
  log.Publish(StateDelta::Shape(9, prefix, /*individual=*/true));
  EXPECT_TRUE(sink.events.empty());  // Staged until a drain.
  log.Flush();
  EXPECT_EQ(log.Published(), 4u);

  ASSERT_EQ(sink.events.size(), 4u);
  const RecordedEvent& v = sink.events[0];
  EXPECT_EQ(v.event, RecEvent::kIopVisit);
  EXPECT_EQ(v.actor, 7u);
  EXPECT_EQ(v.object, Key(1));
  EXPECT_TRUE(v.has_object);
  EXPECT_EQ(v.arg, 10.0);
  EXPECT_EQ(v.gate, 25.0);
  EXPECT_EQ(v.when, 12.5);

  const RecordedEvent& f = sink.events[1];
  EXPECT_EQ(f.event, RecEvent::kRingFinger);
  EXPECT_EQ(f.actor, 3u);
  EXPECT_EQ(f.slot, 17u);
  EXPECT_FALSE(f.has_object);

  const RecordedEvent& u = sink.events[2];
  EXPECT_EQ(u.event, RecEvent::kIndexUpsert);
  EXPECT_EQ(u.object, Key(2));
  EXPECT_EQ(u.arg, 30.0);
  EXPECT_EQ(u.prefix(), prefix);
  EXPECT_FALSE(u.individual);

  const RecordedEvent& s = sink.events[3];
  EXPECT_EQ(s.event, RecEvent::kPrefixShape);
  EXPECT_EQ(s.actor, 9u);
  EXPECT_EQ(s.prefix(), prefix);
  EXPECT_TRUE(s.individual);
  log.Release();
}

TEST(FlightRecorderLog, IndexUpsertBeforeEraseOrderIsKept) {
  FlightRecorder log;
  Collected sink;
  ASSERT_TRUE(log.Claim(sink.Sink()));
  // Interleave other kinds between the upsert and its erase: the site
  // mirror depends on the index stream keeping publish order.
  log.Publish(StateDelta::Index(RecEvent::kIndexUpsert, 8, Key(2), true,
                                hash::Prefix{}, 30.0));
  log.Publish(StateDelta::Object(RecEvent::kReplicaUpsert, 5, Key(2), 30.0));
  log.Publish(StateDelta::Index(RecEvent::kIndexErase, 8, Key(2), true,
                                hash::Prefix{}));
  log.Publish(StateDelta::Index(RecEvent::kIndexUpsert, 8, Key(2), true,
                                hash::Prefix{}, 40.0));
  log.Flush();

  std::vector<RecordedEvent> index;
  for (const RecordedEvent& e : sink.events) {
    if (e.event == RecEvent::kIndexUpsert || e.event == RecEvent::kIndexErase) {
      index.push_back(e);
    }
  }
  ASSERT_EQ(index.size(), 3u);
  EXPECT_EQ(index[0].event, RecEvent::kIndexUpsert);
  EXPECT_EQ(index[0].arg, 30.0);
  EXPECT_EQ(index[1].event, RecEvent::kIndexErase);
  EXPECT_EQ(index[2].event, RecEvent::kIndexUpsert);
  EXPECT_EQ(index[2].arg, 40.0);
  EXPECT_LT(index[0].seq, index[1].seq);
  EXPECT_LT(index[1].seq, index[2].seq);
  log.Release();
}

TEST(FlightRecorderLog, MoreThanOneStageReachesTheConsumerInOrder) {
  FlightRecorder log;
  Collected sink;
  ASSERT_TRUE(log.Claim(sink.Sink()));
  // Well past the 4096-record stage: full stages drain on their own.
  constexpr std::uint32_t kCount = 10'000;
  for (std::uint32_t i = 0; i < kCount; ++i) {
    log.Publish(StateDelta::Object(RecEvent::kObjectTruth,
                                   FlightRecorder::kWorldActor, Key(i),
                                   static_cast<double>(i)));
  }
  EXPECT_GE(sink.batches, 2u);
  EXPECT_LT(sink.events.size(), kCount);  // The tail is still staged.
  log.Flush();
  ASSERT_EQ(sink.events.size(), kCount);
  for (std::uint32_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(sink.events[i].object, Key(i)) << "at " << i;
    ASSERT_EQ(sink.events[i].seq, i + 1u) << "at " << i;
  }
  log.Release();
}

TEST(FlightRecorderLog, ZeroCapacityConsumerIsFedWithoutRings) {
  FlightRecorder log(/*events_per_actor=*/0);
  Collected sink;
  ASSERT_TRUE(log.Claim(sink.Sink()));
  EXPECT_FALSE(log.Enabled());
  log.RecordMessage(RecEvent::kMsgSend, 1, 2, 3);
  log.RecordProtocol(RecEvent::kRpcRetry, 1, 2, {}, false);
  log.Publish(StateDelta::Ring(RecEvent::kRingNeighbors, 1));
  EXPECT_EQ(log.EventsRecorded(), 1u);  // Only the state record.
  EXPECT_EQ(log.WindowSize(1), 0u);     // Reads flush, but keep no ring.
  ASSERT_EQ(sink.events.size(), 1u);
  EXPECT_EQ(sink.events[0].event, RecEvent::kRingNeighbors);
  EXPECT_EQ(log.ActorRings(), 0u);
  log.Release();
}

TEST(FlightRecorderLog, ReleasedConsumerIsNeverCalledAgain) {
  FlightRecorder log(/*events_per_actor=*/8);
  Collected sink;
  ASSERT_TRUE(log.Claim(sink.Sink()));
  log.Publish(StateDelta::Ring(RecEvent::kMembership, 1));
  log.Release();
  // The backlog staged before the release and everything after it reach
  // the rings only.
  log.Publish(StateDelta::Finger(1, 3));
  log.Flush();
  EXPECT_TRUE(sink.events.empty());
  EXPECT_EQ(sink.batches, 0u);
  EXPECT_EQ(log.WindowSize(1), 2u);
}

}  // namespace
}  // namespace peertrack::obs
