// FlightRecorder unit tests: ring wraparound at capacity, bundle capture
// while a ring is mid-wrap, the zero-capacity disabled path, and the
// recording-on/off bit-identity guarantee (same-seed perf_smoke runs must
// produce identical simulation metrics whether the black box records or
// not — recording is purely observational).

#include <gtest/gtest.h>

#include <filesystem>

#include "obs/flight_recorder.hpp"
#include "util/format.hpp"
#include "workload/perf_smoke.hpp"

namespace peertrack::obs {
namespace {

hash::UInt160 Key(int i) {
  return hash::ObjectKey(util::Format("epc:rec-{}", i));
}

TEST(FlightRecorder, WrapsAtCapacityKeepingTheNewestEvents) {
  FlightRecorder recorder(/*events_per_actor=*/4);
  double now = 0.0;
  recorder.BindClock(&now);

  for (int i = 0; i < 10; ++i) {
    now = static_cast<double>(i) * 10.0;
    recorder.RecordMessage(RecEvent::kMsgSend, /*actor=*/7, /*peer=*/8,
                           /*type=*/static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(recorder.EventsRecorded(), 10u);
  EXPECT_EQ(recorder.LastSeq(), 10u);
  ASSERT_EQ(recorder.WindowSize(7), 4u);

  // Oldest-first window holding exactly the newest capacity events, with
  // contiguous seq numbers — wraparound dropped 1..6, kept 7..10.
  const auto window = recorder.Window(7);
  ASSERT_EQ(window.size(), 4u);
  for (std::size_t i = 0; i < window.size(); ++i) {
    EXPECT_EQ(window[i].seq, 7u + i);
    EXPECT_DOUBLE_EQ(window[i].when, static_cast<double>(6 + i) * 10.0);
    EXPECT_EQ(window[i].actor, 7u);
    EXPECT_EQ(window[i].msg.peer, 8u);
    EXPECT_EQ(window[i].event, RecEvent::kMsgSend);
  }
}

TEST(FlightRecorder, BeforeWrapTheWindowIsPartial) {
  FlightRecorder recorder(/*events_per_actor=*/8);
  recorder.RecordMessage(RecEvent::kMsgSend, 1, 2, 0);
  recorder.RecordMessage(RecEvent::kMsgRecv, 1, 2, 0);
  ASSERT_EQ(recorder.WindowSize(1), 2u);
  const auto window = recorder.Window(1);
  EXPECT_EQ(window[0].seq, 1u);
  EXPECT_EQ(window[1].seq, 2u);
  // Untouched actors have no ring at all.
  EXPECT_EQ(recorder.WindowSize(99), 0u);
  EXPECT_TRUE(recorder.Window(99).empty());
}

TEST(FlightRecorder, CollectCapturesUnderWrapAndMergesInTimeOrder) {
  FlightRecorder recorder(/*events_per_actor=*/3);
  double now = 0.0;
  recorder.BindClock(&now);
  const hash::UInt160 object = Key(0);

  // Actor 1 wraps (5 appends into a 3-slot ring), actor 2 does not. The
  // object-carrying write on actor 2 pulls it into the bundle even though
  // only actor 1 is implicated.
  for (int i = 0; i < 5; ++i) {
    now = 100.0 + i;
    recorder.RecordMessage(RecEvent::kMsgSend, 1, 2, 0);
  }
  now = 102.5;  // Interleaves between actor 1's retained events.
  recorder.Publish(StateDelta::Index(RecEvent::kIndexUpsert, /*actor=*/2,
                                     object, /*individual=*/false,
                                     hash::Prefix{}, /*when=*/90.0));

  ForensicTrigger trigger;
  trigger.check = "test.check";
  trigger.subject = "s";
  trigger.actor = 1;
  trigger.event_seq = recorder.LastSeq();
  trigger.object = object;
  trigger.has_object = true;

  const ForensicBundle bundle = recorder.Collect(trigger, {1});
  ASSERT_EQ(bundle.actors.size(), 2u);  // Implicated + object holder.
  // Actor 1 contributes only its retained (post-wrap) window of 3.
  ASSERT_EQ(bundle.events.size(), 4u);
  for (std::size_t i = 1; i < bundle.events.size(); ++i) {
    const bool ordered =
        bundle.events[i - 1].when < bundle.events[i].when ||
        (bundle.events[i - 1].when == bundle.events[i].when &&
         bundle.events[i - 1].seq < bundle.events[i].seq);
    EXPECT_TRUE(ordered) << "merge not (when, seq) ascending at " << i;
  }
  // The object write landed between actor 1's events at 102 and 103.
  EXPECT_DOUBLE_EQ(bundle.events[1].when, 102.5);
  EXPECT_EQ(bundle.events[1].actor, 2u);
  EXPECT_TRUE(bundle.events[1].has_object);
  EXPECT_EQ(bundle.events[1].object, object);
}

TEST(FlightRecorder, ZeroCapacityDisablesEverything) {
  FlightRecorder recorder(/*events_per_actor=*/0);
  EXPECT_FALSE(recorder.Enabled());
  recorder.RecordMessage(RecEvent::kMsgSend, 1, 2, 3);
  recorder.Publish(StateDelta::Object(RecEvent::kIndexUpsert, 1, Key(1), 0.0));
  recorder.RecordProtocol(RecEvent::kRpcRetry, 1, 2, {}, false);
  EXPECT_EQ(recorder.EventsRecorded(), 0u);
  EXPECT_EQ(recorder.ActorRings(), 0u);
  EXPECT_EQ(recorder.WindowSize(1), 0u);

  ForensicTrigger trigger;
  trigger.check = "c";
  trigger.subject = "s";
  const ForensicBundle bundle = recorder.Collect(trigger, {1});
  EXPECT_TRUE(bundle.events.empty());
}

TEST(FlightRecorder, BundleFilesAreWrittenWithDeterministicStems) {
  FlightRecorder recorder(/*events_per_actor=*/4);
  recorder.RegisterTypeName(0, "TestMsg");
  recorder.RecordMessage(RecEvent::kMsgSend, 1, 2, 0);

  ForensicTrigger trigger;
  trigger.check = "gateway.staleness";
  trigger.subject = "abcd1234";
  trigger.event_seq = recorder.LastSeq();
  const ForensicBundle bundle = recorder.Collect(trigger, {1});

  const std::string dir =
      (std::filesystem::temp_directory_path() / "peertrack-rec-test").string();
  std::filesystem::remove_all(dir);
  const std::string path = recorder.WriteBundle(bundle, dir);
  ASSERT_FALSE(path.empty());
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_NE(path.find("gateway.staleness"), std::string::npos);
  EXPECT_NE(path.find("abcd1234"), std::string::npos);
  // The Perfetto twin lands next to the JSON.
  std::string perfetto = path;
  perfetto.replace(perfetto.rfind(".json"), 5, ".perfetto.json");
  EXPECT_TRUE(std::filesystem::exists(perfetto));

  const std::string json = recorder.ToJson(bundle);
  EXPECT_NE(json.find("\"schema\": \"peertrack.forensics.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"msg.send\""), std::string::npos);
  EXPECT_NE(json.find("TestMsg"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(FlightRecorder, RecordingOnOrOffIsBitIdentical) {
  // Same seed, recorder on vs off: the simulation must not notice. This is
  // the contract that lets recording stay always-on in production runs.
  workload::PerfSmokeParams on;
  on.nodes = 12;
  on.objects = 240;
  on.queries = 8;
  on.recorder_events = 64;
  workload::PerfSmokeParams off = on;
  off.recorder_events = 0;

  const auto report_on = workload::RunPerfSmoke(on);
  const auto report_off = workload::RunPerfSmoke(off);
  EXPECT_GT(report_on.recorder_events, 0u);
  EXPECT_EQ(report_off.recorder_events, 0u);
  EXPECT_EQ(report_on.events, report_off.events);
  EXPECT_EQ(report_on.messages, report_off.messages);
  EXPECT_EQ(report_on.sim_time_ms, report_off.sim_time_ms);
  EXPECT_EQ(report_on.metric_rows, report_off.metric_rows);
}

}  // namespace
}  // namespace peertrack::obs
