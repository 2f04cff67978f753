#include "obs/span.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/sink.hpp"
#include "schemes/skyscraper.hpp"
#include "sim/simulator.hpp"
#include "util/contracts.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace vodbcast::obs {
namespace {

Span at(double start, double end, SpanPhase phase = SpanPhase::kSession,
        std::uint64_t parent = 0) {
  Span s;
  s.parent = parent;
  s.start_min = start;
  s.end_min = end;
  s.phase = phase;
  return s;
}

TEST(SpanTracerTest, RecordsUpToCapacity) {
  SpanTracer tracer(4);
  for (int i = 0; i < 3; ++i) {
    tracer.record(at(static_cast<double>(i), static_cast<double>(i) + 1.0));
  }
  EXPECT_EQ(tracer.size(), 3U);
  EXPECT_EQ(tracer.recorded(), 3U);
  EXPECT_EQ(tracer.dropped(), 0U);
}

TEST(SpanTracerTest, WraparoundKeepsNewestAndCountsDropped) {
  SpanTracer tracer(4);
  for (int i = 0; i < 10; ++i) {
    tracer.record(at(static_cast<double>(i), static_cast<double>(i) + 1.0));
  }
  EXPECT_EQ(tracer.size(), 4U);
  EXPECT_EQ(tracer.recorded(), 10U);
  EXPECT_EQ(tracer.dropped(), 6U);
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4U);
  EXPECT_DOUBLE_EQ(spans.front().start_min, 6.0);
  EXPECT_DOUBLE_EQ(spans.back().start_min, 9.0);
}

TEST(SpanTracerTest, RejectsZeroCapacity) {
  EXPECT_THROW(SpanTracer(0), util::ContractViolation);
}

TEST(SpanTracerTest, IdsStartAtOneAndNeverRepeat) {
  SpanTracer tracer(2);
  EXPECT_EQ(tracer.record(at(0.0, 1.0)), 1U);
  EXPECT_EQ(tracer.record(at(1.0, 2.0)), 2U);
  // Overwrites drop old spans but never recycle ids.
  EXPECT_EQ(tracer.record(at(2.0, 3.0)), 3U);
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2U);
  EXPECT_EQ(spans[0].id, 2U);
  EXPECT_EQ(spans[1].id, 3U);
}

TEST(SpanTracerTest, SpansOrderedByStartWithStableTies) {
  SpanTracer tracer(8);
  Span a = at(3.0, 4.0, SpanPhase::kTune);
  a.client = 1;
  Span b = at(3.0, 4.0, SpanPhase::kPlayback);
  b.client = 2;
  tracer.record(at(5.0, 6.0));
  tracer.record(a);
  tracer.record(b);
  tracer.record(at(1.0, 2.0));
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4U);
  EXPECT_DOUBLE_EQ(spans[0].start_min, 1.0);
  EXPECT_EQ(spans[1].client, 1U);  // equal start: recording order preserved
  EXPECT_EQ(spans[2].client, 2U);
  EXPECT_DOUBLE_EQ(spans[3].start_min, 5.0);
}

TEST(SpanTracerTest, ClearResetsCountsAndIds) {
  SpanTracer tracer(2);
  tracer.record(at(0.0, 1.0));
  tracer.record(at(1.0, 2.0));
  tracer.record(at(2.0, 3.0));
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0U);
  EXPECT_EQ(tracer.recorded(), 0U);
  EXPECT_EQ(tracer.dropped(), 0U);
  EXPECT_EQ(tracer.record(at(0.0, 1.0)), 1U);
}

TEST(SpanTracerTest, MergeRemapsIdsAndParentLinks) {
  SpanTracer src(8);
  const auto parent = src.record(at(0.0, 10.0));
  src.record(at(0.0, 1.0, SpanPhase::kTune, parent));
  SpanTracer dst(8);
  dst.record(at(5.0, 6.0));  // takes id 1 in the destination
  dst.merge_from(src);
  const auto spans = dst.spans();
  ASSERT_EQ(spans.size(), 3U);
  // Transferred spans get fresh ids; the child's parent follows the remap.
  EXPECT_EQ(spans[0].id, 2U);
  EXPECT_EQ(spans[0].parent, 0U);
  EXPECT_EQ(spans[1].id, 3U);
  EXPECT_EQ(spans[1].parent, 2U);
  EXPECT_EQ(spans[2].id, 1U);
}

TEST(SpanTracerTest, MergeKeepsAChildThatStartsBeforeItsParent) {
  // ctrl's shape: the epoch is recorded first, then a queued session it
  // absorbed, which arrived (and so starts) before the epoch.
  SpanTracer src(8);
  const auto epoch = src.record(at(60.0, 60.0, SpanPhase::kEpoch));
  src.record(at(10.0, 70.0, SpanPhase::kSession, epoch));
  SpanTracer dst(8);
  dst.record(at(5.0, 6.0));  // takes id 1 in the destination
  dst.merge_from(src);
  const auto spans = dst.spans();
  ASSERT_EQ(spans.size(), 3U);
  // Start order re-records the session before its epoch; the link holds.
  EXPECT_EQ(spans[1].phase, SpanPhase::kSession);
  EXPECT_EQ(spans[1].id, 2U);
  EXPECT_EQ(spans[2].phase, SpanPhase::kEpoch);
  EXPECT_EQ(spans[2].id, 3U);
  EXPECT_EQ(spans[1].parent, 3U);
  EXPECT_EQ(spans[2].parent, 0U);
}

TEST(SpanTracerTest, MergeTurnsLostParentsIntoRoots) {
  SpanTracer src(1);
  const auto parent = src.record(at(0.0, 10.0));
  src.record(at(0.0, 1.0, SpanPhase::kTune, parent));  // evicts the parent
  ASSERT_EQ(src.dropped(), 1U);
  SpanTracer dst(8);
  dst.merge_from(src);
  const auto spans = dst.spans();
  ASSERT_EQ(spans.size(), 1U);
  EXPECT_EQ(spans[0].parent, 0U);
  EXPECT_EQ(spans[0].phase, SpanPhase::kTune);
}

// The one session emitter: a session root, its wait child and (unless the
// session reneged) its playback child, with sequential ids and parent links.
TEST(RecordSessionTest, BuildsTheSessionTree) {
  SpanTracer tracer;
  const auto epoch = tracer.record(at(0.0, 60.0, SpanPhase::kEpoch));
  const auto tuned = record_session(tracer, {.video = 2,
                                             .client = 1,
                                             .arrival_min = 1.0,
                                             .served_min = 1.75,
                                             .duration_min = 30.0});
  const auto absorbed =
      record_session(tracer, {.parent = epoch,
                              .video = 3,
                              .client = 2,
                              .arrival_min = 4.0,
                              .served_min = 10.5,
                              .wait_phase = SpanPhase::kQueueWait,
                              .duration_min = 30.0,
                              .playback_channel = 5});
  EXPECT_EQ(tuned, 2U);
  EXPECT_EQ(absorbed, 5U);
  ASSERT_EQ(tracer.recorded(), 7U);

  std::map<std::uint64_t, Span> by_id;
  for (const auto& s : tracer.spans()) {
    by_id[s.id] = s;
  }
  const auto expect = [&](std::uint64_t id, std::uint64_t parent,
                          SpanPhase phase, double start, double end,
                          double value, std::int32_t channel) {
    SCOPED_TRACE(id);
    const auto& s = by_id.at(id);
    EXPECT_EQ(s.parent, parent);
    EXPECT_EQ(s.phase, phase);
    EXPECT_EQ(s.start_min, start);
    EXPECT_EQ(s.end_min, end);
    EXPECT_EQ(s.value, value);
    EXPECT_EQ(s.channel, channel);
  };
  expect(2, 0, SpanPhase::kSession, 1.0, 31.75, 0.75, 0);
  expect(3, 2, SpanPhase::kTune, 1.0, 1.75, 0.75, 0);
  expect(4, 2, SpanPhase::kPlayback, 1.75, 31.75, 30.0, 0);
  expect(5, epoch, SpanPhase::kSession, 4.0, 40.5, 6.5, 0);
  expect(6, 5, SpanPhase::kQueueWait, 4.0, 10.5, 6.5, 0);
  expect(7, 5, SpanPhase::kPlayback, 10.5, 40.5, 30.0, 5);
  EXPECT_EQ(by_id.at(6).video, 3U);
  EXPECT_EQ(by_id.at(7).client, 2U);
}

TEST(RecordSessionTest, RenegeRecordsSessionAndQueueWaitOnly) {
  SpanTracer tracer;
  const auto id = record_session(tracer, {.video = 4,
                                          .client = 9,
                                          .arrival_min = 10.0,
                                          .served_min = 12.25,
                                          .wait_phase = SpanPhase::kQueueWait,
                                          .reneged = true,
                                          .duration_min = 30.0});
  EXPECT_EQ(id, 1U);
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2U);
  EXPECT_EQ(spans[0].phase, SpanPhase::kSession);
  EXPECT_EQ(spans[0].parent, 0U);
  EXPECT_EQ(spans[0].end_min, 12.25);  // ends when the client gave up
  EXPECT_EQ(spans[0].value, 2.25);
  EXPECT_EQ(spans[1].phase, SpanPhase::kQueueWait);
  EXPECT_EQ(spans[1].parent, id);
  EXPECT_EQ(spans[1].end_min, 12.25);
  EXPECT_EQ(spans[1].value, 2.25);
}

TEST(SpanTracerTest, EveryPhaseHasAName) {
  for (const auto phase :
       {SpanPhase::kSession, SpanPhase::kQueueWait, SpanPhase::kTune,
        SpanPhase::kSegmentDownload, SpanPhase::kPlayback,
        SpanPhase::kRetransmit, SpanPhase::kDiskStall, SpanPhase::kEpoch,
        SpanPhase::kDrain, SpanPhase::kFaultEpisode, SpanPhase::kRepair,
        SpanPhase::kRegionSession, SpanPhase::kReroute}) {
    EXPECT_STRNE(to_string(phase), "unknown");
  }
}

TEST(SpanTracerTest, JsonlRoundTripsFields) {
  SpanTracer tracer(8);
  Span s = at(2.5, 4.5, SpanPhase::kTune, 0);
  s.channel = 3;
  s.video = 7;
  s.client = 11;
  s.value = 2.0;
  tracer.record(s);
  EXPECT_EQ(tracer.to_jsonl(),
            "{\"id\":1,\"parent\":0,\"phase\":\"tune\",\"start\":2.5,"
            "\"end\":4.5,\"channel\":3,\"video\":7,\"client\":11,"
            "\"value\":2}\n");
}

TEST(SpanTracerTest, ExportedNumbersMatchPrintf17g) {
  // The exports write doubles through util::json::append_exact, which must
  // print every double exactly as snprintf("%.17g") does: the span pins and
  // every capture on disk were written that way.
  const auto printf_17g = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return std::string(buf);
  };
  const auto exact = [](double v) {
    std::string out = "x";  // appends, never overwrites
    util::json::append_exact(out, v);
    return out.substr(1);
  };
  std::vector<double> values{0.0,     -0.0,     DBL_MIN,     -DBL_MIN,
                             DBL_MAX, -DBL_MAX, DBL_EPSILON, 1.0,
                             -1.0,    0.1,      1.0 / 3.0,   123456789.0,
                             0x1p53,  0x1p63,   1e300,       0x1p53 + 2.0};
  // Subnormals, from the smallest to the largest.
  for (double v = DBL_TRUE_MIN; v < DBL_MIN; v *= 7.0) {
    values.push_back(v);
    values.push_back(-v);
  }
  values.push_back(std::nextafter(DBL_MIN, 0.0));
  // %g switches to the exponent form below 1e-4 and from 1e17 on, after
  // rounding to 17 digits: walk the neighbours of each switch point.
  for (const double pivot : {1e-5, 1e-4, 1e16, 1e17, 1e18}) {
    double down = pivot;
    double up = pivot;
    for (int k = 0; k < 16; ++k) {
      values.push_back(down);
      values.push_back(up);
      down = std::nextafter(down, 0.0);
      up = std::nextafter(up, DBL_MAX);
    }
  }
  for (int i = -1000; i <= 1000; ++i) {
    values.push_back(static_cast<double>(i));
  }
  for (const double v : values) {
    ASSERT_EQ(exact(v), printf_17g(v)) << std::bit_cast<std::uint64_t>(v);
  }
  // Random finite bit patterns cover every exponent and mantissa shape.
  util::Rng rng(20261019);
  std::size_t checked = 0;
  while (checked < 1000000) {
    const double v = std::bit_cast<double>(rng.next_u64());
    if (!std::isfinite(v)) {
      continue;
    }
    ++checked;
    const std::string got = exact(v);
    if (got != printf_17g(v)) {
      FAIL() << std::bit_cast<std::uint64_t>(v) << ": " << got << " vs "
             << printf_17g(v);
    }
  }
}

TEST(SpanTracerTest, JsonlEmitsLabelOnlyWhenPresent) {
  SpanTracer tracer(8);
  Span s = at(0.0, 1.0);
  s.label = "epoch #3";
  tracer.record(s);
  tracer.record(at(1.0, 2.0));
  const std::string jsonl = tracer.to_jsonl();
  std::istringstream lines(jsonl);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_NE(line.find("\"label\":\"epoch #3\""), std::string::npos);
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.find("\"label\""), std::string::npos);
}

// Hostile display names — quotes, backslashes, control characters, raw
// non-ASCII bytes — must come out of the chrome export as valid JSON that
// parses back to the original strings.
TEST(SpanTracerTest, ChromeTraceEscapesHostileLabels) {
  const std::vector<std::string> hostile = {
      "qu\"ote\"s",
      "back\\slash\\path",
      "tab\there\nnewline",
      "na\xc3\xafve r\xc3\xa9sum\xc3\xa9",  // UTF-8 passes through
  };
  SpanTracer tracer(8);
  for (const auto& label : hostile) {
    Span s = at(0.0, 1.0);
    s.label = label;
    tracer.record(s);
  }
  const std::string json = tracer.to_chrome_trace();
  util::json::Value doc;
  ASSERT_NO_THROW(doc = util::json::parse(json)) << json;
  std::vector<std::string> names;
  for (const auto& event : doc.at("traceEvents").as_array()) {
    if (event.string_or("cat", "") == "vodbcast.span") {
      names.push_back(event.at("name").as_string());
    }
  }
  ASSERT_EQ(names.size(), hostile.size());
  for (const auto& label : hostile) {
    EXPECT_NE(std::find(names.begin(), names.end(), label), names.end())
        << "label lost in translation: " << label;
  }
}

TEST(SpanTracerTest, ChromeTraceDrawsFlowArrowsOnlyAcrossChannels) {
  SpanTracer tracer(8);
  Span session = at(0.0, 10.0);
  session.channel = 0;
  const auto sid = tracer.record(session);
  Span tune = at(0.0, 1.0, SpanPhase::kTune, sid);
  tune.channel = 0;  // same track: no arrow
  tracer.record(tune);
  Span download = at(0.5, 4.5, SpanPhase::kSegmentDownload, sid);
  download.channel = 3;  // cross-track: one s/f arrow pair
  const auto did = tracer.record(download);
  const std::string json = tracer.to_chrome_trace();
  const auto doc = util::json::parse(json);
  std::size_t starts = 0;
  std::size_t finishes = 0;
  for (const auto& event : doc.at("traceEvents").as_array()) {
    if (event.string_or("cat", "") != "vodbcast.flow") {
      continue;
    }
    EXPECT_DOUBLE_EQ(event.at("id").as_number(), static_cast<double>(did));
    if (event.at("ph").as_string() == "s") {
      ++starts;
      EXPECT_DOUBLE_EQ(event.at("tid").as_number(), 0.0);
    } else if (event.at("ph").as_string() == "f") {
      ++finishes;
      EXPECT_DOUBLE_EQ(event.at("tid").as_number(), 3.0);
    }
  }
  EXPECT_EQ(starts, 1U);
  EXPECT_EQ(finishes, 1U);
}

TEST(SpanTracerTest, FoldedStacksCarrySelfTimeInMicros) {
  SpanTracer tracer(8);
  const auto sid = tracer.record(at(0.0, 10.0));
  tracer.record(at(0.0, 1.0, SpanPhase::kTune, sid));
  tracer.record(at(1.0, 10.0, SpanPhase::kPlayback, sid));
  // Download overlaps playback entirely; the union cover leaves the session
  // no self-time and the download its full interval on its own stack line.
  tracer.record(at(1.0, 5.0, SpanPhase::kSegmentDownload, sid));
  const std::string folded = tracer.to_folded();
  EXPECT_NE(folded.find("session;tune 1000000\n"), std::string::npos)
      << folded;
  EXPECT_NE(folded.find("session;playback 9000000\n"), std::string::npos);
  EXPECT_NE(folded.find("session;segment_download 4000000\n"),
            std::string::npos);
  // Fully covered by children: no self-time line for the session itself.
  EXPECT_EQ(folded.find("session "), std::string::npos);
}

TEST(SpanDropAccountingTest, PublishDropMetricsExposesSpanLoss) {
  Sink sink(16, 2);
  for (int i = 0; i < 5; ++i) {
    sink.spans.record(at(static_cast<double>(i), static_cast<double>(i) + 1));
  }
  publish_drop_metrics(sink);
  EXPECT_EQ(sink.metrics.counter("obs.spans.dropped").value(), 3U);
  // Idempotent: a second export must not double-count.
  publish_drop_metrics(sink);
  EXPECT_EQ(sink.metrics.counter("obs.spans.dropped").value(), 3U);
}

// End-to-end: a simulated SB run must produce a coherent span tree — one
// session per served client, tune children whose duration equals the
// session's reported wait, playback and downloads nested inside the session
// interval.
TEST(SpanTracerTest, SimulationEmitsCoherentSpanTree) {
  const schemes::SkyscraperScheme sb(52);
  const schemes::DesignInput input{
      core::MbitPerSec{300.0}, 10,
      core::VideoParams{core::Minutes{120.0}, core::MbitPerSec{1.5}}};
  Sink sink(65536, 65536);
  sim::SimulationConfig config;
  config.horizon = core::Minutes{60.0};
  config.arrivals_per_minute = 2.0;
  config.plan_clients = true;
  config.sink = &sink;
  const auto report = sim::simulate(sb, input, config);
  ASSERT_GT(report.clients_served, 0U);
  ASSERT_EQ(sink.spans.dropped(), 0U);

  const auto spans = sink.spans.spans();
  std::map<std::uint64_t, const Span*> by_id;
  for (const auto& s : spans) {
    by_id.emplace(s.id, &s);
  }
  std::size_t sessions = 0;
  std::size_t tunes = 0;
  std::size_t playbacks = 0;
  std::size_t downloads = 0;
  for (const auto& s : spans) {
    EXPECT_GE(s.end_min, s.start_min);
    switch (s.phase) {
      case SpanPhase::kSession:
        ++sessions;
        EXPECT_EQ(s.parent, 0U);
        EXPECT_GE(s.value, 0.0);
        break;
      case SpanPhase::kTune: {
        ++tunes;
        ASSERT_NE(s.parent, 0U);
        const auto* session = by_id.at(s.parent);
        EXPECT_EQ(session->phase, SpanPhase::kSession);
        EXPECT_EQ(session->client, s.client);
        // The tune span *is* the reported wait.
        EXPECT_NEAR(s.end_min - s.start_min, session->value, 1e-12);
        EXPECT_DOUBLE_EQ(s.start_min, session->start_min);
        break;
      }
      case SpanPhase::kPlayback: {
        ++playbacks;
        ASSERT_NE(s.parent, 0U);
        const auto* session = by_id.at(s.parent);
        EXPECT_NEAR(s.end_min, session->end_min, 1e-9);
        break;
      }
      case SpanPhase::kSegmentDownload: {
        ++downloads;
        ASSERT_NE(s.parent, 0U);
        const auto* session = by_id.at(s.parent);
        EXPECT_GE(s.start_min, session->start_min - 1e-9);
        EXPECT_GT(s.value, 0.0);  // segment length, minutes
        break;
      }
      default:
        break;
    }
  }
  EXPECT_EQ(sessions, report.clients_served);
  EXPECT_EQ(tunes, report.clients_served);
  EXPECT_EQ(playbacks, report.clients_served);
  EXPECT_GT(downloads, 0U);
}

}  // namespace
}  // namespace vodbcast::obs
