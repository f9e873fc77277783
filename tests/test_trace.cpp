// Trace subsystem tests (DESIGN.md §12): SPSC ring wrap/overflow/drop
// accounting, histogram merge associativity, the `.rtrace` write -> read
// round trip (string table, delta-encoded events, histograms, drops),
// runtime sampling semantics (scalar countdown, one event per batch span,
// mem-mode deviation buckets), an 8-thread producers-vs-drainer stress
// that runs under ThreadSanitizer in CI, the hardened codec (adversarial /
// truncated input, overlong-varint rejection, tolerant + streaming
// readers), label-keyed multi-shard merge, and segment rotation with
// compaction.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "runtime/runtime.hpp"
#include "support/rng.hpp"
#include "trace/analysis.hpp"
#include "trace/ring.hpp"
#include "trunc/scope.hpp"

namespace raptor {
namespace {

using rt::OpKind;
using rt::Runtime;

trace::Event make_event(int i) {
  trace::Event e;
  e.kind = static_cast<u8>(i % 7);
  e.region = static_cast<u16>(i % 3);
  e.exp_min = e.exp_max = static_cast<i16>(i - 50);
  e.count = static_cast<u32>(1 + i % 4);
  return e;
}

// -- SpscRing ---------------------------------------------------------------

TEST(SpscRing, FifoOrderAcrossWrap) {
  trace::SpscRing ring(8);
  std::vector<trace::Event> drained;
  int produced = 0;
  // Repeatedly fill and drain so head/tail wrap the capacity several times.
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(ring.try_push(make_event(produced++)));
    ring.pop_into(drained);
  }
  ASSERT_EQ(drained.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(drained[static_cast<std::size_t>(i)], make_event(i));
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(SpscRing, OverflowDropsAndCounts) {
  trace::SpscRing ring(8);
  int accepted = 0;
  for (int i = 0; i < 20; ++i) accepted += ring.try_push(make_event(i)) ? 1 : 0;
  EXPECT_EQ(accepted, 8);
  EXPECT_EQ(ring.dropped(), 12u);
  EXPECT_EQ(ring.size(), 8u);
  // The drop left the first 8 events intact (no overwrite), and draining
  // reopens capacity.
  std::vector<trace::Event> drained;
  EXPECT_EQ(ring.pop_into(drained), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(drained[static_cast<std::size_t>(i)], make_event(i));
  EXPECT_TRUE(ring.try_push(make_event(99)));
  // The drop counter is cumulative (the stop()-time accounting reads it once).
  EXPECT_EQ(ring.dropped(), 12u);
}

TEST(SpscRing, RejectsNonPowerOfTwoCapacity) {
  EXPECT_DEATH(trace::SpscRing ring(12), "power of two");
}

// -- Histograms -------------------------------------------------------------

TEST(ExpHistogram, ClassifiesSentinelsAndBins) {
  trace::ExpHistogram h;
  h.add(0.0);
  h.add(-0.0);
  h.add(std::numeric_limits<double>::infinity());
  h.add(std::nan(""));
  h.add(1.0);      // exponent 0
  h.add(0.75);     // exponent -1
  h.add(5e-310);   // fp64 subnormal
  EXPECT_EQ(h.zero, 2u);
  EXPECT_EQ(h.inf, 1u);
  EXPECT_EQ(h.nan, 1u);
  EXPECT_EQ(h.finite, 3u);
  EXPECT_EQ(h.subnormal, 1u);
  EXPECT_EQ(h.max_exp, 0);
  EXPECT_LT(h.min_exp, -1022);  // the subnormal's true exponent
  EXPECT_EQ(h.total(), 7u);
}

TEST(DevHistogram, BucketBoundaries) {
  using DH = trace::DevHistogram;
  EXPECT_EQ(DH::bucket_of(0.0), 0);
  EXPECT_EQ(DH::bucket_of(1.0), 1);
  EXPECT_EQ(DH::bucket_of(std::numeric_limits<double>::infinity()), 1);
  EXPECT_EQ(DH::bucket_of(std::nan("")), 1);
  EXPECT_EQ(DH::bucket_of(0.5), 2);    // [0.1, 1)
  EXPECT_EQ(DH::bucket_of(0.05), 3);   // [0.01, 0.1)
  EXPECT_EQ(DH::bucket_of(1e-6), 7);
  EXPECT_EQ(DH::bucket_of(1e-30), DH::kBins - 1);
  // Quantiles walk ascending deviation: with 99 tiny + 1 huge sample, p50
  // is tiny and max_bound reflects the worst bucket.
  DH h;
  for (int i = 0; i < 99; ++i) h.add(1e-8);
  h.add(0.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1e-7);  // bucket upper bound of 1e-8
  EXPECT_DOUBLE_EQ(h.max_bound(), 1.0);     // bucket upper bound of 0.5
}

TEST(Histograms, MergeIsAssociativeAndMatchesDirect) {
  // Three random streams; ((A+B)+C) == (A+(B+C)) == direct accumulation.
  Rng rng(7);
  const auto sample = [&](trace::RegionHist& h, int n) {
    for (int i = 0; i < n; ++i) {
      const int pick = static_cast<int>(rng.next_u64() % 8);
      double v;
      switch (pick) {
        case 0: v = 0.0; break;
        case 1: v = std::numeric_limits<double>::infinity(); break;
        case 2: v = std::nan(""); break;
        case 3: v = 1e-312; break;
        default: v = std::ldexp(rng.uniform(1.0, 2.0), static_cast<int>(rng.next_u64() % 600) - 300);
      }
      h.exp.add(v);
      h.dev.add(rng.uniform(0.0, 1e-3));
    }
  };
  trace::RegionHist a, b, c, direct;
  sample(a, 301);
  sample(b, 173);
  sample(c, 97);
  // Direct: replay the same values (reset the generator).
  Rng rng2(7);
  std::swap(rng, rng2);
  sample(direct, 301 + 173 + 97);

  trace::RegionHist left = a;
  left.merge(b);
  left.merge(c);
  trace::RegionHist bc = b;
  bc.merge(c);
  trace::RegionHist right = a;
  right.merge(bc);
  EXPECT_EQ(left, right);
  EXPECT_EQ(left, direct);
  // Merging an empty histogram is the identity.
  trace::RegionHist with_empty = left;
  with_empty.merge(trace::RegionHist{});
  EXPECT_EQ(with_empty, left);
}

// -- .rtrace round trip -----------------------------------------------------

TEST(Rtrace, WriteReadRoundTripIncludingStringTable) {
  const std::string path = "test_trace_roundtrip.rtrace";
  std::vector<trace::Event> t0, t1;
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    trace::Event e;
    e.kind = static_cast<u8>(rng.next_u64() % 19);
    e.flags = static_cast<u8>(rng.next_u64() % 8);
    e.region = static_cast<u16>(rng.next_u64() % 4);
    if (e.flags & trace::kFlagTruncated) {
      e.fmt_exp = static_cast<u8>(2 + rng.next_u64() % 10);
      e.fmt_man = static_cast<u8>(4 + rng.next_u64() % 48);
    }
    if (e.flags & trace::kFlagMem) {
      e.dev_bucket = static_cast<u8>(rng.next_u64() % trace::DevHistogram::kBins);
    }
    e.exp_min = static_cast<i16>(static_cast<int>(rng.next_u64() % 2000) - 1000);
    e.exp_max = static_cast<i16>(e.exp_min + static_cast<int>(rng.next_u64() % 10));
    e.count = (e.flags & trace::kFlagSpan) ? static_cast<u32>(1 + rng.next_u64() % 10000) : 1;
    (i % 2 == 0 ? t0 : t1).push_back(e);
  }
  trace::RegionHist h;
  for (int i = 0; i < 500; ++i) h.exp.add(std::ldexp(1.0, i % 64 - 32));
  for (int i = 0; i < 50; ++i) h.dev.add(1e-9);

  {
    trace::RtraceWriter w(path, 16, 1 << 10);
    w.string_entry(0, "alpha");
    w.string_entry(1, "beta/gamma");
    w.string_entry(2, "");  // empty label survives
    w.string_entry(3, "d\xC3\xA9j\xC3\xA0 vu");  // UTF-8 bytes pass through
    // Interleaved blocks, as the drainer produces them.
    w.event_block(0, t0.data(), 40);
    w.event_block(1, t1.data(), t1.size());
    w.event_block(0, t0.data() + 40, t0.size() - 40);
    w.hist_block(1, h);
    w.drop_block(0, 7);
    w.drop_block(1, 0);
    w.finish();
    ASSERT_TRUE(w.good());
  }

  const trace::TraceData td = trace::read_rtrace(path);
  std::remove(path.c_str());
  EXPECT_EQ(td.sample_stride, 16u);
  EXPECT_EQ(td.ring_capacity, 1u << 10);
  ASSERT_EQ(td.regions.size(), 4u);
  EXPECT_EQ(td.regions[1], "beta/gamma");
  EXPECT_EQ(td.regions[2], "");
  EXPECT_EQ(td.regions[3], "d\xC3\xA9j\xC3\xA0 vu");
  ASSERT_EQ(td.events.size(), t0.size() + t1.size());
  // Reassemble per-thread streams and compare field by field.
  std::vector<trace::DecodedEvent> d0, d1;
  for (const auto& d : td.events) (d.thread == 0 ? d0 : d1).push_back(d);
  ASSERT_EQ(d0.size(), t0.size());
  ASSERT_EQ(d1.size(), t1.size());
  const auto same = [](const trace::Event& e, const trace::DecodedEvent& d) {
    return d.kind == e.kind && d.flags == e.flags && d.region == e.region &&
           d.fmt_exp == e.fmt_exp && d.fmt_man == e.fmt_man && d.dev_bucket == e.dev_bucket &&
           d.exp_min == e.exp_min && d.exp_max == e.exp_max && d.count == e.count;
  };
  for (std::size_t i = 0; i < t0.size(); ++i) ASSERT_TRUE(same(t0[i], d0[i])) << "t0 event " << i;
  for (std::size_t i = 0; i < t1.size(); ++i) ASSERT_TRUE(same(t1[i], d1[i])) << "t1 event " << i;
  ASSERT_EQ(td.histograms.size(), 1u);
  EXPECT_EQ(td.histograms[0].first, 1u);
  EXPECT_EQ(td.histograms[0].second, h);
  EXPECT_EQ(td.total_dropped(), 7u);
}

TEST(Rtrace, ReaderRejectsGarbage) {
  const std::string path = "test_trace_garbage.rtrace";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a trace at all";
  }
  EXPECT_THROW(trace::read_rtrace(path), std::runtime_error);
  std::remove(path.c_str());
  EXPECT_THROW(trace::read_rtrace("does_not_exist.rtrace"), std::runtime_error);
  // Valid header but missing end marker: truncated capture must be loud to
  // the strict reader. (Abandoning the writer is not enough to produce one
  // anymore — finish-on-destruct terminates the file — so chop the marker
  // off the byte stream instead.)
  {
    trace::RtraceWriter w(path, 8, 16);
    w.string_entry(0, "x");
    w.finish();
  }
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  }
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()) - 1);
  }
  EXPECT_THROW(trace::read_rtrace(path), std::runtime_error);
  std::remove(path.c_str());
}

// -- Hardened codec: adversarial input, tolerant + streaming readers --------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A valid 16-byte header (stride 8, ring 16) to prepend to crafted bodies.
std::string valid_header() {
  const std::string path = "test_trace_header.rtrace";
  {
    trace::RtraceWriter w(path, 8, 16);
    w.finish();
  }
  const std::string bytes = read_file(path);
  std::remove(path.c_str());
  return bytes.substr(0, 16);
}

TEST(RtraceHardened, OverlongVarintRejected) {
  const std::string path = "test_trace_overlong.rtrace";
  // Ten-byte varint whose final byte carries payload bits at shift >= 64.
  // Pre-fix those bits were shifted out silently, so this byte string and
  // the one without them decoded to the same value — an aliasing hole.
  std::string bad = valid_header();
  bad += 'D';
  bad += '\x00';  // thread 0
  bad.append(9, '\x80');
  bad += '\x02';
  write_file(path, bad);
  EXPECT_THROW(trace::read_rtrace(path), std::runtime_error);
  // Overlong encodings are malformed, not truncated: the tolerant reader
  // must reject them too instead of waiting for more bytes.
  EXPECT_THROW(trace::read_rtrace_tolerant(path), std::runtime_error);

  // The maximal *valid* 10-byte encoding still decodes: (1 << 63) | 1.
  std::string maximal = valid_header();
  maximal += 'D';
  maximal += '\x00';
  maximal += '\x81';
  maximal.append(8, '\x80');
  maximal += '\x01';
  maximal += 'X';
  write_file(path, maximal);
  EXPECT_EQ(trace::read_rtrace(path).total_dropped(), (u64{1} << 63) | 1);
  std::remove(path.c_str());
}

TEST(RtraceHardened, HistogramSlotBoundMatchesStringSlots) {
  const std::string path = "test_trace_histslot.rtrace";
  std::string bad = valid_header();
  bad += 'H';
  bad += "\x80\x80\x04";  // slot 0x10000, one past the string-table bound
  write_file(path, bad);
  EXPECT_THROW(trace::read_rtrace(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(RtraceHardened, AdversarialInputsThrowCleanly) {
  const std::string path = "test_trace_adversarial.rtrace";
  const std::string header = valid_header();
  // A healthy file to carve up: string table + one sizeable event block.
  std::vector<trace::Event> evs;
  for (int i = 0; i < 32; ++i) evs.push_back(make_event(i));
  {
    trace::RtraceWriter w(path, 8, 16);
    w.string_entry(0, "adv");
    w.event_block(0, evs.data(), evs.size());
    w.finish();
  }
  const std::string whole = read_file(path);

  const auto rejects = [&](const std::string& bytes) {
    write_file(path, bytes);
    EXPECT_THROW(trace::read_rtrace(path), std::runtime_error);
  };
  rejects(whole.substr(0, 8));                 // truncated header
  rejects(whole.substr(0, whole.size() - 1));  // missing end marker
  rejects(whole.substr(0, whole.size() - 8));  // cut mid-event
  rejects(header + 'Z');                       // unknown block tag
  rejects(header + 'S' + '\x00' + "\xFF\xFF\xFF\xFF\x0F");  // 4 GiB string
  rejects(header + 'E');                       // event block with no payload

  // The tolerant reader distinguishes truncation (in progress, data up to
  // the last complete block) from malformed bytes (still an error).
  write_file(path, whole.substr(0, whole.size() - 8));
  const trace::TolerantRead partial = trace::read_rtrace_tolerant(path);
  EXPECT_FALSE(partial.complete);
  EXPECT_EQ(partial.data.regions.size(), 1u);
  EXPECT_TRUE(partial.data.events.empty());  // the one event block was cut
  write_file(path, header + 'Z');
  EXPECT_THROW(trace::read_rtrace_tolerant(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(RtraceHardened, WriterFinishOnDestructAndTolerantClassification) {
  const std::string path = "test_trace_destruct.rtrace";
  std::vector<trace::Event> evs;
  for (int i = 0; i < 16; ++i) evs.push_back(make_event(i));
  {
    trace::RtraceWriter w(path, 8, 16);
    w.string_entry(0, "dtor");
    w.event_block(0, evs.data(), evs.size());
    // No finish(): the destructor must terminate the file while the stream
    // is healthy (an exception unwinding through the drainer).
  }
  EXPECT_EQ(trace::read_rtrace(path).events.size(), evs.size());
  EXPECT_TRUE(trace::read_rtrace_tolerant(path).complete);

  // Chop the end marker back off (a hard crash): strict is loud, tolerant
  // classifies the capture as in progress and keeps every complete block.
  const std::string bytes = read_file(path);
  write_file(path, bytes.substr(0, bytes.size() - 1));
  EXPECT_THROW(trace::read_rtrace(path), std::runtime_error);
  const trace::TolerantRead partial = trace::read_rtrace_tolerant(path);
  EXPECT_FALSE(partial.complete);
  EXPECT_EQ(partial.data.events.size(), evs.size());
  std::remove(path.c_str());
}

TEST(RtraceStreamTest, EveryPrefixDecodesWithoutError) {
  // Replay a complete capture one byte at a time through the incremental
  // reader: no prefix may throw, completion fires exactly at the end
  // marker, and the accumulated decode matches the strict reader bitwise.
  const std::string path = "test_trace_stream.rtrace";
  std::vector<trace::Event> evs;
  for (int i = 0; i < 48; ++i) evs.push_back(make_event(i));
  trace::RegionHist h;
  for (int i = 0; i < 100; ++i) h.exp.add(std::ldexp(1.0, i % 20));
  {
    trace::RtraceWriter w(path, 4, 64);
    w.string_entry(0, "stream/a");
    w.string_entry(1, "stream/b");
    w.event_block(0, evs.data(), 20);
    w.event_block(1, evs.data() + 20, evs.size() - 20);
    w.drop_block(0, 9);
    w.hist_block(1, h);
    w.finish();
  }
  const std::string bytes = read_file(path);

  trace::RtraceStream stream(path);
  for (std::size_t n = 0; n <= bytes.size(); ++n) {
    write_file(path, bytes.substr(0, n));
    stream.poll();
    EXPECT_EQ(stream.finished(), n == bytes.size()) << "prefix " << n;
  }
  EXPECT_EQ(stream.offset(), bytes.size());

  const trace::TraceData strict = trace::read_rtrace(path);
  EXPECT_EQ(stream.data().regions, strict.regions);
  EXPECT_EQ(stream.data().events, strict.events);
  EXPECT_EQ(stream.data().histograms, strict.histograms);
  EXPECT_EQ(stream.data().drops, strict.drops);
  std::remove(path.c_str());
}

// -- Multi-shard merge ------------------------------------------------------

TEST(TraceMerge, StrideDropAndThreadReconciliation) {
  trace::TraceData a, b;
  a.sample_stride = 8;
  a.ring_capacity = 256;
  a.regions = {"r"};
  a.drops = {{0, 3}};
  b.sample_stride = 16;  // disagrees with a
  b.ring_capacity = 1024;
  b.regions = {"r"};
  b.drops = {{0, 5}};
  trace::DecodedEvent e;
  e.region = 0;
  e.count = 2;
  a.events.push_back(e);
  b.events.push_back(e);

  const trace::TraceData m = trace::merge_traces({a, b});
  EXPECT_EQ(m.sample_stride, 0u);  // mixed strides reconcile to "mixed"
  EXPECT_EQ(m.ring_capacity, 1024u);
  EXPECT_EQ(m.total_dropped(), 8u);
  EXPECT_EQ(m.regions.size(), 1u);  // same label interned once
  ASSERT_EQ(m.events.size(), 2u);
  EXPECT_EQ(m.events[0].thread, 0u);
  EXPECT_EQ(m.events[1].thread, 1u);  // shard threads offset, not collapsed
  ASSERT_EQ(m.drops.size(), 2u);
  EXPECT_EQ(m.drops[1].first, 1u);

  // Same-stride shards keep their stride; merging one shard is lossless.
  b.sample_stride = 8;
  EXPECT_EQ(trace::merge_traces({a, b}).sample_stride, 8u);
  const trace::TraceData solo = trace::merge_traces({a});
  EXPECT_EQ(solo.events, a.events);
  EXPECT_EQ(solo.regions, a.regions);
}

// -- Runtime integration ----------------------------------------------------

class TraceRuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override { Runtime::instance().reset_all(); }
  void TearDown() override {
    Runtime::instance().reset_all();
    std::remove(kPath);
  }
  static constexpr const char* kPath = "test_trace_runtime.rtrace";
  Runtime& R = Runtime::instance();
};

trace::TraceOptions opts_for(const char* path, u32 stride, u32 ring = 1 << 14) {
  trace::TraceOptions o;
  o.path = path;
  o.sample_stride = stride;
  o.ring_capacity = ring;
  return o;
}

TEST_F(TraceRuntimeTest, ScalarSamplingStrideAndRegionLabels) {
  R.trace_start(opts_for(kPath, 4));
  {
    TruncScope scope(8, 12);
    Region region("demo/kernel");
    for (int i = 0; i < 100; ++i) (void)R.op2(OpKind::Mul, 1.5, 1.25, 64);
  }
  for (int i = 0; i < 8; ++i) (void)R.op1(OpKind::Sqrt, 2.0, 64);  // outside any region
  const trace::TraceStats stats = R.trace_stop();
  EXPECT_EQ(stats.events, 100u / 4 + 8 / 4);
  EXPECT_EQ(stats.dropped, 0u);

  const trace::TraceData td = trace::read_rtrace(kPath);
  ASSERT_EQ(td.events.size(), 27u);
  u64 in_region = 0, toplevel = 0;
  for (const auto& e : td.events) {
    EXPECT_EQ(e.count, 1u);
    if (td.region_name(e.region) == "demo/kernel") {
      ++in_region;
      EXPECT_EQ(e.kind, static_cast<u8>(OpKind::Mul));
      EXPECT_EQ(e.flags & trace::kFlagTruncated, trace::kFlagTruncated);
      EXPECT_EQ(e.fmt_exp, 8);
      EXPECT_EQ(e.fmt_man, 12);
      EXPECT_EQ(e.exp_min, 0);  // 1.5 * 1.25 = 1.875 -> exponent 0
      EXPECT_EQ(e.dev_bucket, trace::kDevNone);
    } else {
      EXPECT_EQ(td.region_name(e.region), "<toplevel>");
      ++toplevel;
      EXPECT_EQ(e.kind, static_cast<u8>(OpKind::Sqrt));
      EXPECT_EQ(e.flags & trace::kFlagTruncated, 0);
    }
  }
  EXPECT_EQ(in_region, 25u);
  EXPECT_EQ(toplevel, 2u);
}

TEST_F(TraceRuntimeTest, BatchSpanEventAndPerElementHistogram) {
  constexpr std::size_t kN = 1000;
  std::vector<double> a(kN), b(kN, 1.0), out(kN);
  for (std::size_t i = 0; i < kN; ++i) a[i] = std::ldexp(1.0, static_cast<int>(i % 40) - 20);
  a[0] = 0.0;  // one zero flows into the zero bucket

  R.trace_start(opts_for(kPath, 1));  // every span sampled
  {
    TruncScope scope(8, 12);
    Region region("demo/batch");
    R.op2_batch(OpKind::Mul, a.data(), b.data(), out.data(), kN, 64);
  }
  const auto hists = R.trace_histograms();  // live query before stop
  const trace::TraceStats stats = R.trace_stop();
  EXPECT_EQ(stats.events, 1u);  // one event for the whole span

  ASSERT_EQ(hists.size(), 1u);
  EXPECT_EQ(hists[0].label, "demo/batch");
  EXPECT_EQ(hists[0].hist.exp.total(), kN);  // per-element updates
  EXPECT_EQ(hists[0].hist.exp.zero, 1u);
  EXPECT_EQ(hists[0].hist.exp.finite, kN - 1);
  EXPECT_EQ(hists[0].hist.exp.min_exp, -20);
  EXPECT_EQ(hists[0].hist.exp.max_exp, 19);

  const trace::TraceData td = trace::read_rtrace(kPath);
  ASSERT_EQ(td.events.size(), 1u);
  const trace::DecodedEvent& e = td.events[0];
  EXPECT_EQ(e.count, kN);
  EXPECT_EQ(e.flags & trace::kFlagSpan, trace::kFlagSpan);
  EXPECT_EQ(e.exp_min, trace::kExpZero);  // span min/max covers the zero class
  EXPECT_EQ(e.exp_max, 19);
  // The persisted histogram matches the live query.
  ASSERT_EQ(td.histograms.size(), 1u);
  EXPECT_EQ(td.histograms[0].second, hists[0].hist);
}

TEST_F(TraceRuntimeTest, BatchCountdownIsPerSpanNotPerElement) {
  // At stride 4, three spans decrement the countdown three times: no event
  // yet; the fourth span samples. Element count must not influence pacing.
  std::vector<double> a(512, 1.0), out(512);
  R.trace_start(opts_for(kPath, 4));
  TruncScope scope(8, 12);
  for (int span = 0; span < 7; ++span) {
    R.op1_batch(OpKind::Sqrt, a.data(), out.data(), a.size(), 64);
  }
  const trace::TraceStats stats = R.trace_stop();
  EXPECT_EQ(stats.events, 1u);  // 7 spans / stride 4 -> one sample
}

TEST_F(TraceRuntimeTest, MemModeEventsCarryDeviationBuckets) {
  R.set_mode(rt::Mode::Mem);
  R.trace_start(opts_for(kPath, 1));
  {
    TruncScope scope(8, 4);  // coarse: visible deviation
    Region region("demo/mem");
    double acc = R.mem_make(1.0);
    for (int i = 0; i < 50; ++i) {
      const double next = R.op2(OpKind::Mul, acc, 1.01, 64);
      R.mem_release(acc);
      acc = next;
    }
    R.mem_release(acc);
  }
  const trace::TraceStats stats = R.trace_stop();
  EXPECT_EQ(stats.events, 50u);

  const trace::TraceData td = trace::read_rtrace(kPath);
  ASSERT_EQ(td.events.size(), 50u);
  u64 with_dev = 0;
  for (const auto& e : td.events) {
    EXPECT_EQ(e.flags & trace::kFlagMem, trace::kFlagMem);
    EXPECT_EQ(td.region_name(e.region), "demo/mem");
    if (e.dev_bucket != trace::kDevNone && e.dev_bucket != 0) ++with_dev;
  }
  // (8,4) multiplication error accumulates: most results deviate.
  EXPECT_GT(with_dev, 25u);
  // The deviation histogram aggregated the same buckets.
  trace::RegionHist merged;
  for (const auto& [slot, hist] : td.histograms) merged.merge(hist);
  EXPECT_EQ(merged.dev.total(), 50u);
  EXPECT_GT(merged.dev.quantile(0.99), 0.0);
}

TEST_F(TraceRuntimeTest, RestartedSessionResyncsThreads) {
  R.trace_start(opts_for(kPath, 1));
  (void)R.op2(OpKind::Add, 1.0, 2.0, 64);
  EXPECT_EQ(R.trace_stop().events, 1u);
  // Ops between sessions are not traced and cost only the off flag check.
  (void)R.op2(OpKind::Add, 1.0, 2.0, 64);
  const std::string path2 = "test_trace_runtime2.rtrace";
  R.trace_start(opts_for(path2.c_str(), 1));
  (void)R.op2(OpKind::Sub, 5.0, 2.0, 64);
  (void)R.op2(OpKind::Sub, 5.0, 2.0, 64);
  const trace::TraceStats stats = R.trace_stop();
  EXPECT_EQ(stats.events, 2u);
  const trace::TraceData td = trace::read_rtrace(path2);
  std::remove(path2.c_str());
  ASSERT_EQ(td.events.size(), 2u);
  EXPECT_EQ(td.events[0].kind, static_cast<u8>(OpKind::Sub));
}

TEST_F(TraceRuntimeTest, LabelIdentityIsTheTextNotTheBuffer) {
  // Two buffers spelling one label are one trace region; one buffer reused
  // for another label after its region closed is two.
  const std::string a = "ident/same";
  const std::vector<char> b(a.c_str(), a.c_str() + a.size() + 1);
  char buf[32];
  R.trace_start(opts_for(kPath, 1));
  for (const char* label : {a.c_str(), b.data()}) {
    Region region(label);
    (void)R.op2(OpKind::Add, 1.0, 2.0, 64);
  }
  std::strcpy(buf, "ident/first");
  {
    Region region(buf);
    (void)R.op2(OpKind::Add, 1.0, 2.0, 64);
  }
  std::strcpy(buf, "ident/other");
  {
    Region region(buf);
    (void)R.op2(OpKind::Add, 1.0, 2.0, 64);
  }
  const auto hists = R.trace_histograms();
  EXPECT_EQ(R.trace_stop().events, 4u);

  ASSERT_EQ(hists.size(), 3u);
  EXPECT_EQ(hists[0].label, "ident/same");
  EXPECT_EQ(hists[0].hist.exp.total(), 2u);
  const trace::TraceData td = trace::read_rtrace(kPath);
  EXPECT_EQ(td.regions, (std::vector<std::string>{"ident/same", "ident/first", "ident/other"}));
  std::map<std::string, u64> events;
  for (const auto& e : td.events) ++events[td.region_name(e.region)];
  EXPECT_EQ(events["ident/same"], 2u);
  EXPECT_EQ(events["ident/first"], 1u);
  EXPECT_EQ(events["ident/other"], 1u);
  ASSERT_EQ(td.histograms.size(), 3u);
}

TEST_F(TraceRuntimeTest, TimedButUnsampledRegionGetsASecondsBlock) {
  // A stride no run reaches: nothing is sampled, yet the profiled region's
  // wall-clock time is written as a 'T' block under an interned label.
  R.set_region_profiling(true);
  R.trace_start(opts_for(kPath, 1u << 30));
  {
    Region region("timed/only");
    for (int i = 0; i < 1000; ++i) (void)R.op2(OpKind::Add, 1.0, 2.0, 64);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(R.trace_stop().events, 0u);
  const trace::TraceData td = trace::read_rtrace(kPath);
  EXPECT_TRUE(td.histograms.empty());
  bool found = false;
  for (const auto& [slot, secs] : td.region_seconds) {
    if (td.region_name(slot) != "timed/only") continue;
    found = true;
    EXPECT_GT(secs, 0.0);
  }
  EXPECT_TRUE(found);
}

TEST_F(TraceRuntimeTest, EightProducersVersusDrainer) {
  // 8 std::threads hammer scalar + batch ops through tiny rings while the
  // drainer runs, forcing concurrent pop_into against live try_push and
  // real overflow drops. Invariant: every sample was either written to the
  // file or counted as dropped — nothing is lost or double-counted. Runs
  // under TSan in CI (the Lamport SPSC ordering is what's being checked).
  constexpr int kThreads = 8;
  constexpr int kScalarOps = 20000;
  constexpr int kSpans = 512;
  constexpr u32 kStride = 8;
  trace::TraceOptions o = opts_for(kPath, kStride, /*ring=*/256);
  o.drain_interval_ms = 1;
  R.trace_start(o);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, this] {
      TruncScope scope(8, 12);
      Region region(t % 2 == 0 ? "stress/even" : "stress/odd");
      std::vector<double> a(64, 1.5), out(64);
      for (int i = 0; i < kScalarOps; ++i) (void)R.op2(OpKind::Add, 1.0 + i, 2.0, 64);
      for (int i = 0; i < kSpans; ++i) {
        R.op2_batch(OpKind::Mul, a.data(), a.data(), out.data(), a.size(), 64);
      }
    });
  }
  for (auto& w : workers) w.join();
  const trace::TraceStats stats = R.trace_stop();

  constexpr u64 kSamplesPerThread = (kScalarOps + kSpans) / kStride;
  EXPECT_EQ(stats.threads, kThreads);
  EXPECT_EQ(stats.events + stats.dropped, kThreads * kSamplesPerThread);
  EXPECT_GT(stats.events, 0u);

  const trace::TraceData td = trace::read_rtrace(kPath);
  EXPECT_EQ(td.events.size(), stats.events);
  EXPECT_EQ(td.total_dropped(), stats.dropped);
  // Histogram updates happen on every sample regardless of ring drops, so
  // the merged element totals are exact: per sampled span 64 elements, per
  // sampled scalar 1.
  trace::ExpHistogram all;
  for (const auto& [slot, hist] : td.histograms) all.merge(hist.exp);
  u64 expected_elements = 0;
  // Per thread: sampling interleaves scalars then spans in one stream. The
  // first kScalarOps ticks are scalar ops (kScalarOps/kStride samples of 1
  // element); span ticks continue the same countdown (kSpans/kStride
  // samples of 64 elements). kScalarOps and kSpans are both multiples of
  // kStride, so the split is exact.
  expected_elements = static_cast<u64>(kThreads) *
                      (kScalarOps / kStride * 1 + kSpans / kStride * 64);
  EXPECT_EQ(all.total(), expected_elements);
  EXPECT_EQ(td.regions.size(), 2u);  // stress/even, stress/odd
}

TEST_F(TraceRuntimeTest, ResetAllStopsTracing) {
  R.trace_start(opts_for(kPath, 1));
  EXPECT_TRUE(R.trace_active());
  R.reset_all();
  EXPECT_FALSE(R.trace_active());
  // The file was finalized by the implicit stop: it must parse.
  (void)trace::read_rtrace(kPath);
}

TEST_F(TraceRuntimeTest, ShardMergeMatchesUnpartitionedRunBitwise) {
  // Three single-process shards that enter the same regions in *different*
  // orders — so their string tables assign different slots to the same
  // label — versus one unpartitioned run executing every op. The
  // label-keyed merge must reproduce the unpartitioned histograms bitwise;
  // a slot-keyed merge would cross the streams.
  const char* shard_paths[3] = {"test_trace_shard0.rtrace", "test_trace_shard1.rtrace",
                                "test_trace_shard2.rtrace"};
  const auto work = [&](const char* label, int lo, int hi) {
    TruncScope scope(8, 12);
    Region region(label);
    for (int i = lo; i < hi; ++i) {
      (void)R.op2(OpKind::Mul, std::ldexp(1.0 + 0.1 * (i % 7), i % 60 - 30), 1.0, 64);
    }
  };
  const auto shard = [&](const char* path, const auto& body) {
    R.trace_start(opts_for(path, 1));
    body();
    const trace::TraceStats stats = R.trace_stop();
    EXPECT_EQ(stats.dropped, 0u);
  };
  shard(shard_paths[0], [&] { work("merge/alpha", 0, 40); work("merge/beta", 0, 25); });
  shard(shard_paths[1], [&] { work("merge/beta", 25, 60); work("merge/gamma", 0, 30); });
  shard(shard_paths[2], [&] { work("merge/gamma", 30, 50); work("merge/alpha", 40, 90); });
  shard(kPath, [&] {
    work("merge/alpha", 0, 90);
    work("merge/beta", 0, 60);
    work("merge/gamma", 0, 50);
  });

  std::vector<trace::TraceData> shards;
  for (const char* p : shard_paths) shards.push_back(trace::read_rtrace(p));
  const trace::TraceData merged = trace::merge_traces(shards);
  const trace::TraceData whole = trace::read_rtrace(kPath);

  // Shards intern in different orders: the premise of the test.
  EXPECT_NE(shards[0].regions, shards[1].regions);

  const auto by_label = [](const trace::TraceData& td) {
    std::map<std::string, trace::RegionHist> out;
    for (const auto& [slot, hist] : td.histograms) out[td.region_name(slot)].merge(hist);
    return out;
  };
  EXPECT_TRUE(by_label(merged) == by_label(whole));  // bitwise, via operator==
  EXPECT_EQ(merged.events.size(), whole.events.size());

  // Per-label sampled-op totals agree too (events travel with their label).
  const auto ops_by_label = [](const trace::TraceData& td) {
    std::map<std::string, u64> out;
    for (const auto& r : trace::build_reports(td)) out[r.label] = r.ops;
    return out;
  };
  EXPECT_TRUE(ops_by_label(merged) == ops_by_label(whole));

  // Associativity: merge(merge(s0, s1), s2) == merge(s0, s1, s2).
  const trace::TraceData left =
      trace::merge_traces({trace::merge_traces({shards[0], shards[1]}), shards[2]});
  EXPECT_TRUE(by_label(left) == by_label(merged));
  EXPECT_EQ(left.events.size(), merged.events.size());
  EXPECT_EQ(left.total_dropped(), merged.total_dropped());

  for (const char* p : shard_paths) std::remove(p);
}

TEST_F(TraceRuntimeTest, SegmentRotationAndCompactionPreserveTotals) {
  trace::TraceOptions o = opts_for(kPath, 1);
  o.segment_bytes = 1 << 12;  // tiny: force several rotations
  o.compact_segments = true;
  o.drain_interval_ms = 1;
  R.trace_start(o);
  {
    TruncScope scope(8, 12);
    Region region("rot/kernel");
    for (int i = 0; i < 20000; ++i) {
      (void)R.op2(OpKind::Mul, std::ldexp(1.5, i % 40 - 20), 1.0, 64);
    }
  }
  const auto live = R.trace_histograms();
  const trace::TraceStats stats = R.trace_stop();
  EXPECT_GT(stats.segments, 1u);

  // Every segment — compacted intermediates and the final one — is a
  // self-contained, strictly readable .rtrace file.
  std::vector<trace::TraceData> segments;
  for (u32 i = 0; i < stats.segments; ++i) {
    segments.push_back(trace::read_rtrace(trace::segment_path(kPath, i)));
    EXPECT_FALSE(segments.back().regions.empty()) << "segment " << i << " lost its string table";
  }
  // Exact histograms live in the final segment only (written at stop).
  for (u32 i = 0; i + 1 < stats.segments; ++i) EXPECT_TRUE(segments[i].histograms.empty());

  const trace::TraceData merged = trace::merge_traces(segments);
  // Histograms are exact across rotation + compaction: the merged result
  // matches the live (pre-stop) aggregate bitwise.
  trace::RegionHist total;
  for (const auto& [slot, hist] : merged.histograms) {
    if (merged.region_name(slot) == "rot/kernel") total.merge(hist);
  }
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].label, "rot/kernel");
  EXPECT_EQ(total, live[0].hist);
  // Compaction folds records but preserves sampled-op totals and drops.
  u64 ops = 0;
  for (const auto& e : merged.events) ops += e.count;
  EXPECT_EQ(ops, stats.events);
  EXPECT_EQ(merged.total_dropped(), stats.dropped);

  for (u32 i = 1; i < stats.segments; ++i) {
    std::remove(trace::segment_path(kPath, i).c_str());
  }
}

TEST_F(TraceRuntimeTest, StreamFollowsLiveSessionAndResumes) {
  // The drainer flushes each cycle, so an incremental reader tailing the
  // file sees event blocks *during* the session, then picks up the tail
  // and end marker after stop() — the substrate of `raptor_trace --follow`.
  trace::TraceOptions o = opts_for(kPath, 1);
  o.drain_interval_ms = 1;
  R.trace_start(o);
  trace::RtraceStream stream(kPath);
  {
    TruncScope scope(8, 12);
    Region region("follow/live");
    for (int i = 0; i < 500; ++i) (void)R.op2(OpKind::Add, 1.0 + i, 2.0, 64);
  }
  bool saw_live_data = false;
  for (int spin = 0; spin < 5000 && !saw_live_data; ++spin) {
    stream.poll();
    saw_live_data = !stream.data().events.empty();
    if (!saw_live_data) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(saw_live_data);
  EXPECT_FALSE(stream.finished());

  const trace::TraceStats stats = R.trace_stop();
  stream.poll();  // resume from the remembered offset
  EXPECT_TRUE(stream.finished());
  EXPECT_EQ(stream.data().events.size(), stats.events);
  const trace::TraceData whole = trace::read_rtrace(kPath);
  EXPECT_EQ(stream.data().events, whole.events);
  EXPECT_EQ(stream.data().histograms, whole.histograms);
  EXPECT_EQ(stream.data().drops, whole.drops);
}

// -- Recommendation math ----------------------------------------------------

TEST(TraceAnalysis, MinExpBitsCoversObservedRange) {
  EXPECT_EQ(trace::min_exp_bits(0, 0), 2);
  EXPECT_EQ(trace::min_exp_bits(-14, 15), 5);    // fp16 range
  EXPECT_EQ(trace::min_exp_bits(-126, 127), 8);  // fp32 range
  EXPECT_EQ(trace::min_exp_bits(-127, 127), 9);  // just past fp32's emin
  EXPECT_EQ(trace::min_exp_bits(-1022, 1023), 11);
  EXPECT_EQ(trace::min_exp_bits(-2000, 2000), 11);  // clamped at fp64's width
}

TEST(TraceAnalysis, ManBitsHintTracksDeviationQuantile) {
  trace::DevHistogram empty;
  EXPECT_EQ(trace::man_bits_hint(empty, 52), 52);
  EXPECT_EQ(trace::man_bits_hint(empty, 23), 23);
  trace::DevHistogram tiny;
  for (int i = 0; i < 100; ++i) tiny.add(1e-9);
  // p99 upper bound 1e-8 -> ~27 bits + 2 guard bits.
  EXPECT_EQ(trace::man_bits_hint(tiny, 52), 29);
  trace::DevHistogram coarse;
  for (int i = 0; i < 100; ++i) coarse.add(2.0);  // catastrophic
  EXPECT_EQ(trace::man_bits_hint(coarse, 52), 52);
}

}  // namespace
}  // namespace raptor
