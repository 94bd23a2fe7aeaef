//===- tests/SupportTest.cpp - support library unit tests -----------------===//

#include "support/Arena.h"
#include "support/Casting.h"
#include "support/Diagnostics.h"
#include "support/DotWriter.h"
#include "support/HashUtil.h"
#include "support/Metrics.h"
#include "support/ParseCount.h"
#include "support/StringInterner.h"
#include "support/Trace.h"
#include "support/Value.h"

#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

using namespace sus;

namespace {

TEST(StringInternerTest, InternReturnsSameSymbolForEqualStrings) {
  StringInterner In;
  Symbol A = In.intern("hello");
  Symbol B = In.intern("hello");
  EXPECT_EQ(A, B);
  EXPECT_EQ(In.size(), 1u);
}

TEST(StringInternerTest, DistinctStringsGetDistinctSymbols) {
  StringInterner In;
  Symbol A = In.intern("a");
  Symbol B = In.intern("b");
  EXPECT_NE(A, B);
  EXPECT_EQ(In.text(A), "a");
  EXPECT_EQ(In.text(B), "b");
}

TEST(StringInternerTest, LookupFindsOnlyInternedStrings) {
  StringInterner In;
  Symbol A = In.intern("present");
  EXPECT_EQ(In.lookup("present"), A);
  EXPECT_FALSE(In.lookup("absent").isValid());
}

TEST(StringInternerTest, ViewsStayValidAcrossManyInsertions) {
  StringInterner In;
  Symbol First = In.intern("first-string");
  std::string_view View = In.text(First);
  for (int I = 0; I < 10000; ++I)
    In.intern("filler" + std::to_string(I));
  EXPECT_EQ(View, "first-string");
  EXPECT_EQ(In.lookup("first-string"), First);
}

TEST(StringInternerTest, DefaultSymbolIsInvalid) {
  Symbol S;
  EXPECT_FALSE(S.isValid());
}

TEST(ArenaTest, CreateRunsConstructorsAndDestructors) {
  static int Live = 0;
  struct Tracked {
    Tracked() { ++Live; }
    ~Tracked() { --Live; }
    int Payload[8] = {0};
  };
  {
    Arena A;
    for (int I = 0; I < 100; ++I)
      A.create<Tracked>();
    EXPECT_EQ(Live, 100);
  }
  EXPECT_EQ(Live, 0);
}

TEST(ArenaTest, AllocationsAreAligned) {
  Arena A;
  for (int I = 0; I < 50; ++I) {
    void *P = A.allocate(3, 8);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % 8, 0u);
  }
  void *Q = A.allocate(1, 64);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(Q) % 64, 0u);
}

TEST(ArenaTest, LargeAllocationsGetTheirOwnSlab) {
  Arena A;
  void *P = A.allocate(1 << 20, 16);
  ASSERT_NE(P, nullptr);
  EXPECT_GE(A.bytesReserved(), size_t(1) << 20);
}

struct Base {
  enum class Kind { A, B } K;
  explicit Base(Kind K) : K(K) {}
};
struct DerivedA : Base {
  DerivedA() : Base(Kind::A) {}
  static bool classof(const Base *B) { return B->K == Base::Kind::A; }
};
struct DerivedB : Base {
  DerivedB() : Base(Kind::B) {}
  static bool classof(const Base *B) { return B->K == Base::Kind::B; }
};

TEST(CastingTest, IsaAndDynCastDispatchOnKind) {
  DerivedA A;
  Base *B = &A;
  EXPECT_TRUE(isa<DerivedA>(B));
  EXPECT_FALSE(isa<DerivedB>(B));
  EXPECT_EQ(dyn_cast<DerivedA>(B), &A);
  EXPECT_EQ(dyn_cast<DerivedB>(B), nullptr);
  EXPECT_EQ(cast<DerivedA>(B), &A);
}

TEST(CastingTest, PresentVariantsTolerateNull) {
  Base *Null = nullptr;
  EXPECT_FALSE(isa_and_present<DerivedA>(Null));
  EXPECT_EQ(dyn_cast_if_present<DerivedA>(Null), nullptr);
}

TEST(DiagnosticsTest, CountsErrorsOnly) {
  DiagnosticEngine D;
  D.warning(SourceLoc{1, 2, {}}, "something odd");
  EXPECT_FALSE(D.hasErrors());
  D.error("bad things");
  D.error(SourceLoc{3, 4, {}}, "more bad things");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_EQ(D.errorCount(), 2u);
  EXPECT_EQ(D.diagnostics().size(), 3u);
}

TEST(DiagnosticsTest, PrintIncludesLocationWhenKnown) {
  DiagnosticEngine D;
  D.error(SourceLoc{7, 9, {}}, "unexpected token");
  std::ostringstream OS;
  D.print(OS);
  EXPECT_EQ(OS.str(), "7:9: error: unexpected token\n");
}

TEST(DiagnosticsTest, PrintSortsBySourceOrderAndSeverity) {
  DiagnosticEngine D;
  // Reported out of order on purpose; rendering must sort by (file,
  // line, column, severity) with a stable tie-break.
  D.warning(SourceLoc{9, 1, "b.sus"}, "late file");
  D.error(SourceLoc{5, 3, "a.sus"}, "later line");
  D.warning(SourceLoc{2, 8, "a.sus"}, "later column");
  D.error(SourceLoc{2, 4, "a.sus"}, "error after co-located warning");
  D.warning(SourceLoc{2, 4, "a.sus"}, "first");
  std::ostringstream OS;
  D.print(OS);
  EXPECT_EQ(OS.str(), "a.sus:2:4: warning: first\n"
                      "a.sus:2:4: error: error after co-located warning\n"
                      "a.sus:2:8: warning: later column\n"
                      "a.sus:5:3: error: later line\n"
                      "b.sus:9:1: warning: late file\n");
}

TEST(DiagnosticsTest, PrintDropsExactDuplicates) {
  DiagnosticEngine D;
  D.warning(SourceLoc{4, 2, "a.sus"}, "dup");
  D.warning(SourceLoc{4, 2, "a.sus"}, "dup");
  // Same location but different severity or message: NOT a duplicate.
  D.error(SourceLoc{4, 2, "a.sus"}, "dup");
  D.warning(SourceLoc{4, 2, "a.sus"}, "other");
  std::ostringstream OS;
  D.print(OS);
  EXPECT_EQ(OS.str(), "a.sus:4:2: warning: dup\n"
                      "a.sus:4:2: warning: other\n"
                      "a.sus:4:2: error: dup\n");
  // The underlying diagnostic list is untouched by rendering.
  EXPECT_EQ(D.diagnostics().size(), 4u);
}

TEST(DiagnosticsTest, PrintRendersIdAndNotes) {
  DiagnosticEngine D;
  Diagnostic &W = D.warning(SourceLoc{3, 1, "x.sus"}, "suspicious loop");
  W.ID = "sus-lint-demo";
  W.note(SourceLoc{4, 2, "x.sus"}, "loop entered here");
  std::ostringstream OS;
  D.print(OS);
  EXPECT_EQ(OS.str(), "x.sus:3:1: warning: suspicious loop [sus-lint-demo]\n"
                      "  x.sus:4:2: note: loop entered here\n");
}

TEST(DiagnosticsTest, PrintJsonEscapesAndStructures) {
  DiagnosticEngine D;
  Diagnostic &W = D.warning(SourceLoc{1, 2, "q.sus"}, "say \"hi\"\\now");
  W.ID = "sus-lint-demo";
  W.Category = "lint.test";
  W.note(SourceLoc{0, 0, "q.sus"}, "a note");
  std::ostringstream OS;
  D.print(OS, DiagFormat::Json);
  EXPECT_EQ(
      OS.str(),
      "[\n"
      "  {\"file\": \"q.sus\", \"line\": 1, \"col\": 2, "
      "\"severity\": \"warning\", \"id\": \"sus-lint-demo\", "
      "\"category\": \"lint.test\", \"message\": \"say \\\"hi\\\"\\\\now\", "
      "\"notes\": [\n"
      "    {\"file\": \"q.sus\", \"line\": 0, \"col\": 0, "
      "\"severity\": \"note\", \"id\": \"\", \"category\": \"\", "
      "\"message\": \"a note\"}\n"
      "  ]}\n"
      "]\n");
}

TEST(DiagnosticsTest, PrintJsonEmptyIsEmptyArray) {
  DiagnosticEngine D;
  std::ostringstream OS;
  D.print(OS, DiagFormat::Json);
  EXPECT_EQ(OS.str(), "[]\n");
}

TEST(DiagnosticsTest, ClearResets) {
  DiagnosticEngine D;
  D.error("x");
  D.clear();
  EXPECT_FALSE(D.hasErrors());
  EXPECT_TRUE(D.diagnostics().empty());
}

TEST(DotWriterTest, EscapesQuotesAndNewlines) {
  DotWriter W("g");
  W.node("n1", "say \"hi\"\nplease");
  std::ostringstream OS;
  W.print(OS);
  EXPECT_NE(OS.str().find("say \\\"hi\\\"\\nplease"), std::string::npos);
}

TEST(DotWriterTest, RendersNodesAndEdges) {
  DotWriter W("g");
  W.node("a", "A", "shape=circle");
  W.node("b", "B");
  W.edge("a", "b", "go");
  std::ostringstream OS;
  W.print(OS);
  std::string S = OS.str();
  EXPECT_NE(S.find("digraph \"g\""), std::string::npos);
  EXPECT_NE(S.find("\"a\" -> \"b\" [label=\"go\"]"), std::string::npos);
  EXPECT_NE(S.find("shape=circle"), std::string::npos);
}

TEST(ValueTest, KindsCompareUnequal) {
  StringInterner In;
  Value None;
  Value I42 = Value::integer(42);
  Value Name = Value::name(In.intern("x"));
  EXPECT_NE(None, I42);
  EXPECT_NE(I42, Name);
  EXPECT_NE(None, Name);
}

TEST(ValueTest, EqualityAndHashAgree) {
  StringInterner In;
  Value A = Value::integer(7);
  Value B = Value::integer(7);
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.hash(), B.hash());
  Value C = Value::name(In.intern("n"));
  Value D = Value::name(In.intern("n"));
  EXPECT_EQ(C, D);
  EXPECT_EQ(C.hash(), D.hash());
}

TEST(ValueTest, OrderingIsTotalWithinKind) {
  Value A = Value::integer(1);
  Value B = Value::integer(2);
  EXPECT_TRUE(A < B);
  EXPECT_FALSE(B < A);
  EXPECT_FALSE(A < A);
}

TEST(ValueTest, StrRendersEachKind) {
  StringInterner In;
  EXPECT_EQ(Value().str(In), "");
  EXPECT_EQ(Value::integer(-3).str(In), "-3");
  EXPECT_EQ(Value::name(In.intern("svc")).str(In), "svc");
}

TEST(HashUtilTest, HashAllIsOrderSensitive) {
  EXPECT_NE(hashAll(1, 2), hashAll(2, 1));
  EXPECT_EQ(hashAll(1, 2), hashAll(1, 2));
}

TEST(DotWriterTest, EscapeHandlesQuotesBackslashesAndNewlines) {
  EXPECT_EQ(DotWriter::escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(DotWriter::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(DotWriter::escape("line1\nline2"), "line1\\nline2");
  // An escaped sequence in the input gets both characters re-escaped.
  EXPECT_EQ(DotWriter::escape("\\n"), "\\\\n");
}

TEST(DotWriterTest, EscapeFoldsCarriageReturns) {
  // Raw CR and CRLF would end a DOT quoted literal mid-string just like
  // LF; both fold to the \n escape, CRLF as a single break.
  EXPECT_EQ(DotWriter::escape("a\rb"), "a\\nb");
  EXPECT_EQ(DotWriter::escape("a\r\nb"), "a\\nb");
  EXPECT_EQ(DotWriter::escape("a\r\rb"), "a\\n\\nb");
  EXPECT_EQ(DotWriter::escape("a\n\rb"), "a\\n\\nb");
}

//===----------------------------------------------------------------------===//
// Span tracing
//===----------------------------------------------------------------------===//

/// Restores a quiet tracer/registry around each test so process-wide
/// state cannot leak across cases.
class TraceTest : public ::testing::Test {
protected:
  void SetUp() override {
    trace::disable();
    trace::reset();
  }
  void TearDown() override {
    trace::disable();
    trace::reset();
  }
};

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  ASSERT_FALSE(trace::enabled());
  {
    trace::Span S("test.span", "test");
    S.count("n", 1);
  }
  EXPECT_EQ(trace::spanCount(), 0u);
  EXPECT_EQ(trace::droppedSpans(), 0u);
}

TEST_F(TraceTest, RecordsSpansWithArgs) {
  trace::enable(/*Capacity=*/16);
  {
    trace::Span S("test.tagged", "test");
    S.tag("verdict", "ok");
    S.count("items", 42);
  }
  { trace::Span S("test.plain", "test"); }
  EXPECT_EQ(trace::spanCount(), 2u);

  std::ostringstream OS;
  trace::writeChromeTrace(OS);
  std::string Json = OS.str();
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"test.tagged\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Json.find("\"verdict\":\"ok\""), std::string::npos);
  EXPECT_NE(Json.find("\"items\":42"), std::string::npos);
}

TEST_F(TraceTest, RingKeepsTheMostRecentSpansAndCountsDrops) {
  trace::enable(/*Capacity=*/4);
  for (int I = 0; I < 7; ++I) {
    trace::Span S("test.wrap", "test");
  }
  EXPECT_EQ(trace::spanCount(), 4u);
  EXPECT_EQ(trace::droppedSpans(), 3u);
  trace::reset();
  EXPECT_EQ(trace::spanCount(), 0u);
  EXPECT_EQ(trace::droppedSpans(), 0u);
}

TEST_F(TraceTest, SpansAfterDisableAreNotRecorded) {
  trace::enable(16);
  { trace::Span S("test.kept", "test"); }
  trace::disable();
  { trace::Span S("test.lost", "test"); }
  EXPECT_EQ(trace::spanCount(), 1u);
}

TEST_F(TraceTest, ConcurrentNestedSpansAreAllAccounted) {
  // Eight threads record nested spans with args into a ring smaller than
  // the total, so recording, wraparound and drop counting all race.
  constexpr unsigned Threads = 8, PerThread = 200;
  trace::enable(/*Capacity=*/1024);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([] {
      for (unsigned I = 0; I < PerThread; ++I) {
        trace::Span Outer("test.outer", "test");
        Outer.tag("side", "outer");
        {
          trace::Span Inner("test.inner", "test");
          Inner.count("i", I);
        }
      }
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(trace::spanCount() + trace::droppedSpans(),
            size_t(Threads) * PerThread * 2);
  EXPECT_EQ(trace::spanCount(), 1024u);

  std::ostringstream OS;
  trace::writeChromeTrace(OS);
  EXPECT_NE(OS.str().find("\"traceEvents\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Metrics registry
//===----------------------------------------------------------------------===//

class MetricsTest : public ::testing::Test {
protected:
  void SetUp() override {
    metrics::disable();
    metrics::reset();
  }
  void TearDown() override {
    metrics::disable();
    metrics::reset();
  }
};

TEST_F(MetricsTest, DisabledMutationsAreNoOps) {
  metrics::Counter &C = metrics::counter("test.disabled.counter");
  metrics::Gauge &G = metrics::gauge("test.disabled.gauge");
  metrics::Histogram &H = metrics::histogram("test.disabled.hist");
  C.add(5);
  G.set(7);
  G.setMax(9);
  H.observe(3);
  EXPECT_EQ(C.value(), 0u);
  EXPECT_EQ(G.value(), 0);
  EXPECT_EQ(H.count(), 0u);
}

TEST_F(MetricsTest, CounterMergesAcrossThreads) {
  metrics::enable();
  metrics::Counter &C = metrics::counter("test.threads.counter");
  std::vector<std::thread> Threads;
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([&C] {
      for (int I = 0; I < 1000; ++I)
        C.add();
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(C.value(), 4000u);
}

TEST_F(MetricsTest, ConcurrentInstrumentsUnderTracingAreExact) {
  // Eight threads bump a counter and a histogram from inside nested
  // spans: no increment may be lost, and no span either.
  constexpr unsigned Threads = 8, PerThread = 500;
  metrics::enable();
  trace::enable(/*Capacity=*/1 << 14);
  trace::reset();
  metrics::Counter &C = metrics::counter("test.race.counter");
  metrics::Histogram &H = metrics::histogram("test.race.hist");
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&C, &H, T] {
      for (unsigned I = 0; I < PerThread; ++I) {
        trace::Span Outer("test.race", "test");
        Outer.count("thread", T);
        trace::Span Inner("test.race.bump", "test");
        Inner.tag("kind", "bump");
        C.add(2);
        H.observe(T);
      }
    });
  for (std::thread &W : Workers)
    W.join();
  trace::disable();

  constexpr uint64_t Total = uint64_t(Threads) * PerThread;
  EXPECT_EQ(C.value(), 2 * Total);
  EXPECT_EQ(H.count(), Total);
  EXPECT_EQ(H.sum(), uint64_t(PerThread) * (Threads * (Threads - 1) / 2));
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), Threads - 1);
  EXPECT_EQ(trace::spanCount() + trace::droppedSpans(), 2 * Total);

  std::ostringstream Trace, Json;
  trace::writeChromeTrace(Trace);
  metrics::writeJson(Json);
  EXPECT_NE(Trace.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.str().find("\"test.race.counter\": " +
                            std::to_string(2 * Total)),
            std::string::npos);
  trace::reset();
}

TEST_F(MetricsTest, GaugeSetAndHighWaterMark) {
  metrics::enable();
  metrics::Gauge &G = metrics::gauge("test.gauge");
  G.set(10);
  EXPECT_EQ(G.value(), 10);
  G.setMax(5); // Below the mark: no change.
  EXPECT_EQ(G.value(), 10);
  G.setMax(25);
  EXPECT_EQ(G.value(), 25);
}

TEST_F(MetricsTest, HistogramLog2BucketsAndEnvelope) {
  metrics::enable();
  metrics::Histogram &H = metrics::histogram("test.hist");
  H.observe(0); // bucket 0
  H.observe(1); // bucket 1: bit_width(1) == 1
  H.observe(5); // bucket 3: bit_width(5) == 3
  H.observe(7); // bucket 3
  EXPECT_EQ(H.count(), 4u);
  EXPECT_EQ(H.sum(), 13u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 7u);
  EXPECT_EQ(H.bucket(0), 1u);
  EXPECT_EQ(H.bucket(1), 1u);
  EXPECT_EQ(H.bucket(2), 0u);
  EXPECT_EQ(H.bucket(3), 2u);
}

TEST_F(MetricsTest, TimeAccountsAreAlwaysOn) {
  ASSERT_FALSE(metrics::enabled());
  metrics::TimeAccount &T = metrics::timeAccount("test.time");
  T.resetValue();
  T.add(125);
  T.add(75);
  EXPECT_EQ(T.nanos(), 200u);
  T.resetValue();
  EXPECT_EQ(T.nanos(), 0u);
}

TEST_F(MetricsTest, WriteJsonEmitsTheV1Shape) {
  metrics::enable();
  metrics::counter("test.json.counter").add(3);
  metrics::gauge("test.json.gauge").set(-4);
  metrics::histogram("test.json.hist").observe(2);
  std::ostringstream OS;
  metrics::writeJson(OS);
  std::string Json = OS.str();
  EXPECT_NE(Json.find("\"schema\": \"sus-metrics-v1\""), std::string::npos);
  EXPECT_NE(Json.find("\"test.json.counter\": 3"), std::string::npos);
  EXPECT_NE(Json.find("\"test.json.gauge\": -4"), std::string::npos);
  EXPECT_NE(Json.find("\"test.json.hist\""), std::string::npos);
  EXPECT_NE(Json.find("\"buckets\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// parseCount
//===----------------------------------------------------------------------===//

TEST(ParseCountTest, AcceptsDigitsOnlyWithinUint64) {
  struct Row {
    const char *Text;
    CountParse Want;
    uint64_t Value; ///< Expected value when Want is Ok.
  };
  const Row Table[] = {
      {"", CountParse::NotDigits, 0},
      {"-1", CountParse::NotDigits, 0},
      {"+1", CountParse::NotDigits, 0},
      {"1x", CountParse::NotDigits, 0},
      {"0", CountParse::Ok, 0},
      {"256", CountParse::Ok, 256},
      {"257", CountParse::Ok, 257},
      {"18446744073709551616", CountParse::OutOfRange, 0},
  };
  for (const Row &R : Table) {
    uint64_t Out = 12345;
    EXPECT_EQ(parseCount(R.Text, Out), R.Want) << "'" << R.Text << "'";
    // The output is written only on success.
    EXPECT_EQ(Out, R.Want == CountParse::Ok ? R.Value : 12345u)
        << "'" << R.Text << "'";
  }
  uint64_t Max = 0;
  EXPECT_EQ(parseCount("18446744073709551615", Max), CountParse::Ok);
  EXPECT_EQ(Max, ~uint64_t(0));
}

} // namespace
