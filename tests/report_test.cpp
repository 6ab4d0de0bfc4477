// Tests for the report layer: table rendering and architecture dumps.
#include <gtest/gtest.h>

#include <sstream>

#include "alg/workload.hpp"
#include "report/architecture.hpp"
#include "report/gantt.hpp"
#include "report/table.hpp"
#include "telemetry/sink.hpp"

namespace hmm {
namespace {

TEST(Table, AsciiAlignsColumns) {
  Table t("demo");
  t.set_header({"name", "v"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "12345"});
  const std::string ascii = t.to_ascii();
  EXPECT_NE(ascii.find("| name  | v     |"), std::string::npos);
  EXPECT_NE(ascii.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(ascii.find("| b     | 12345 |"), std::string::npos);
  // Separator row present.
  EXPECT_NE(ascii.find("|-------|-------|"), std::string::npos);
}

TEST(Table, CsvEscapesSpecials) {
  Table t;
  t.set_header({"a", "b"});
  t.add_row({"plain", "with,comma"});
  t.add_row({"with\"quote", "multi\nline"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("plain,\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
  EXPECT_NE(csv.find("\"multi\nline\""), std::string::npos);
}

TEST(Table, CellFormatting) {
  EXPECT_EQ(Table::cell(std::int64_t{42}), "42");
  EXPECT_EQ(Table::cell(3.14159, 2), "3.14");
  EXPECT_EQ(Table::cell(std::string("x")), "x");
}

TEST(Table, MisuseIsDiagnosed) {
  Table t;
  EXPECT_THROW(t.add_row({"x"}), PreconditionError);
  EXPECT_THROW(t.to_ascii(), PreconditionError);
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), PreconditionError);
  t.add_row({"1", "2"});
  EXPECT_THROW(t.set_header({"too", "late"}), PreconditionError);
}

TEST(Table, PrintIncludesTitle) {
  Table t("My Experiment");
  t.set_header({"x"});
  t.add_row({"1"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("== My Experiment =="), std::string::npos);
}

TEST(Architecture, DescribesAllThreeModels) {
  Machine dmm = Machine::dmm(8, 2, 32, 64);
  Machine umm = Machine::umm(8, 100, 32, 64);
  Machine hmm_m = Machine::hmm(8, 100, 4, 32, 64, 256);
  EXPECT_EQ(describe(dmm), "DMM(w=8, l=2, p=32)");
  EXPECT_EQ(describe(umm), "UMM(w=8, l=100, p=32)");
  EXPECT_EQ(describe(hmm_m),
            "HMM(d=4, w=8, p=128, shared l=1, global l=100)");
}

TEST(Architecture, RendersTheWiringDifference) {
  Machine dmm = Machine::dmm(4, 2, 8, 16);
  Machine umm = Machine::umm(4, 2, 8, 16);
  EXPECT_NE(render_architecture(dmm).find("one per bank"), std::string::npos);
  EXPECT_NE(render_architecture(umm).find("broadcast"), std::string::npos);
  Machine h = Machine::hmm(4, 9, 6, 8, 16, 64);
  const std::string art = render_architecture(h);
  EXPECT_NE(art.find("6 DMMs + 1 UMM"), std::string::npos);
  EXPECT_NE(art.find("... 2 more DMMs"), std::string::npos);
}

TEST(Gantt, RendersInjectionsAndFlight) {
  Machine m = Machine::umm(4, 5, 4, 16);
  telemetry::CollectingSink sink;
  m.set_observer(&sink);
  const auto r = m.run([](ThreadCtx& t) -> SimTask {
    co_await t.read(MemorySpace::kGlobal, t.thread_id());
  });
  const std::string g = render_gantt(r, sink.events());
  EXPECT_NE(g.find("W0"), std::string::npos);
  EXPECT_NE(g.find('I'), std::string::npos);  // injection painted
  EXPECT_NE(g.find('~'), std::string::npos);  // in-flight painted
}

TEST(Gantt, NoTraceIsExplained) {
  Machine m = Machine::umm(4, 5, 4, 16);
  const auto r = m.run([](ThreadCtx& t) -> SimTask { co_await t.compute(); });
  EXPECT_NE(render_gantt(r, {}).find("no trace recorded"), std::string::npos);
}

TEST(Gantt, ElidesExcessWarpsAndBucketsLongRuns) {
  Machine m = Machine::umm(4, 50, 64, 4096);
  telemetry::CollectingSink sink;
  m.set_observer(&sink);
  const auto r = m.run([](ThreadCtx& t) -> SimTask {
    for (Address i = t.thread_id(); i < 4096; i += t.num_threads()) {
      co_await t.read(MemorySpace::kGlobal, i);
    }
  });
  GanttOptions opt;
  opt.max_warps = 4;
  opt.max_columns = 40;
  const std::string g = render_gantt(r, sink.events(), opt);
  EXPECT_NE(g.find("12 more warps elided"), std::string::npos);
  EXPECT_THROW(
      render_gantt(r, sink.events(), GanttOptions{.max_columns = 2}),
      PreconditionError);
}

TEST(Workload, GeneratorsAreDeterministicAndShaped) {
  EXPECT_EQ(alg::random_words(16, 7), alg::random_words(16, 7));
  EXPECT_NE(alg::random_words(16, 7), alg::random_words(16, 8));
  for (Word v : alg::random_words(100, 1, -5, 5)) {
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
  EXPECT_EQ(alg::iota_words(3, 10), (std::vector<Word>{10, 11, 12}));
  EXPECT_EQ(alg::box_filter(3), (std::vector<Word>{1, 1, 1}));
  EXPECT_EQ(alg::edge_filter(4), (std::vector<Word>{-1, 0, 0, 1}));
  EXPECT_THROW(alg::edge_filter(1), PreconditionError);
}

}  // namespace
}  // namespace hmm
