// Unit tests for the support substrate: aligned buffers, table rendering,
// env parsing, CLI parsing, memory tracking, and small utilities.
#include <gtest/gtest.h>

#include <cstdlib>

#include "support/aligned_buffer.hpp"
#include "support/cli.hpp"
#include "support/common.hpp"
#include "support/env.hpp"
#include "support/memory_tracker.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace rsketch {
namespace {

TEST(CeilDiv, Basics) {
  EXPECT_EQ(ceil_div(0, 5), 0);
  EXPECT_EQ(ceil_div(1, 5), 1);
  EXPECT_EQ(ceil_div(5, 5), 1);
  EXPECT_EQ(ceil_div(6, 5), 2);
  EXPECT_EQ(ceil_div(10, 3), 4);
}

TEST(Require, ThrowsOnFalse) {
  EXPECT_NO_THROW(require(true, "ok"));
  EXPECT_THROW(require(false, "boom"), invalid_argument_error);
}

TEST(AlignedBuffer, AllocatesAligned) {
  AlignedBuffer<float> buf(100);
  EXPECT_EQ(buf.size(), 100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kCacheLineBytes,
            0u);
  buf[0] = 1.5f;
  buf[99] = 2.5f;
  EXPECT_EQ(buf[0], 1.5f);
  EXPECT_EQ(buf[99], 2.5f);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer<int> a(10);
  a[3] = 42;
  int* p = a.data();
  AlignedBuffer<int> b(std::move(a));
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b[3], 42);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(a.size(), 0);
}

TEST(AlignedBuffer, EmptyAndReset) {
  AlignedBuffer<double> buf;
  EXPECT_TRUE(buf.empty());
  buf.reset(7);
  EXPECT_EQ(buf.size(), 7);
  buf.reset(0);
  EXPECT_TRUE(buf.empty());
  EXPECT_THROW(buf.reset(-1), invalid_argument_error);
}

TEST(Timer, MeasuresElapsed) {
  Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.seconds(), 0.0);
  (void)sink;
}

TEST(Timer, ResetRestartsInterval) {
  // t starts no earlier than outer and is reset after at least 2 ms, so its
  // reading afterwards trails outer's by at least that much.
  Timer outer;
  Timer t;
  while (t.seconds() < 2e-3) {
  }
  t.reset();
  const double since_reset = t.seconds();
  const double total = outer.seconds();
  EXPECT_GE(since_reset, 0.0);
  EXPECT_LE(since_reset, total - 2e-3);
}

TEST(Table, RendersHeaderAndRows) {
  Table t("Title");
  t.set_header({"Matrix", "time"});
  t.add_row({"mk-12", "0.070"});
  t.add_row({"ch7-9-b3", "7.74"});
  const std::string s = t.render();
  EXPECT_NE(s.find("Title"), std::string::npos);
  EXPECT_NE(s.find("Matrix"), std::string::npos);
  EXPECT_NE(s.find("mk-12"), std::string::npos);
  EXPECT_NE(s.find("7.74"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, SeparatorNotCountedAsRow) {
  Table t;
  t.set_header({"a", "b"});
  t.add_row({"x", "1"});
  t.add_separator();
  t.add_row({"y", "2"});
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, RowCellCountMismatchThrows) {
  Table t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), invalid_argument_error);
}

TEST(Table, Footnote) {
  Table t;
  t.set_header({"x"});
  t.add_row({"1"});
  t.set_footnote("note here");
  EXPECT_NE(t.render().find("note here"), std::string::npos);
}

TEST(TableFormat, Time) {
  EXPECT_EQ(fmt_time(0.0501), "0.0501");
  EXPECT_EQ(fmt_time(7.74), "7.740");
  EXPECT_EQ(fmt_time(508.41), "508.4");
}

TEST(TableFormat, SciAndInt) {
  EXPECT_EQ(fmt_sci(2.02e-3), "2.02e-03");
  EXPECT_EQ(fmt_int(41580), "41580");
  EXPECT_EQ(fmt_fixed(45.8, 1), "45.8");
}

TEST(Env, IntFallbacks) {
  ::unsetenv("RSKETCH_TEST_ENV");
  EXPECT_EQ(env_int("RSKETCH_TEST_ENV", 7), 7);
  ::setenv("RSKETCH_TEST_ENV", "42", 1);
  EXPECT_EQ(env_int("RSKETCH_TEST_ENV", 7), 42);
  ::setenv("RSKETCH_TEST_ENV", "notanint", 1);
  EXPECT_EQ(env_int("RSKETCH_TEST_ENV", 7), 7);
  ::unsetenv("RSKETCH_TEST_ENV");
}

TEST(Env, DoubleAndString) {
  ::setenv("RSKETCH_TEST_ENV2", "2.5", 1);
  EXPECT_DOUBLE_EQ(env_double("RSKETCH_TEST_ENV2", 1.0), 2.5);
  EXPECT_EQ(env_string("RSKETCH_TEST_ENV2", "x"), "2.5");
  ::unsetenv("RSKETCH_TEST_ENV2");
  EXPECT_DOUBLE_EQ(env_double("RSKETCH_TEST_ENV2", 1.0), 1.0);
  EXPECT_EQ(env_string("RSKETCH_TEST_ENV2", "x"), "x");
}

TEST(Env, BenchScaleFloor) {
  ::setenv("RSKETCH_SCALE", "0", 1);
  EXPECT_EQ(bench_scale(), 1);
  ::setenv("RSKETCH_SCALE", "4", 1);
  EXPECT_EQ(bench_scale(), 4);
  ::unsetenv("RSKETCH_SCALE");
}

TEST(Env, PartiallyNumericValueFallsBack) {
  // strtoll would happily parse the "12" prefix of "12threads"; the reader
  // must treat the whole token as invalid instead.
  ::setenv("RSKETCH_TEST_ENV3", "12threads", 1);
  EXPECT_EQ(env_int("RSKETCH_TEST_ENV3", 5), 5);
  ::setenv("RSKETCH_TEST_ENV3", "1.5x", 1);
  EXPECT_DOUBLE_EQ(env_double("RSKETCH_TEST_ENV3", 0.25), 0.25);
  ::unsetenv("RSKETCH_TEST_ENV3");
}

TEST(Env, InvalidValueWarnsExactlyOnce) {
  ::setenv("RSKETCH_TEST_WARN", "garbage", 1);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(env_int("RSKETCH_TEST_WARN", 3), 3);
  const std::string first = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(first.find("RSKETCH_TEST_WARN"), std::string::npos);
  EXPECT_NE(first.find("garbage"), std::string::npos);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(env_int("RSKETCH_TEST_WARN", 3), 3);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  ::unsetenv("RSKETCH_TEST_WARN");
}

TEST(Cli, ParsesKeyValueForms) {
  // Note: a bare token following `--flag` is consumed as the flag's value
  // (documented `--key value` form), so positionals precede flags here.
  const char* argv[] = {"prog", "pos1", "--alpha=3", "--beta", "4", "--flag"};
  CliArgs args(6, argv);
  EXPECT_EQ(args.get_int("alpha", 0), 3);
  EXPECT_EQ(args.get_int("beta", 0), 4);
  EXPECT_TRUE(args.has("flag"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(Cli, FallbacksAndDoubles) {
  const char* argv[] = {"prog", "--x=2.5", "--bad=zzz"};
  CliArgs args(3, argv);
  EXPECT_DOUBLE_EQ(args.get_double("x", 0.0), 2.5);
  EXPECT_EQ(args.get_int("bad", -1), -1);
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
  EXPECT_EQ(args.program(), "prog");
}

TEST(Cli, UnknownFlagNamesTheFirstOneOutsideTheList) {
  const char* argv[] = {"prog", "sketch", "--in", "a.mtx", "--block_d=8"};
  CliArgs args(5, argv);
  EXPECT_EQ(args.unknown_flag({"in", "block-d"}), "block_d");
  EXPECT_EQ(args.unknown_flag({"in", "block_d"}), "");
}

TEST(Cli, UnknownFlagIgnoresPositionalsAndFlagValues) {
  // Positionals and the values of `--key value` pairs are not flags; a bare
  // boolean flag is.
  const char* argv[] = {"prog", "info", "--in", "a.mtx", "--no-check"};
  CliArgs args(5, argv);
  EXPECT_EQ(args.unknown_flag({"in", "no-check"}), "");
  EXPECT_EQ(args.unknown_flag({"in"}), "no-check");
  const char* bare[] = {"prog", "info", "a.mtx"};
  EXPECT_EQ(CliArgs(3, bare).unknown_flag({}), "");
}

TEST(MemoryTracker, TracksPeak) {
  MemoryTracker mt;
  mt.add("a", 100);
  mt.add("b", 50);
  EXPECT_EQ(mt.current_bytes(), 150u);
  EXPECT_EQ(mt.peak_bytes(), 150u);
  mt.release(100);
  EXPECT_EQ(mt.current_bytes(), 50u);
  EXPECT_EQ(mt.peak_bytes(), 150u);
  mt.add("c", 25);
  EXPECT_EQ(mt.peak_bytes(), 150u);
  EXPECT_EQ(mt.items().size(), 3u);
}

TEST(MemoryTracker, ReleaseClampsAtZero) {
  MemoryTracker mt;
  mt.add("a", 10);
  mt.release(1000);
  EXPECT_EQ(mt.current_bytes(), 0u);
}

TEST(MemoryTracker, ReleaseByLabel) {
  MemoryTracker mt;
  mt.add("sketch", 100);
  mt.add("factor", 50);
  mt.add("sketch", 30);
  EXPECT_EQ(mt.current_bytes(), 180u);
  mt.release("sketch");  // releases the most recent live "sketch" (30)
  EXPECT_EQ(mt.current_bytes(), 150u);
  mt.release("sketch");  // then the earlier one (100)
  EXPECT_EQ(mt.current_bytes(), 50u);
  mt.release("sketch");  // no live "sketch" left: no-op
  mt.release("missing");  // unknown label: no-op
  EXPECT_EQ(mt.current_bytes(), 50u);
  EXPECT_EQ(mt.peak_bytes(), 180u);
  EXPECT_EQ(mt.items().size(), 3u);  // the log of allocations is untouched
}

TEST(MemoryTracker, Clear) {
  MemoryTracker mt;
  mt.add("a", 10);
  mt.clear();
  EXPECT_EQ(mt.current_bytes(), 0u);
  EXPECT_EQ(mt.peak_bytes(), 0u);
  EXPECT_TRUE(mt.items().empty());
}

}  // namespace
}  // namespace rsketch
