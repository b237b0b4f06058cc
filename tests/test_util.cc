/**
 * @file
 * Tests for the util substrate: aligned buffers, PRNG, tables, CLI.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "util/aligned.hh"
#include "util/cli.hh"
#include "util/random.hh"
#include "util/table.hh"
#include "util/timer.hh"

namespace spg {
namespace {

TEST(AlignedBuffer, AlignmentAndZeroInit)
{
    AlignedBuffer<float> buf(1000);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 64, 0u);
    EXPECT_EQ(buf.size(), 1000u);
    for (auto v : buf)
        ASSERT_EQ(v, 0.0f);
}

TEST(AlignedBuffer, MoveTransfersOwnership)
{
    AlignedBuffer<int> a(10);
    a[3] = 7;
    int *p = a.data();
    AlignedBuffer<int> b = std::move(a);
    EXPECT_EQ(b.data(), p);
    EXPECT_EQ(b[3], 7);
    EXPECT_TRUE(a.empty());
    a = AlignedBuffer<int>(5);
    a[0] = 1;
    b = std::move(a);
    EXPECT_EQ(b.size(), 5u);
    EXPECT_EQ(b[0], 1);
}

TEST(AlignedBuffer, EmptyIsSafe)
{
    AlignedBuffer<double> buf;
    EXPECT_TRUE(buf.empty());
    EXPECT_EQ(buf.data(), nullptr);
    buf.zero();  // no-op, must not crash
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
    bool differs = false;
    Rng a2(42);
    for (int i = 0; i < 10; ++i)
        differs |= a2.next() != c.next();
    EXPECT_TRUE(differs);
}

TEST(Rng, UniformInRange)
{
    Rng rng(1);
    for (int i = 0; i < 10000; ++i) {
        float u = rng.uniform();
        ASSERT_GE(u, 0.0f);
        ASSERT_LT(u, 1.0f);
    }
    for (int i = 0; i < 1000; ++i) {
        float u = rng.uniform(-3.0f, 5.0f);
        ASSERT_GE(u, -3.0f);
        ASSERT_LT(u, 5.0f);
    }
}

TEST(Rng, BelowCoversRange)
{
    Rng rng(2);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t v = rng.below(7);
        ASSERT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(3);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Table, RendersAllRows)
{
    TablePrinter table("demo", {"a", "b"});
    table.addRow({"1", "2"});
    table.addRow({"x", TablePrinter::fmt(3.14159, 3)});
    EXPECT_EQ(table.rowCount(), 2u);
    EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(TablePrinter::fmt(static_cast<long long>(-7)), "-7");
}

TEST(Table, CsvEscaping)
{
    TablePrinter table("csv", {"v"});
    table.addRow({"has,comma"});
    table.addRow({"has\"quote"});
    std::FILE *f = std::tmpfile();
    ASSERT_NE(f, nullptr);
    table.printCsv(f);
    std::rewind(f);
    char buf[256];
    std::string content;
    while (std::fgets(buf, sizeof(buf), f))
        content += buf;
    std::fclose(f);
    EXPECT_NE(content.find("\"has,comma\""), std::string::npos);
    EXPECT_NE(content.find("\"has\"\"quote\""), std::string::npos);
}

TEST(Cli, ParsesTypedFlags)
{
    CliParser cli("test");
    cli.addInt("cores", 16, "core count");
    cli.addDouble("sparsity", 0.85, "sparsity");
    cli.addString("engine", "auto", "engine name");
    cli.addBool("csv", false, "emit csv");

    const char *argv[] = {"prog",       "--cores=8", "--sparsity", "0.5",
                          "--engine",   "direct",    "--csv",      "pos1"};
    cli.parse(8, const_cast<char **>(argv));
    EXPECT_EQ(cli.getInt("cores"), 8);
    EXPECT_DOUBLE_EQ(cli.getDouble("sparsity"), 0.5);
    EXPECT_EQ(cli.getString("engine"), "direct");
    EXPECT_TRUE(cli.getBool("csv"));
    ASSERT_EQ(cli.positional().size(), 1u);
    EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, DefaultsSurviveNoArgs)
{
    CliParser cli("test");
    cli.addInt("n", 5, "n");
    cli.addBool("flag", true, "f");
    const char *argv[] = {"prog"};
    cli.parse(1, const_cast<char **>(argv));
    EXPECT_EQ(cli.getInt("n"), 5);
    EXPECT_TRUE(cli.getBool("flag"));
}

TEST(Timer, MeasuresElapsed)
{
    Stopwatch sw;
    double sink = 0;
    for (int i = 0; i < 100000; ++i)
        sink += i;
    // Prevent the loop from being optimized away.
    asm volatile("" : : "g"(&sink) : "memory");
    EXPECT_GT(sw.seconds(), 0.0);
    EXPECT_GT(sw.microseconds(), sw.milliseconds());
}

TEST(Timer, BestAndMeanTime)
{
    int calls = 0;
    double best = bestTimeSeconds(3, [&] { ++calls; });
    EXPECT_EQ(calls, 4);  // 1 warm-up + 3 timed
    EXPECT_GE(best, 0.0);
    calls = 0;
    double mean = meanTimeSeconds(5, [&] { ++calls; });
    EXPECT_EQ(calls, 6);
    EXPECT_GE(mean, 0.0);
}

} // namespace
} // namespace spg
