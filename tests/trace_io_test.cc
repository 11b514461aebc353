/**
 * @file
 * Unit tests for trace I/O: binary round trips, truncation detection,
 * text format parsing.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "trace/kernels.hh"
#include "trace/trace_io.hh"

namespace
{

using namespace c8t::trace;

class TraceIoTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        _path = std::filesystem::temp_directory_path() /
                ("c8t_trace_test_" +
                 std::to_string(::getpid()) + ".trc");
    }

    void TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove(_path, ec);
    }

    std::string path() const { return _path.string(); }

  private:
    std::filesystem::path _path;
};

std::vector<MemAccess>
sampleTrace()
{
    std::vector<MemAccess> t;
    MemAccess a;
    a.addr = 0x1000;
    a.gap = 3;
    a.size = 8;
    t.push_back(a);

    a.addr = 0x2020;
    a.type = AccessType::Write;
    a.data = 0xdeadbeefcafef00dull;
    a.gap = 0;
    a.size = 4;
    t.push_back(a);

    a.addr = 0xffffffffff8ull;
    a.type = AccessType::Read;
    a.data = 0; // reads carry no payload
    a.gap = 1000;
    a.size = 8;
    t.push_back(a);
    return t;
}

TEST_F(TraceIoTest, BinaryRoundTrip)
{
    const auto original = sampleTrace();
    {
        TraceWriter w(path());
        for (const auto &a : original)
            w.write(a);
        w.finish();
        EXPECT_EQ(w.count(), original.size());
    }

    TraceReader r(path());
    EXPECT_EQ(r.count(), original.size());
    MemAccess a;
    for (const auto &expect : original) {
        ASSERT_TRUE(r.next(a));
        EXPECT_EQ(a, expect);
    }
    EXPECT_FALSE(r.next(a));
}

TEST_F(TraceIoTest, ReaderResetReplays)
{
    {
        TraceWriter w(path());
        for (const auto &a : sampleTrace())
            w.write(a);
        w.finish();
    }
    TraceReader r(path());
    MemAccess first, again;
    ASSERT_TRUE(r.next(first));
    r.reset();
    ASSERT_TRUE(r.next(again));
    EXPECT_EQ(first, again);
}

TEST_F(TraceIoTest, UnfinishedTraceRejected)
{
    {
        TraceWriter w(path());
        w.write(MemAccess{});
        // no finish(): header count stays zero
    }
    EXPECT_THROW(TraceReader{path()}, std::runtime_error);
}

TEST_F(TraceIoTest, MissingFileRejected)
{
    EXPECT_THROW(TraceReader{"/nonexistent/path/x.trc"},
                 std::runtime_error);
}

TEST_F(TraceIoTest, BadMagicRejected)
{
    {
        std::ofstream f(path(), std::ios::binary);
        f << "NOTATRACE_AND_SOME_PADDING_BYTES";
    }
    EXPECT_THROW(TraceReader{path()}, std::runtime_error);
}

TEST_F(TraceIoTest, FinishIsIdempotent)
{
    TraceWriter w(path());
    w.write(MemAccess{});
    w.finish();
    w.finish();
    TraceReader r(path());
    EXPECT_EQ(r.count(), 1u);
}

TEST_F(TraceIoTest, ReaderIsAnAccessGenerator)
{
    {
        TraceWriter w(path());
        for (const auto &a : sampleTrace())
            w.write(a);
        w.finish();
    }
    TraceReader r(path());
    AccessGenerator &gen = r;
    const auto collected = collect(gen, 100);
    EXPECT_EQ(collected.size(), 3u);
    EXPECT_NE(gen.name().find("trace:"), std::string::npos);
}

TEST_F(TraceIoTest, KernelTraceRoundTrip)
{
    // Write a real kernel's stream and read it back identically.
    StreamCopyKernel kernel(64, 2);
    const auto original = collect(kernel, 1000);
    {
        TraceWriter w(path());
        for (const auto &a : original)
            w.write(a);
        w.finish();
    }
    TraceReader r(path());
    const auto replayed = collect(r, 1000);
    EXPECT_EQ(replayed, original);
}

/** Write @p trace to @p path, then read it back with a TraceReader
 *  until it ends or throws; returns the error message ("" if none). */
std::string
readBackError(const std::string &path, const std::vector<MemAccess> &trace)
{
    {
        TraceWriter w(path);
        for (const auto &a : trace)
            w.write(a);
        w.finish();
    }
    try {
        TraceReader r(path);
        MemAccess a;
        while (r.next(a)) {
        }
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

TEST_F(TraceIoTest, RecordsBreakingTheAccessContractRejected)
{
    // Each record used to be admitted as read: a size of 200 sent a
    // replay past its 8-byte word (SIGSEGV in c8tsim), a type of 7 ran
    // silently as a write. The error names the file and the record.
    struct Case
    {
        const char *what;
        MemAccess bad;
    };
    MemAccess huge, odd, straddle, type7;
    huge.size = 200;
    odd.size = 3;
    straddle.addr = 0x1004;
    straddle.size = 8;
    type7.type = static_cast<AccessType>(7);
    for (const Case &c : {Case{"size 200", huge}, Case{"size 3", odd},
                          Case{"straddle", straddle},
                          Case{"type 7", type7}}) {
        std::vector<MemAccess> trace = sampleTrace();
        trace.insert(trace.begin() + 1, c.bad);
        const std::string err = readBackError(path(), trace);
        EXPECT_NE(err.find("record 2 of 4 in " + path()),
                  std::string::npos)
            << c.what << ": '" << err << "'";
    }
    // Every legal size at every aligned offset still reads back.
    std::vector<MemAccess> legal;
    for (std::uint8_t size : {1, 2, 4, 8}) {
        for (std::uint64_t off = 0; off + size <= 8; off += size) {
            MemAccess a;
            a.addr = 0x40 + off;
            a.size = size;
            legal.push_back(a);
        }
    }
    EXPECT_EQ(readBackError(path(), legal), "");
}

TEST(TextTrace, RoundTrip)
{
    const auto original = sampleTrace();
    std::stringstream ss;
    writeTextTrace(ss, original);
    const auto parsed = readTextTrace(ss);
    ASSERT_EQ(parsed.size(), original.size());
    for (std::size_t i = 0; i < parsed.size(); ++i)
        EXPECT_EQ(parsed[i], original[i]);
}

TEST(TextTrace, SkipsEmptyLines)
{
    std::stringstream ss("R 0x10 sz=8 gap=0\n\nR 0x20 sz=8 gap=1\n");
    const auto parsed = readTextTrace(ss);
    EXPECT_EQ(parsed.size(), 2u);
}

TEST(TextTrace, RejectsMalformedType)
{
    std::stringstream ss("X 0x10 sz=8 gap=0\n");
    EXPECT_THROW(readTextTrace(ss), std::runtime_error);
}

TEST(TextTrace, RejectsBadAddress)
{
    std::stringstream ss("R 16 sz=8 gap=0\n");
    EXPECT_THROW(readTextTrace(ss), std::runtime_error);
}

TEST(TextTrace, RejectsFieldsBreakingTheAccessContract)
{
    // Each line used to be admitted: sz=264 narrowed to 8, gap=2^32 to
    // 0, and a leading '-' read as a huge value before narrowing.
    for (const char *line :
         {"R 0x10 sz=264 gap=0", "R 0x10 sz=-8 gap=0", "R 0x10 sz=3 gap=0",
          "R 0x14 sz=8 gap=0", "R 0x10 sz=8 gap=4294967296",
          "R 0x10 sz=8 gap=-1", "R 0x-10 sz=8 gap=0",
          "W 0x10 sz=8 gap=0 data=-1", "R 0x10 sz=8 gap=1x"}) {
        std::stringstream ss(std::string("R 0x8 sz=8 gap=0\n") + line +
                             "\n");
        try {
            readTextTrace(ss);
            FAIL() << "accepted '" << line << "'";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("line 2"),
                      std::string::npos)
                << line << ": " << e.what();
        }
    }
    std::stringstream ok("R 0x10 sz=8 gap=4294967295\n");
    EXPECT_EQ(readTextTrace(ok).front().gap, UINT32_MAX);
}

TEST(Collect, RespectsLimit)
{
    StreamCopyKernel kernel(1000, 1);
    const auto v = collect(kernel, 10);
    EXPECT_EQ(v.size(), 10u);
}

} // anonymous namespace
