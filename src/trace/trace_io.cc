/**
 * @file
 * Trace I/O implementation.
 */

#include "trace/trace_io.hh"

#include <array>
#include <charconv>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace c8t::trace
{

namespace
{

constexpr std::array<char, 8> traceMagic =
    {'C', '8', 'T', 'T', 'R', 'A', 'C', 'E'};

constexpr std::size_t headerSize = 8 + 4 + 8;
constexpr std::size_t recordSize = 8 + 8 + 4 + 1 + 1;

void
packU32(char *p, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

void
packU64(char *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

std::uint32_t
unpackU32(const char *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
             << (8 * i);
    return v;
}

std::uint64_t
unpackU64(const char *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
             << (8 * i);
    return v;
}

} // anonymous namespace

struct TraceWriter::Impl
{
    std::ofstream out;
};

TraceWriter::TraceWriter(const std::string &path)
    : _impl(std::make_unique<Impl>())
{
    _impl->out.open(path, std::ios::binary | std::ios::trunc);
    if (!_impl->out)
        throw std::runtime_error("TraceWriter: cannot open " + path);

    char header[headerSize] = {};
    std::memcpy(header, traceMagic.data(), traceMagic.size());
    packU32(header + 8, traceFormatVersion);
    packU64(header + 12, 0); // count back-patched by finish()
    _impl->out.write(header, headerSize);
}

TraceWriter::~TraceWriter()
{
    // Intentionally no implicit finish(): an unfinished trace keeps a
    // zero record count so readers reject it as truncated.
}

void
TraceWriter::write(const MemAccess &a)
{
    char rec[recordSize];
    packU64(rec + 0, a.addr);
    packU64(rec + 8, a.data);
    packU32(rec + 16, a.gap);
    rec[20] = static_cast<char>(a.size);
    rec[21] = static_cast<char>(a.type);
    _impl->out.write(rec, recordSize);
    ++_count;
}

void
TraceWriter::finish()
{
    if (_finished)
        return;
    _finished = true;
    _impl->out.seekp(12, std::ios::beg);
    char buf[8];
    packU64(buf, _count);
    _impl->out.write(buf, 8);
    _impl->out.flush();
    if (!_impl->out)
        throw std::runtime_error("TraceWriter: write failure on finish");
}

struct TraceReader::Impl
{
    std::ifstream in;
};

TraceReader::TraceReader(const std::string &path)
    : _impl(std::make_unique<Impl>()), _path(path)
{
    _impl->in.open(path, std::ios::binary);
    if (!_impl->in)
        throw std::runtime_error("TraceReader: cannot open " + path);

    char header[headerSize];
    _impl->in.read(header, headerSize);
    if (_impl->in.gcount() != static_cast<std::streamsize>(headerSize))
        throw std::runtime_error("TraceReader: truncated header in " + path);
    if (std::memcmp(header, traceMagic.data(), traceMagic.size()) != 0)
        throw std::runtime_error("TraceReader: bad magic in " + path);
    const std::uint32_t version = unpackU32(header + 8);
    if (version != traceFormatVersion) {
        throw std::runtime_error(
            "TraceReader: unsupported version in " + path);
    }
    _total = unpackU64(header + 12);
    if (_total == 0) {
        throw std::runtime_error(
            "TraceReader: zero-length or unfinished trace " + path);
    }
}

TraceReader::~TraceReader() = default;

bool
TraceReader::next(MemAccess &out)
{
    if (_readSoFar >= _total)
        return false;

    char rec[recordSize];
    _impl->in.read(rec, recordSize);
    if (_impl->in.gcount() != static_cast<std::streamsize>(recordSize))
        throw std::runtime_error("TraceReader: truncated record in " + _path);

    out.addr = unpackU64(rec + 0);
    out.data = unpackU64(rec + 8);
    out.gap = unpackU32(rec + 16);
    out.size = static_cast<std::uint8_t>(rec[20]);
    out.type = static_cast<AccessType>(rec[21]);
    ++_readSoFar;
    if (const char *why = out.contractViolation()) {
        throw std::runtime_error("TraceReader: record " +
                                 std::to_string(_readSoFar) + " of " +
                                 std::to_string(_total) + " in " + _path +
                                 ": " + why);
    }
    return true;
}

void
TraceReader::reset()
{
    _impl->in.clear();
    _impl->in.seekg(headerSize, std::ios::beg);
    _readSoFar = 0;
}

std::string
TraceReader::name() const
{
    return "trace:" + _path;
}

void
writeTextTrace(std::ostream &os, const std::vector<MemAccess> &trace)
{
    for (const auto &a : trace)
        os << a.toString() << '\n';
}

std::vector<MemAccess>
readTextTrace(std::istream &is)
{
    std::vector<MemAccess> out;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty())
            continue;
        const auto fail = [&](const std::string &why) {
            return std::runtime_error("readTextTrace: line " +
                                      std::to_string(lineno) + ": " + why);
        };

        std::istringstream ls(line);
        std::string type_tok, addr_tok, size_tok, gap_tok, data_tok;
        ls >> type_tok >> addr_tok >> size_tok >> gap_tok;

        MemAccess a;
        if (type_tok == "R") {
            a.type = AccessType::Read;
        } else if (type_tok == "W") {
            a.type = AccessType::Write;
            ls >> data_tok;
        } else {
            throw fail("bad type '" + type_tok + "'");
        }

        // "<prefix><digits>" in @p base, at most @p max: exactly what
        // writeTextTrace() writes, so no sign, spaces or other base.
        const auto field = [&](const std::string &tok,
                               std::string_view prefix, int base,
                               std::uint64_t max) {
            if (!tok.starts_with(prefix))
                throw fail("bad field '" + tok + "'");
            std::uint64_t v = 0;
            const char *end = tok.data() + tok.size();
            const auto [ptr, ec] =
                std::from_chars(tok.data() + prefix.size(), end, v, base);
            if (ec != std::errc{} || ptr != end || v > max)
                throw fail("bad field '" + tok + "'");
            return v;
        };
        a.addr = field(addr_tok, "0x", 16, UINT64_MAX);
        a.size = static_cast<std::uint8_t>(field(size_tok, "sz=", 10, 8));
        a.gap = static_cast<std::uint32_t>(
            field(gap_tok, "gap=", 10, UINT32_MAX));
        if (a.isWrite())
            a.data = field(data_tok, "data=0x", 16, UINT64_MAX);
        if (const char *why = a.contractViolation())
            throw fail(why);

        out.push_back(a);
    }
    return out;
}

std::vector<MemAccess>
collect(AccessGenerator &gen, std::uint64_t limit)
{
    std::vector<MemAccess> out;
    out.reserve(limit);
    MemAccess a;
    while (out.size() < limit && gen.next(a))
        out.push_back(a);
    return out;
}

} // namespace c8t::trace
