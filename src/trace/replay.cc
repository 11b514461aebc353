/**
 * @file
 * PackedStream and ReplayGenerator implementation.
 */

#include "trace/replay.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <type_traits>

namespace c8t::trace
{

namespace
{

// unpack() writes a MemAccess's last eight bytes (gap, size, type and
// padding) with one little-endian store.
static_assert(std::endian::native == std::endian::little);
static_assert(std::is_trivially_copyable_v<MemAccess>);
static_assert(offsetof(MemAccess, size) == offsetof(MemAccess, gap) + 4 &&
              offsetof(MemAccess, type) == offsetof(MemAccess, gap) + 5 &&
              sizeof(MemAccess) == offsetof(MemAccess, gap) + 8);

/** The size and type bytes of that store, indexed by a record word's
 *  bits 48-50 (size code, then type). */
constexpr std::array<std::uint64_t, 8> kTails = [] {
    std::array<std::uint64_t, 8> tails{};
    for (unsigned i = 0; i < tails.size(); ++i)
        tails[i] = ((std::uint64_t{1} << (i & 3)) << 32) |
                   (std::uint64_t{i >> 2} << 40);
    return tails;
}();

} // anonymous namespace

PackedStream::PackedStream(std::size_t capacity)
    : _records(std::make_unique_for_overwrite<PackedAccess[]>(capacity)),
      _capacity(capacity)
{
}

PackedStream::PackedStream(const std::vector<MemAccess> &accesses)
    : PackedStream(accesses.size())
{
    append(accesses.data(), accesses.size());
}

void
PackedStream::append(const MemAccess *src, std::size_t n)
{
    if (n > _capacity - _size)
        throw std::length_error("PackedStream: append beyond capacity");
    PackedAccess *dst = _records.get() + _size;
    for (std::size_t i = 0; i < n; ++i) {
        const MemAccess &a = src[i];
        const unsigned size = a.size;
        const auto type = static_cast<unsigned>(a.type);
        // Zero exactly when every field fits its bits and keeps the
        // MemAccess contract (size 1, 2, 4 or 8; type 0 or 1).
        const std::uint64_t misfit = (a.addr / kAddrLimit) |
                                     (a.gap / kGapLimit) |
                                     (size & (size - 1)) |
                                     ((size - 1) >> 3) | (type >> 1);
        if (misfit == 0) [[likely]] {
            dst[i].word =
                a.addr |
                (std::uint64_t(std::countr_zero(size)) << kSizeShift) |
                (std::uint64_t(type) << kTypeShift) |
                (std::uint64_t(a.gap) << kGapShift);
            dst[i].data = a.data;
        } else {
            dst[i].word = std::uint64_t{1} << kEscapeShift;
            dst[i].data = _escaped.size();
            _escaped.push_back(a);
        }
    }
    _size += n;
}

void
PackedStream::unpack(std::size_t pos, MemAccess *dst, std::size_t n) const
{
    static_assert(kTypeShift == kSizeShift + 2, "kTails' index");
    const PackedAccess *src = _records.get() + pos;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t word = src[i].word;
        if ((word >> kEscapeShift) & 1) [[unlikely]] {
            dst[i] = _escaped[src[i].data];
            continue;
        }
        dst[i].addr = word & (kAddrLimit - 1);
        dst[i].data = src[i].data;
        const std::uint64_t tail =
            (word >> kGapShift) | kTails[(word >> kSizeShift) & 7];
        std::memcpy(reinterpret_cast<char *>(dst + i) +
                        offsetof(MemAccess, gap),
                    &tail, sizeof(tail));
    }
}

void
PackedStream::shrinkToFit()
{
    if (_size < _capacity) {
        auto records = std::make_unique_for_overwrite<PackedAccess[]>(_size);
        std::copy_n(_records.get(), _size, records.get());
        _records = std::move(records);
        _capacity = _size;
    }
    _escaped.shrink_to_fit();
}

ReplayGenerator::ReplayGenerator(std::string name, Packed stream)
    : _name(std::move(name)), _stream(std::move(stream))
{
    if (!_stream)
        throw std::invalid_argument("ReplayGenerator: null stream");
}

ReplayGenerator::ReplayGenerator(std::string name, const Buffer &buffer)
    : ReplayGenerator(std::move(name),
                      buffer ? std::make_shared<const PackedStream>(*buffer)
                             : nullptr)
{
}

bool
ReplayGenerator::next(MemAccess &out)
{
    if (_pos >= _stream->size())
        return false;
    _stream->unpack(_pos++, &out, 1);
    return true;
}

std::size_t
ReplayGenerator::fillChunk(MemAccess *dst, std::size_t n)
{
    const std::size_t got = std::min(n, _stream->size() - _pos);
    _stream->unpack(_pos, dst, got);
    _pos += got;
    return got;
}

} // namespace c8t::trace
