/**
 * @file
 * Functional memory implementation.
 */

#include "mem/functional_mem.hh"

#include <algorithm>
#include <cstring>

namespace c8t::mem
{

const std::uint8_t *
FunctionalMemory::findPage(Addr page_base) const
{
    if (page_base == _lastBase)
        return _lastPage;
    const std::uint64_t slot = _pageTable.get(page_base);
    if (!slot)
        return nullptr;
    _lastBase = page_base;
    _lastPage = _pages[slot - 1].get();
    return _lastPage;
}

std::size_t
FunctionalMemory::takePage()
{
    if (!_freePages.empty()) {
        const std::size_t p = _freePages.back();
        _freePages.pop_back();
        return p;
    }
    // make_unique value-initialises the array, so new pages are zero.
    _pages.push_back(std::make_unique<std::uint8_t[]>(pageBytes));
    return _pages.size() - 1;
}

std::uint8_t *
FunctionalMemory::ensurePage(Addr page_base)
{
    if (page_base == _lastBase)
        return _lastPage;
    std::uint64_t slot = _pageTable.get(page_base);
    if (!slot) {
        slot = takePage() + 1;
        _pageTable.set(page_base, slot);
    }
    _lastBase = page_base;
    _lastPage = _pages[slot - 1].get();
    return _lastPage;
}

std::uint64_t
FunctionalMemory::readWord(Addr addr) const
{
    const Addr word = addr & ~7ull;
    const std::uint8_t *page = findPage(pageBase(word));
    if (!page)
        return 0;
    // Aligned words never straddle a page. Assemble little-endian so
    // the word view and the byte view agree on every host.
    const std::uint8_t *p = page + (word & (pageBytes - 1));
    std::uint64_t v = 0;
    for (int b = 7; b >= 0; --b)
        v = (v << 8) | p[b];
    return v;
}

void
FunctionalMemory::writeWord(Addr addr, std::uint64_t value)
{
    const Addr word = addr & ~7ull;
    if (value == 0 && !findPage(pageBase(word)))
        return; // zero store to untouched memory: nothing to record
    std::uint8_t *p = ensurePage(pageBase(word)) + (word & (pageBytes - 1));
    for (int b = 0; b < 8; ++b) {
        p[b] = static_cast<std::uint8_t>(value);
        value >>= 8;
    }
}

void
FunctionalMemory::readBytes(Addr addr, std::uint8_t *out,
                            std::size_t len) const
{
    // Fast path for the miss pipeline: a whole cache block (32/64
    // bytes, block-aligned so it never straddles a page) costs one
    // probe and one fixed-size copy the compiler inlines.
    const std::size_t off = static_cast<std::size_t>(
        addr & static_cast<Addr>(pageBytes - 1));
    if (off + len <= pageBytes && (len == 32 || len == 64)) {
        const std::uint8_t *page = findPage(pageBase(addr));
        if (!page)
            std::memset(out, 0, len);
        else if (len == 32)
            __builtin_memcpy(out, page + off, 32);
        else
            __builtin_memcpy(out, page + off, 64);
        return;
    }

    std::size_t i = 0;
    while (i < len) {
        const Addr a = addr + i;
        const Addr base = pageBase(a);
        const std::size_t off = static_cast<std::size_t>(a - base);
        const std::size_t n = std::min<std::size_t>(pageBytes - off,
                                                    len - i);
        if (const std::uint8_t *page = findPage(base))
            std::memcpy(out + i, page + off, n);
        else
            std::memset(out + i, 0, n);
        i += n;
    }
}

std::vector<std::uint8_t>
FunctionalMemory::readBytes(Addr addr, std::size_t len) const
{
    std::vector<std::uint8_t> out(len);
    readBytes(addr, out.data(), len);
    return out;
}

void
FunctionalMemory::writeBytes(Addr addr, const std::uint8_t *data,
                             std::size_t len)
{
    // Fast path mirroring readBytes(): one probe, one fixed-size copy
    // for block-granular transfers that stay within a page.
    const std::size_t off = static_cast<std::size_t>(
        addr & static_cast<Addr>(pageBytes - 1));
    if (off + len <= pageBytes && (len == 32 || len == 64)) {
        std::uint8_t *page = ensurePage(pageBase(addr));
        if (len == 32)
            __builtin_memcpy(page + off, data, 32);
        else
            __builtin_memcpy(page + off, data, 64);
        return;
    }

    std::size_t i = 0;
    while (i < len) {
        const Addr a = addr + i;
        const Addr base = pageBase(a);
        const std::size_t off = static_cast<std::size_t>(a - base);
        const std::size_t n = std::min<std::size_t>(pageBytes - off,
                                                    len - i);
        std::memcpy(ensurePage(base) + off, data + i, n);
        i += n;
    }
}

std::size_t
FunctionalMemory::touchedWords() const
{
    // Diagnostic accessor (tests, invariant checks): scan the live
    // pages for words holding non-zero data, which preserves the
    // historical "zero is not stored" semantics without the hot path
    // having to chase zero writes.
    std::size_t count = 0;
    _pageTable.forEach([&](std::uint64_t, std::uint64_t slot) {
        const std::uint8_t *page = _pages[slot - 1].get();
        for (std::size_t w = 0; w < pageBytes; w += 8) {
            std::uint64_t v;
            std::memcpy(&v, page + w, 8);
            if (v != 0)
                ++count;
        }
    });
    return count;
}

void
FunctionalMemory::clear()
{
    _pageTable.forEach([&](std::uint64_t, std::uint64_t slot) {
        std::memset(_pages[slot - 1].get(), 0, pageBytes);
        _freePages.push_back(slot - 1);
    });
    _pageTable.clear();
    _lastBase = kNoPage;
    _lastPage = nullptr;
}

void
FunctionalMemory::reserve(std::size_t words)
{
    const std::size_t pages = (words * 8 + pageBytes - 1) / pageBytes;
    _pageTable.reserve(pages);
    _pages.reserve(std::max(_pages.size(), pages));
    _freePages.reserve(std::max(_freePages.size(), pages));
    while (_pageTable.size() + _freePages.size() < pages) {
        _pages.push_back(std::make_unique<std::uint8_t[]>(pageBytes));
        _freePages.push_back(_pages.size() - 1);
    }
}

} // namespace c8t::mem
