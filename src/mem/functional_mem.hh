/**
 * @file
 * Sparse functional backing memory.
 *
 * Holds the architectural state below the cache. Storage is a sparse
 * set of zero-filled 4 KiB pages indexed by a WordMap page table:
 * untouched memory reads as zero, and the block-granular
 * transfers on the miss path (readBytes/writeBytes of a whole cache
 * block) cost one page-table probe plus one memcpy instead of the old
 * per-word hash probe with per-byte shifting — the dominant cost of
 * servicing a miss in the sweep profile.
 *
 * Allocation discipline: pages are allocated once on first touch and
 * recycled by clear(); reserve() pre-sizes both the page table and the
 * page pool, after which every access path is strictly allocation-free
 * (tests/hot_path_alloc_test.cc enforces this through a counting
 * global allocator).
 */

#ifndef C8T_MEM_FUNCTIONAL_MEM_HH
#define C8T_MEM_FUNCTIONAL_MEM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/addr.hh"
#include "mem/word_map.hh"

namespace c8t::mem
{

/**
 * Sparse, page-backed functional memory with word semantics identical
 * to the historical word-map version: reads of untouched memory yield
 * zero, and touchedWords() counts words currently holding non-zero
 * data.
 */
class FunctionalMemory
{
  public:
    /** Backing page size in bytes (aligned power of two). */
    static constexpr std::size_t pageBytes = 4096;

    /** Read the aligned 64-bit word containing @p addr. */
    std::uint64_t readWord(Addr addr) const;

    /** Write the aligned 64-bit word containing @p addr. */
    void writeWord(Addr addr, std::uint64_t value);

    /** Read @p len bytes starting at @p addr into @p out. */
    void readBytes(Addr addr, std::uint8_t *out, std::size_t len) const;

    /** Convenience: read @p len bytes as a vector. */
    std::vector<std::uint8_t> readBytes(Addr addr, std::size_t len) const;

    /** Write @p len bytes starting at @p addr. */
    void writeBytes(Addr addr, const std::uint8_t *data, std::size_t len);

    /** Number of distinct words currently holding non-zero data. */
    std::size_t touchedWords() const;

    /** Drop all contents (memory reads as zero again). Pages are
     *  recycled, not freed, so refilling does not allocate. */
    void clear();

    /** Pre-size the page table and page pool so @p words words fit
     *  without allocating (makes subsequent accesses strictly
     *  allocation-free). */
    void reserve(std::size_t words);

  private:
    /** MRU sentinel (page bases are aligned, so an all-ones base can
     *  never collide with one). */
    static constexpr Addr kNoPage = ~Addr(0);

    /** Base address of the page containing @p addr. */
    static constexpr Addr pageBase(Addr addr)
    {
        return addr & ~static_cast<Addr>(pageBytes - 1);
    }

    const std::uint8_t *findPage(Addr page_base) const;
    std::uint8_t *ensurePage(Addr page_base);
    std::size_t takePage();

    /**
     * One-entry most-recently-used page cache in front of the page
     * table. Block transfers on the miss path exhibit strong page
     * locality, so this short-circuits most hash probes. Page storage
     * is per-page heap arrays whose addresses are stable across table
     * growth; only clear() invalidates the cached pointer.
     */
    mutable Addr _lastBase = kNoPage;
    mutable std::uint8_t *_lastPage = nullptr;

    /** Page table: page base -> index into _pages + 1 (0 = absent). */
    WordMap _pageTable;

    /** Page pool; indices in _freePages are zeroed and reusable. */
    std::vector<std::unique_ptr<std::uint8_t[]>> _pages;
    std::vector<std::size_t> _freePages;
};

} // namespace c8t::mem

#endif // C8T_MEM_FUNCTIONAL_MEM_HH
