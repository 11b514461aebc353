/**
 * @file
 * The c8td whole-result memo (DESIGN.md §13): canonical spec JSON ->
 * final document, single-flight and byte-bounded.
 *
 * A job's final document is a pure function of its canonical spec, so
 * replaying stored bytes is always safe. The memo adds two policies on
 * top of that:
 *
 *  - Single-flight. The first caller for a key (the leader) computes
 *    while holding that key's fill mutex. Identical callers that
 *    arrive meanwhile block on the mutex and are then served the
 *    leader's document. If the leader's computation throws, the entry
 *    stays unfilled and the next waiter computes in its turn, so no
 *    caller inherits another caller's failure or cancellation.
 *  - A byte budget. Filled documents (plus their keys) are kept under
 *    budgetBytes; the least recently used are evicted first. Entries
 *    still being computed are never evicted, and an evicted key is
 *    simply computed again on its next request.
 *
 * The map mutex is held only for lookup, insert and LRU bookkeeping,
 * never across a computation or while waiting for a fill.
 */

#ifndef C8T_NET_RESULT_MEMO_HH
#define C8T_NET_RESULT_MEMO_HH

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace c8t::net
{

/** Key -> document memo with single-flight fills and LRU eviction. */
class ResultMemo
{
  public:
    using Document = std::shared_ptr<const std::string>;

    /** The daemon's budget. A daemon_mix run or any test stores well
     *  under 4 MiB, so this never evicts there; it bounds a long-lived
     *  daemon that sees many distinct specs. */
    static constexpr std::uint64_t kDefaultBudgetBytes = 256ull << 20;

    /** Observable behaviour (metrics, tests). */
    struct Stats
    {
        std::uint64_t bytes = 0;     ///< resident keys + documents
        std::uint64_t entries = 0;   ///< resident filled documents
        std::uint64_t evictions = 0; ///< documents dropped for budget
    };

    explicit ResultMemo(std::uint64_t budgetBytes = kDefaultBudgetBytes)
        : _budgetBytes(budgetBytes)
    {
    }

    /**
     * The document for @p key. Served from the memo when filled, also
     * after waiting for a concurrent leader to fill it (@p hit is then
     * true); otherwise @p compute runs on this thread (@p hit false).
     * Exceptions from @p compute propagate and leave the key unfilled.
     */
    Document getOrCompute(const std::string &key,
                          const std::function<std::string()> &compute,
                          bool &hit);

    /** Counter snapshot. */
    Stats stats() const;

  private:
    struct Entry;
    using Lru = std::list<std::shared_ptr<Entry>>;

    /** One memo slot; fillMutex serialises its computation. */
    struct Entry
    {
        explicit Entry(std::string k) : key(std::move(k)) {}

        const std::string key;
        std::mutex fillMutex;
        bool filled = false; ///< guarded by fillMutex
        Document document;   ///< guarded by fillMutex

        // Guarded by the memo's map mutex.
        std::uint64_t users = 0;   ///< callers holding this entry
        bool resident = false;     ///< filled and in the LRU list
        Lru::iterator lru;         ///< position when resident
        std::uint64_t charged = 0; ///< bytes counted when resident
    };

    /** Drop least recently used documents until under budget. Caller
     *  holds _mutex. */
    void evictOverBudget();

    const std::uint64_t _budgetBytes;
    mutable std::mutex _mutex;
    std::unordered_map<std::string, std::shared_ptr<Entry>> _entries;
    Lru _lru; ///< resident entries, most recently used first
    Stats _stats;
};

} // namespace c8t::net

#endif // C8T_NET_RESULT_MEMO_HH
