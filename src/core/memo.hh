/**
 * @file
 * The one memo (DESIGN.md §5): string key -> immutable value,
 * single-flight and byte-bounded. Its three instances are the stream
 * cache (core::StreamCache), the fault-map cache (core::FaultMapCache)
 * and the c8td result memo (net::Daemon).
 *
 *  - Single-flight. The first caller for a key fills it while holding
 *    the key's fill mutex; callers that arrive meanwhile wait on that
 *    mutex and are served the same value, counting as hits, so the
 *    counters do not depend on thread timing. A fill that throws
 *    leaves the key to the next waiter (nobody inherits another
 *    caller's failure); a failed key nobody waits on is erased.
 *  - Byte budget. Filled values, each charged what Charge says, stay
 *    under the budget; the least recently used are evicted first, in
 *    O(1). Keys still filling are never evicted, an evicted key is
 *    filled again on its next request, and callers keep their value
 *    alive through its shared_ptr.
 *  - Accept test. A caller may reject a filled value; it then refills
 *    the key itself (a miss) and replaces the stored value.
 *
 * The map mutex is held only for lookup, insert and LRU bookkeeping,
 * never across a fill.
 */

#ifndef C8T_CORE_MEMO_HH
#define C8T_CORE_MEMO_HH

#include <cstdint>
#include <exception>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace c8t::core
{

/** Memo counters (metrics, tests). */
struct MemoStats
{
    std::uint64_t hits = 0;      ///< served a stored or awaited value
    std::uint64_t misses = 0;    ///< successful fills and refills
    std::uint64_t evictions = 0; ///< values dropped for the budget
    std::uint64_t entries = 0;   ///< resident values
    std::uint64_t bytes = 0;     ///< their charge
};

/** Default charge: key bytes plus value.size(). */
struct KeyAndSizeCharge
{
    template <typename T>
    std::uint64_t operator()(const std::string &key, const T &v) const
    {
        return key.size() + v.size();
    }
};

/** Default accept test: every filled value serves. */
struct AcceptAny
{
    template <typename T>
    bool operator()(const T &) const
    {
        return true;
    }
};

/** Key -> value memo; see the file comment. */
template <typename T, typename Charge = KeyAndSizeCharge>
class Memo
{
  public:
    using Value = std::shared_ptr<const T>;

    explicit Memo(std::uint64_t budgetBytes) : _budgetBytes(budgetBytes) {}

    /**
     * The value for @p key: the stored one if @p accept takes it, also
     * after waiting for a concurrent fill (@p hit true); otherwise the
     * result of @p fill run on this thread, now stored (@p hit false).
     * Exceptions from @p fill propagate and leave the key as it was.
     */
    template <typename Fill, typename Accept = AcceptAny>
    Value getOrCompute(const std::string &key, Fill &&fill, bool &hit,
                       Accept &&accept = {})
    {
        std::shared_ptr<Entry> entry;
        {
            const std::lock_guard<std::mutex> lock(_mutex);
            std::shared_ptr<Entry> &slot = _entries[key];
            if (!slot)
                slot = std::make_shared<Entry>(key);
            entry = slot;
            ++entry->users;
        }

        const std::lock_guard<std::mutex> fillLock(entry->fillMutex);
        hit = entry->value && accept(*entry->value);
        std::exception_ptr error;
        if (!hit) {
            try {
                entry->value = std::make_shared<const T>(fill());
            } catch (...) {
                error = std::current_exception();
            }
        }

        {
            const std::lock_guard<std::mutex> lock(_mutex);
            --entry->users;
            if (hit) {
                ++_stats.hits;
                if (entry->resident)
                    _lru.splice(_lru.begin(), _lru, entry->lru);
            } else if (!error) {
                ++_stats.misses;
                store(*entry);
            } else if (!entry->value && entry->users == 0 &&
                       isSlot(*entry)) {
                _entries.erase(key);
            }
        }
        if (error)
            std::rethrow_exception(error);
        return entry->value;
    }

    /** Counter snapshot. */
    MemoStats stats() const
    {
        const std::lock_guard<std::mutex> lock(_mutex);
        return _stats;
    }

    /** Run @p f on the counters under the map mutex, so successive
     *  callers publish them in order. */
    template <typename F>
    void withStats(F &&f) const
    {
        const std::lock_guard<std::mutex> lock(_mutex);
        f(_stats);
    }

    /** Drop every value; fills in flight are served but not kept.
     *  hits, misses and evictions keep accumulating. */
    void clear()
    {
        const std::lock_guard<std::mutex> lock(_mutex);
        for (const std::shared_ptr<Entry> &e : _lru)
            e->resident = false;
        _lru.clear();
        _entries.clear();
        _stats.entries = _stats.bytes = 0;
    }

    /** Change the budget, evicting at once if now over it. */
    void setByteBudget(std::uint64_t bytes)
    {
        const std::lock_guard<std::mutex> lock(_mutex);
        _budgetBytes = bytes;
        evictOverBudget();
    }

    std::uint64_t byteBudget() const
    {
        const std::lock_guard<std::mutex> lock(_mutex);
        return _budgetBytes;
    }

  private:
    struct Entry;
    using Lru = std::list<std::shared_ptr<Entry>>;

    struct Entry
    {
        explicit Entry(std::string k) : key(std::move(k)) {}

        const std::string key;
        std::mutex fillMutex; ///< held across a fill
        Value value;          ///< guarded by fillMutex; null until filled

        // Guarded by the map mutex.
        std::uint64_t users = 0;    ///< callers holding this entry
        bool resident = false;      ///< filled and in the LRU list
        typename Lru::iterator lru; ///< position when resident
        std::uint64_t charged = 0;  ///< bytes counted when resident
    };

    /** Whether @p e is still its key's map slot (not evicted or
     *  cleared). Caller holds _mutex. */
    bool isSlot(const Entry &e) const
    {
        const auto it = _entries.find(e.key);
        return it != _entries.end() && it->second.get() == &e;
    }

    /** Charge @p e's fresh value and make it most recently used; an
     *  entry that left the map while filling is served, not kept.
     *  Caller holds _mutex and e.fillMutex. */
    void store(Entry &e)
    {
        if (e.resident) {
            _stats.bytes -= e.charged;
            _lru.splice(_lru.begin(), _lru, e.lru);
        } else if (isSlot(e)) {
            _lru.push_front(_entries.at(e.key));
            e.lru = _lru.begin();
            e.resident = true;
            ++_stats.entries;
        } else {
            return;
        }
        e.charged = Charge{}(e.key, *e.value);
        _stats.bytes += e.charged;
        evictOverBudget();
    }

    /** Evict least recently used values until under budget. Caller
     *  holds _mutex. */
    void evictOverBudget()
    {
        while (_stats.bytes > _budgetBytes && !_lru.empty()) {
            const std::shared_ptr<Entry> victim = _lru.back();
            _lru.pop_back();
            victim->resident = false;
            _stats.bytes -= victim->charged;
            --_stats.entries;
            ++_stats.evictions;
            _entries.erase(victim->key); // resident => its key's slot
        }
    }

    std::uint64_t _budgetBytes;
    mutable std::mutex _mutex;
    std::unordered_map<std::string, std::shared_ptr<Entry>> _entries;
    Lru _lru; ///< resident entries, most recently used first
    MemoStats _stats;
};

} // namespace c8t::core

#endif // C8T_CORE_MEMO_HH
