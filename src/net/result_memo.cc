/**
 * @file
 * Single-flight, byte-bounded result memo implementation.
 */

#include "net/result_memo.hh"

#include <exception>

namespace c8t::net
{

ResultMemo::Document
ResultMemo::getOrCompute(const std::string &key,
                         const std::function<std::string()> &compute,
                         bool &hit)
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

    // Per-entry lock: the leader computes while identical callers wait
    // here, outside _mutex, and then hit; other keys proceed in
    // parallel.
    const std::lock_guard<std::mutex> fill(entry->fillMutex);
    hit = entry->filled;
    std::exception_ptr error;
    if (!hit) {
        try {
            entry->document =
                std::make_shared<const std::string>(compute());
            entry->filled = true;
        } catch (...) {
            error = std::current_exception();
        }
    }

    {
        const std::lock_guard<std::mutex> lock(_mutex);
        --entry->users;
        if (entry->resident) {
            _lru.splice(_lru.begin(), _lru, entry->lru);
        } else if (entry->filled && !hit) {
            entry->charged = key.size() + entry->document->size();
            _lru.push_front(entry);
            entry->lru = _lru.begin();
            entry->resident = true;
            _stats.bytes += entry->charged;
            ++_stats.entries;
            evictOverBudget();
        } else if (!entry->filled && entry->users == 0) {
            // A failed fill nobody waits to retry: forget the key so
            // failing specs do not accumulate empty slots.
            _entries.erase(key);
        }
    }

    if (error)
        std::rethrow_exception(error);
    return entry->document;
}

void
ResultMemo::evictOverBudget()
{
    while (_stats.bytes > _budgetBytes && !_lru.empty()) {
        const std::shared_ptr<Entry> victim = _lru.back();
        _lru.pop_back();
        victim->resident = false;
        _stats.bytes -= victim->charged;
        --_stats.entries;
        ++_stats.evictions;
        // A resident entry is always its key's map slot: slots leave
        // the map only here or, unfilled, after a failed fill.
        _entries.erase(victim->key);
    }
}

ResultMemo::Stats
ResultMemo::stats() const
{
    const std::lock_guard<std::mutex> lock(_mutex);
    return _stats;
}

} // namespace c8t::net
