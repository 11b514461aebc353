/**
 * @file
 * Level-stack implementation (DESIGN.md §14).
 */

#include "core/level_stack.hh"

#include <stdexcept>
#include <string>

namespace c8t::core
{

ControllerConfig
levelConfig(const ControllerConfig &config, std::size_t i)
{
    if (i == 0) {
        ControllerConfig c = config;
        c.lowerLevels.clear();
        return c;
    }
    const LevelConfig &level = config.lowerLevels.at(i - 1);
    ControllerConfig c;
    c.cache = level.cache;
    c.scheme = level.scheme;
    c.bufferEntries = level.bufferEntries;
    c.silentDetection = level.silentDetection;
    c.interleaveDegree = level.interleaveDegree;
    c.latency = level.latency;
    c.tech = config.tech;
    c.vdd = level.vdd;
    c.vmodel = config.vmodel;
    return c;
}

std::string
levelStatsPrefix(std::size_t i)
{
    if (i == 0)
        return std::string();
    std::string prefix = "l";
    prefix += std::to_string(i + 1);
    prefix += '.';
    return prefix;
}

void
validateLevels(const mem::CacheConfig &top,
               const std::vector<LevelConfig> &lower)
{
    std::uint64_t upper_bytes = top.sizeBytes;
    for (const LevelConfig &l : lower) {
        try {
            l.cache.validate();
        } catch (const std::invalid_argument &e) {
            throw std::invalid_argument(std::string("levels[]: ") +
                                        e.what());
        }
        if (l.cache.blockBytes != top.blockBytes)
            throw std::invalid_argument(
                "levels[].block must match the L1 block size");
        if (l.vdd < 0.0)
            throw std::invalid_argument("levels[].vdd must be > 0");
        if (l.cache.sizeBytes < upper_bytes)
            throw std::invalid_argument(
                "levels[].size_kb " +
                std::to_string(l.cache.sizeBytes / 1024) +
                " is smaller than the level above it (" +
                std::to_string(upper_bytes / 1024) + " KB)");
        upper_bytes = l.cache.sizeBytes;
    }
}

LevelStack::LevelStack(const ControllerConfig &config,
                       mem::FunctionalMemory &memory, MemoryRole role)
    : _mem(memory)
{
    validateLevels(config.cache, config.lowerLevels);
    // Every level gets @p role; only the bottom one, which has no next
    // level, ever writes a victim to the memory.
    _levels.reserve(1 + config.lowerLevels.size());
    _levels.push_back(std::make_unique<CacheController>(config, _mem, role));
    for (std::size_t i = 1; i <= config.lowerLevels.size(); ++i) {
        _levels.push_back(std::make_unique<CacheController>(
            levelConfig(config, i), _mem, role));
    }

    // Wire the chain: each level fetches from / writes back to the one
    // below, and each lower level back-invalidates every level above
    // on eviction. The hook walks the upper levels nearest-first and
    // lets each overwrite the staged victim, so the topmost (freshest)
    // copy wins; any dirty upper copy forces the write-down.
    for (std::size_t i = 0; i + 1 < _levels.size(); ++i)
        _levels[i]->attachNextLevel(_levels[i + 1].get());
    for (std::size_t i = 1; i < _levels.size(); ++i) {
        _levels[i]->setEvictionHook(
            [this, i](mem::Addr addr, std::uint8_t *block,
                      std::uint32_t len) {
                bool dirty = false;
                for (std::size_t j = i; j-- > 0;) {
                    if (_levels[j]->extractInvalidate(addr, block, len))
                        dirty = true;
                }
                return dirty;
            });
    }
}

void
LevelStack::drain()
{
    for (auto &lvl : _levels)
        lvl->drain();
}

void
LevelStack::flushToMemory()
{
    // Lowest first: an upper level's line is at least as fresh as any
    // lower copy, so flushing upward lets the freshest bytes land last.
    for (std::size_t i = _levels.size(); i-- > 0;)
        _levels[i]->flushCacheToMemory();
}

std::uint64_t
LevelStack::peekWord(mem::Addr addr) const
{
    const mem::Addr word_addr = addr & ~7ull;
    for (const auto &lvl : _levels) {
        if (lvl->tags().probe(word_addr).hit)
            return lvl->peekWord(word_addr);
    }
    return _mem.readWord(word_addr);
}

void
LevelStack::resetStats()
{
    for (auto &lvl : _levels)
        lvl->resetStats();
}

void
LevelStack::registerStats(stats::Registry &reg)
{
    for (std::size_t i = 0; i < _levels.size(); ++i)
        _levels[i]->registerStats(reg, levelStatsPrefix(i));
}

} // namespace c8t::core
