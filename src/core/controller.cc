/**
 * @file
 * Cache controller implementation.
 */

#include "core/controller.hh"

#include <cassert>
#include <cstring>
#include <stdexcept>

#include "core/policies.hh"

namespace c8t::core
{

namespace
{

/** Serialise a little-endian value into caller-provided storage (the
 *  access hot path never touches the heap). */
void
storeLe(std::uint8_t *dst, std::uint64_t value, std::uint8_t size)
{
    for (std::uint8_t i = 0; i < size; ++i)
        dst[i] = static_cast<std::uint8_t>(value >> (8 * i));
}

/** True when @p config runs at a supply other than the nominal one:
 *  the voltage model is attached. 0 or exactly vmodel.nominalVdd keeps
 *  it detached, so such a run is bit-identical to a pre-vmodel one. */
bool
supplyAttached(const ControllerConfig &config)
{
    return config.vdd > 0.0 && config.vdd != config.vmodel.nominalVdd;
}

} // anonymous namespace

LatencyParams
resolvedLatency(const ControllerConfig &config)
{
    LatencyParams l = config.latency;
    if (supplyAttached(config)) {
        const sram::VddModel vm(config.vmodel);
        l.rowReadCycles = vm.scaleCycles(l.rowReadCycles, config.vdd);
        l.rowWriteCycles = vm.scaleCycles(l.rowWriteCycles, config.vdd);
        l.setBufferCycles = vm.scaleCycles(l.setBufferCycles, config.vdd);
    }
    return l;
}

sram::EnergyEventRates
eventRates(const ControllerConfig &config)
{
    const mem::CacheConfig &cache = config.cache;
    const sram::EnergyEventRates nominal =
        sram::EnergyModel(dataArrayGeometry(cache, config.scheme,
                                            config.interleaveDegree),
                          config.tech)
            .eventRates(mem::AddrLayout(cache.blockBytes, cache.numSets())
                            .tagBits(),
                        cache.ways, cache.setBytes());
    if (!supplyAttached(config))
        return nominal;
    return sram::VddModel(config.vmodel).scaleRates(nominal, config.vdd);
}

CacheController::CacheController(const ControllerConfig &config,
                                 mem::FunctionalMemory &memory,
                                 MemoryRole role)
    : _config(config), _traits(schemeTraits(config.scheme)),
      _mem(memory), _role(role), _tags(config.cache),
      _array(dataArrayGeometry(config.cache, config.scheme,
                               config.interleaveDegree)),
      _energy(_array.geometry(), config.tech)
{
    if (_config.bufferEntries == 0)
        throw std::invalid_argument(
            "ControllerConfig: bufferEntries must be >= 1");

    // Deferred energy accounting: precompute every per-event energy
    // once (the exact addends the per-access accumulation used), so
    // the hot path only bumps integer counters.
    _rates = eventRates(_config);

    // Supply-voltage operating point (DESIGN.md §10): applied entirely
    // here — the energy rates above and the array latency cycle counts
    // are resolved once, so the hot path is identical whether a model
    // is attached or not.
    _config.latency = resolvedLatency(_config);
    if (supplyAttached(_config)) {
        _vddPoint = sram::VddModel(_config.vmodel).at(_config.vdd, cellType());
        _vddActive = true;
        _vddSupply.set(_vddPoint.vdd);
        _vddEnergyScale.set(_vddPoint.energyScale);
        _vddLeakScale.set(_vddPoint.leakageScale);
        _vddDelayFactor.set(_vddPoint.delayFactor);
        _vddPfailRead.set(_vddPoint.pfailRead);
        _vddPfailWrite.set(_vddPoint.pfailWrite);
    }

    if (_traits.needsGroupingBuffer) {
        _tagBuffer = std::make_unique<TagBuffer>(_config.bufferEntries,
                                                 _config.cache.ways);
        _setBuffer = std::make_unique<SetBuffer>(_config.bufferEntries,
                                                 _config.cache.setBytes());
        _entryWritesSinceWb.assign(_config.bufferEntries, 0);
        _entryGroupSize.assign(_config.bufferEntries, 0);
    }
    _tagScratch.assign(_config.cache.ways, 0);
    _stagedBlock.assign(_config.cache.blockBytes, 0);
}

std::uint32_t
CacheController::rowOffsetOf(mem::Addr addr, std::uint32_t way) const
{
    return way * _config.cache.blockBytes +
           _tags.layout().blockOffset(addr);
}

std::uint64_t
CacheController::extractData(sram::RowView row,
                             std::uint32_t offset, std::uint8_t size) const
{
    assert(offset + size <= row.size());
    std::uint64_t v = 0;
    for (std::uint8_t i = 0; i < size; ++i)
        v |= static_cast<std::uint64_t>(row[offset + i]) << (8 * i);
    return v;
}

std::uint64_t
CacheController::scheduleOp(sram::PortUse use, std::uint64_t earliest,
                            std::uint32_t duration)
{
    const std::uint64_t start = _ports.schedule(use, earliest, duration);
    // Blocking-cache back-pressure: the controller accepts the next
    // request only after the ports accepted this operation, so queueing
    // delay is bounded (one outstanding operation) and the latency
    // statistics stay meaningful under write-port saturation.
    if (start > _cycle)
        _cycle = start;
    return start;
}

sram::RowView
CacheController::demandReadRef(std::uint32_t row)
{
    const sram::RowView out = _array.readRowRef(row);
    ++_demandRowReads;
    ++_ecounts.rowReads;
    auditEnergy(EnergyEvent::RowRead, 0);
    note(obs::EventType::ArrayRead, 0, row);
    return out;
}

inline void
CacheController::demandRead(AccessOutcome &out, std::uint32_t set,
                            std::uint32_t offset, std::uint8_t size,
                            std::uint64_t earliest)
{
    const std::uint64_t start = scheduleOp(
        sram::PortUse::ReadPort, earliest, _config.latency.rowReadCycles);
    out.data = extractData(demandReadRef(set), offset, size);
    out.latencyCycles = start + _config.latency.rowReadCycles - _requestCycle;
    _readLatency.sample(static_cast<double>(out.latencyCycles));
}

void
CacheController::demandMerge(std::uint32_t row, std::uint32_t offset,
                             const std::uint8_t *bytes, std::uint32_t len)
{
    assert(len >= 1 && len <= sram::EnergyEventRates::kMaxRequestBytes);
    _array.mergeBytes(row, offset, bytes, len);
    ++_demandRowWrites;
    ++_ecounts.partialWrites[len];
    auditEnergy(EnergyEvent::PartialWrite, len);
    scheduleOp(sram::PortUse::WritePort, _cycle,
               _config.latency.rowWriteCycles);
    note(obs::EventType::ArrayWrite, 0, row);
}

std::uint32_t
CacheController::entryOfSet(std::uint32_t set) const
{
    if (!_tagBuffer)
        return 0;
    for (std::uint32_t e = 0; e < _tagBuffer->entries(); ++e) {
        if (_tagBuffer->entryValid(e) && _tagBuffer->entrySet(e) == set)
            return e;
    }
    return _tagBuffer->entries();
}

sram::RowView
CacheController::freshestRow(std::uint32_t set) const
{
    const std::uint32_t e = entryOfSet(set);
    return (_tagBuffer && e < _tagBuffer->entries()) ? _setBuffer->rowView(e)
                                                     : _array.rowView(set);
}

void
CacheController::writebackEntry(std::uint32_t e, stats::Counter &cause)
{
    assert(_tagBuffer && _tagBuffer->entryValid(e));
    const std::uint32_t set = _tagBuffer->entrySet(e);

    _array.writeRow(set, _setBuffer->rowView(e));
    ++_demandRowWrites;
    ++cause;
    note(obs::EventType::ArrayWrite, 0, set);
    ++_ecounts.rowWrites;
    auditEnergy(EnergyEvent::RowWrite, 0);
    ++_ecounts.setBufferReadRows;
    auditEnergy(EnergyEvent::SetBufferRead, _setBuffer->rowBytes());
    // The row image is already latched, so the write-back needs the
    // write port only (the grouping schemes' port-availability win);
    // the traits table is the single source of that fact.
    scheduleOp(_traits.writebackPortUse, _cycle,
               _config.latency.rowWriteCycles);

    _tagBuffer->setDirty(e, false);
    _entryWritesSinceWb[e] = 0;
}

void
CacheController::endGroup(std::uint32_t e, stats::Counter &cause)
{
    assert(_tagBuffer && _tagBuffer->entryValid(e));
    if (_entryGroupSize[e] > 0)
        _groupSizes.sample(static_cast<double>(_entryGroupSize[e]));

    if (_tagBuffer->dirty(e)) {
        writebackEntry(e, cause);
    } else if (_entryWritesSinceWb[e] > 0) {
        // Every write since the last write-back was silent: the
        // write-back is elided entirely (the Dirty-bit optimisation).
        ++_silentGroupsElided;
    }
    _entryGroupSize[e] = 0;
    _entryWritesSinceWb[e] = 0;
}

inline void
CacheController::settleSet(std::uint32_t set, stats::Counter &cause)
{
    if (!_tagBuffer)
        return;
    const std::uint32_t e = entryOfSet(set);
    if (e < _tagBuffer->entries()) {
        endGroup(e, cause);
        _tagBuffer->invalidate(e);
    }
}

template <typename FillFn>
std::uint32_t
CacheController::handleMiss(mem::Addr block_addr, FillFn &&fill_tags,
                            const std::uint8_t *staged)
{
    const std::uint32_t set = _tags.layout().setOf(block_addr);

    // The buffered row image and tag list become stale when the set's
    // contents change, so a miss to the buffered set ends its group.
    settleSet(set, _missFlushWritebacks);

    const std::uint32_t block_bytes = _config.cache.blockBytes;

    // A live miss stages its fill *before* touching the tag state: a
    // next-level fetch can evict a line down there and back-invalidate
    // our copy, and doing that against settled tags keeps the victim
    // and fill ways chosen below coherent with what actually remains
    // resident. (Inclusion then guarantees the dirty-victim write
    // burst issued further down always hits — see DESIGN.md §14.) The
    // fill never aliases the victim, so reading it from memory before
    // the victim is stored reads the same bytes.
    _lastMissPenalty = _config.latency.missPenaltyCycles;
    if (!staged) {
        if (_next)
            _lastMissPenalty = static_cast<std::uint32_t>(
                _next->fetchBlock(block_addr, _stagedBlock.data(),
                                  block_bytes));
        else
            _mem.readBytes(block_addr, _stagedBlock.data(), block_bytes);
        staged = _stagedBlock.data();
    }

    const mem::FillResult fill = fill_tags();

    // Victim extraction + fill merge, as row operations performed in
    // place on the row image (miss-handling accounting, kept separate
    // from the paper's demand counters). The victim block is drained
    // to the next level (or memory) before the new block overwrites
    // its bytes.
    const sram::RowView cur = _array.readRowRef(set);
    ++_fillRowReads;
    ++_ecounts.rowReads;
    auditEnergy(EnergyEvent::RowRead, 0);

    if (fill.evictedValid)
        note(obs::EventType::Eviction, fill.evictedBlockAddr, set);
    if (fill.evictedValid) {
        const std::uint8_t *victim = cur.data() + fill.way * block_bytes;
        bool must_write = fill.evictedDirty;
        if (_evictionHook) {
            // Stage the victim so upper levels can merge a fresher
            // copy while dropping theirs (inclusion maintenance).
            std::memcpy(_victimScratch.data(), victim, block_bytes);
            if (_evictionHook(fill.evictedBlockAddr,
                              _victimScratch.data(), block_bytes)) {
                must_write = true;
                ++_evictionsMerged;
            }
            victim = _victimScratch.data();
        }
        if (must_write) {
            if (_next)
                _next->acceptBlockWriteback(fill.evictedBlockAddr,
                                            victim, block_bytes);
            else if (_role == MemoryRole::Owner)
                _mem.writeBytes(fill.evictedBlockAddr, victim,
                                block_bytes);
        }
    }

    std::memcpy(_array.updateRow(set).data() + fill.way * block_bytes,
                staged, block_bytes);

    ++_fillRowWrites;
    ++_ecounts.rowWrites;
    auditEnergy(EnergyEvent::RowWrite, 0);
    return fill.way;
}

CacheController::ResidentRef
CacheController::ensureResident(mem::Addr block_addr)
{
    const mem::LookupResult r = _tags.access(block_addr);
    if (r.hit)
        return {true, r.way};
    return {false, handleMiss(
                       block_addr, [&] { return _tags.fill(block_addr); },
                       nullptr)};
}

CacheController::ResidentRef
CacheController::applyPlanned(mem::Addr block_addr, const PlannedStep &step)
{
    if (step.flags & mem::ChunkPlan::kHit) {
        assert(_tags.probe(block_addr).hit &&
               _tags.probe(block_addr).way == step.way &&
               "planned hit disagrees with live tag state");
        _tags.applyPlannedHit(step.set, step.replWord);
        return {true, step.way};
    }

    // Planned miss: the live miss body, with the tag-side allocation
    // stage 1 already worked out (victim choice, eviction metadata,
    // replacement word) and the fill already staged.
    assert(!_tags.probe(block_addr).hit &&
           "planned miss disagrees with live tag state");
    return {false, handleMiss(
                       block_addr,
                       [&] {
                           mem::FillResult f;
                           f.way = step.way;
                           f.evictedValid =
                               step.flags & mem::ChunkPlan::kEvictValid;
                           f.evictedDirty =
                               step.flags & mem::ChunkPlan::kEvictDirty;
                           f.evictedBlockAddr = step.evictedAddr;
                           _tags.applyPlannedFill(step.set, step.way,
                                                  step.tag, step.replWord);
                           return f;
                       },
                       step.fill)};
}

void
CacheController::attachNextLevel(CacheController *next)
{
    if (next && next->config().cache.blockBytes != _config.cache.blockBytes)
        throw std::invalid_argument(
            "CacheController: next-level block size must match");
    _next = next;
}

void
CacheController::setEvictionHook(EvictionHook hook)
{
    _evictionHook = std::move(hook);
    if (_evictionHook)
        _victimScratch.assign(_config.cache.blockBytes, 0);
}

std::uint64_t
CacheController::fetchBlock(mem::Addr block_addr, std::uint8_t *dst,
                            std::uint32_t len)
{
    assert(len == _config.cache.blockBytes);
    assert(_tags.layout().blockAlign(block_addr) == block_addr);

    // One demand access per fetch: the upper level's miss appears here
    // as a single block read, so this level's "cache access frequency"
    // counts L1 miss traffic exactly once per miss.
    trace::MemAccess req;
    req.addr = block_addr;
    req.size = 8;
    req.gap = 0;
    req.type = trace::AccessType::Read;
    beginAccess(req);
    ResidentRef res;
    const AccessOutcome out = dispatch(req, [this, &res](mem::Addr b) {
        return res = ensureResident(b);
    });

    // Architectural copy of the whole block image, uncounted like
    // peekWord(): the access left the block resident in res.way, so
    // one move from the freshest row image (Set-Buffer over array)
    // covers every word.
    assert(_tags.probe(block_addr).hit &&
           _tags.probe(block_addr).way == res.way);
    const sram::RowView row = freshestRow(_tags.layout().setOf(block_addr));
    std::memcpy(dst, row.data() + res.way * len, len);
    return out.latencyCycles;
}

void
CacheController::acceptBlockWriteback(mem::Addr block_addr,
                                      const std::uint8_t *src,
                                      std::uint32_t len)
{
    assert(len == _config.cache.blockBytes);
    assert(_tags.layout().blockAlign(block_addr) == block_addr);

    // The eviction burst: one word-granular write per 8 bytes, all to
    // the same block — the same-set grouping profile the Set-Buffer
    // schemes are built for. The first word resolves residency (a hit,
    // by inclusion); every later word records its hit against that way
    // and runs the scheme body without another tag lookup.
    const std::uint32_t set = _tags.layout().setOf(block_addr);
    ResidentRef res;
    bool resolved = false;
    const auto burst = [this, set, &res, &resolved](mem::Addr b) {
        if (resolved) {
            _tags.recordHit(set, res.way);
            return ResidentRef{true, res.way};
        }
        resolved = true;
        return res = ensureResident(b);
    };

    trace::MemAccess req;
    req.gap = 0;
    req.size = 8;
    req.type = trace::AccessType::Write;
    for (std::uint32_t off = 0; off < len; off += 8) {
        req.addr = block_addr + off;
        std::uint64_t v = 0;
        for (std::uint32_t i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(src[off + i]) << (8 * i);
        req.data = v;
        beginAccess(req);
        dispatch(req, burst);
    }
}

bool
CacheController::extractInvalidate(mem::Addr block_addr,
                                   std::uint8_t *dst, std::uint32_t len)
{
    assert(len == _config.cache.blockBytes);
    const mem::LookupResult r = _tags.probe(block_addr);
    if (!r.hit)
        return false;

    const std::uint32_t set = _tags.layout().setOf(block_addr);

    // Settle any buffered group covering the set into the array so the
    // row image read below is the freshest copy of the line.
    settleSet(set, _backInvalFlushes);

    const bool dirty = _tags.isDirty(set, r.way);
    const sram::RowView row = _array.rowView(set);
    std::memcpy(dst, row.data() + r.way * _config.cache.blockBytes, len);
    _tags.invalidate(set, r.way);

    ++_backInvalidations;
    if (dirty)
        ++_backInvalDirty;
    note(obs::EventType::Eviction, block_addr, set);
    return dirty;
}

template <typename ResolveFn>
AccessOutcome
CacheController::dispatch(const trace::MemAccess &request,
                          ResolveFn &&resolve)
{
    return _traits.needsGroupingBuffer
               ? accessGroupedImpl(request, resolve)
               : accessUngroupedImpl(request, resolve);
}

AccessOutcome
CacheController::access(const trace::MemAccess &request)
{
    beginAccess(request);
    return dispatch(request,
                    [this](mem::Addr b) { return ensureResident(b); });
}

const mem::ChunkPlan *
CacheController::planReplayChunk(const trace::MemAccess *chunk,
                                 std::size_t count)
{
    if (!plannedChunkEligible() || count == 0)
        return nullptr;
    return &_tags.planChunk(chunk, count);
}

template <typename ResolverFn>
inline void
CacheController::lockstep(std::span<CacheController *const> group,
                          const trace::MemAccess *chunk, std::size_t count,
                          ResolverFn &&resolver)
{
    for (std::size_t i = 0; i < count; ++i) {
        const trace::MemAccess &a = chunk[i];
        const auto resolve = resolver(i);
        for (CacheController *m : group) {
            m->beginAccess(a);
            m->dispatch(a, [m, &resolve](mem::Addr b) {
                return resolve(*m, b);
            });
        }
    }
}

void
CacheController::applyPlanGroup(std::span<CacheController *const> group,
                                const trace::MemAccess *chunk,
                                std::size_t count,
                                const mem::ChunkPlan *plan)
{
    CacheController &lead = *group.front();
    for ([[maybe_unused]] const CacheController *m : group)
        assert((!plan || m->plannedChunkEligible()) &&
               m->_config.cache == lead._config.cache &&
               &m->_mem == &lead._mem);

    // The planned/live choice, once per chunk. Live, every member looks
    // its tags up, fills and fetches itself.
    if (!plan) {
        lockstep(group, chunk, count, [](std::size_t) {
            return [](CacheController &m, mem::Addr b) {
                return m.ensureResident(b);
            };
        });
        return;
    }

    assert(plan->count == count);
    const mem::AddrLayout &layout = lead._tags.layout();
    const std::uint32_t block_bytes = lead._config.cache.blockBytes;
    std::uint8_t *const staged = lead._stagedBlock.data();

    // Planned: each scheme body consumes the planned lookup outcome
    // instead of performing a live one, and a miss fill is read once
    // for the whole group; the tag arrays' hit/miss sums are order-free
    // and folded in once per chunk.
    lockstep(group, chunk, count, [&](std::size_t i) {
        PlannedStep step;
        step.set = plan->set[i];
        step.way = plan->way[i];
        step.flags = plan->flags[i];
        step.replWord = plan->replWord[i];
        if (!(step.flags & mem::ChunkPlan::kHit)) {
            step.tag = plan->tag[i];
            if (step.flags & mem::ChunkPlan::kEvictValid)
                step.evictedAddr = plan->evictedAddr[i];
            lead._mem.readBytes(layout.blockAlign(chunk[i].addr), staged,
                                block_bytes);
            step.fill = staged;
        }
        return [step](CacheController &m, mem::Addr b) {
            return m.applyPlanned(b, step);
        };
    });
    for (CacheController *m : group)
        m->_tags.addPlannedCounts(*plan);
}

void
CacheController::accessChunk(const trace::MemAccess *chunk,
                             std::size_t count,
                             const mem::ChunkPlan *plan)
{
    if (!plan || !plannedChunkEligible() || count == 0)
        plan = planReplayChunk(chunk, count);
    CacheController *const self = this;
    applyPlanGroup({&self, 1}, chunk, count, plan);
}

template <typename ResolveFn>
AccessOutcome
CacheController::accessUngroupedImpl(const trace::MemAccess &a,
                                     ResolveFn &&resolve)
{
    AccessOutcome out;
    const mem::Addr block_addr = _tags.layout().blockAlign(a.addr);
    const ResidentRef res = resolve(block_addr);
    out.hit = res.hit;
    const std::uint32_t way = res.way;
    const std::uint32_t set = _tags.layout().setOf(a.addr);
    const std::uint32_t offset = rowOffsetOf(a.addr, way);

    const std::uint64_t extra = out.hit ? 0 : _lastMissPenalty;

    if (a.isRead()) {
        demandRead(out, set, offset, a.size, _cycle + extra);
        return out;
    }

    if (_traits.rowReadsPerWrite == 0) {
        // Partial writes are safe on this array (6T cells, or word-
        // granular write word lines): one merge, no read phase.
        std::uint8_t bytes[8];
        storeLe(bytes, a.data, a.size);
        demandMerge(set, offset, bytes, a.size);
        out.latencyCycles = extra + _config.latency.rowWriteCycles;
    } else {
        // Read-modify-write: read the row, merge the store, write the
        // row back. Under plain RMW both ports are held for the whole
        // sequence (§2); LocalRMW confines the read phase to the
        // sub-array and holds only the write port.
        note(obs::EventType::RmwTrigger, a.addr, set);
        const std::uint32_t duration = _config.latency.rowReadCycles +
                                       _config.latency.rowWriteCycles;
        scheduleOp(_traits.writePortUse, _cycle + extra, duration);

        demandReadRef(set);
        storeLe(_array.updateRow(set).data() + offset, a.data, a.size);
        ++_demandRowWrites;
        ++_ecounts.rowWrites;
        auditEnergy(EnergyEvent::RowWrite, 0);
        note(obs::EventType::ArrayWrite, a.addr, set);
        out.latencyCycles = extra + duration;
    }
    _tags.markDirtyWay(set, way);
    return out;
}

template <typename ResolveFn>
AccessOutcome
CacheController::accessGroupedImpl(const trace::MemAccess &a,
                                   ResolveFn &&resolve)
{
    AccessOutcome out;
    const mem::Addr block_addr = _tags.layout().blockAlign(a.addr);
    const std::uint32_t set = _tags.layout().setOf(a.addr);
    const mem::Addr tag = _tags.layout().tagOf(a.addr);

    // Algorithm 1 starts with the Tag-Buffer probe.
    const TagProbe probe = _tagBuffer->probe(set, tag);
    out.tagBufferHit = probe.tagMatch;
    ++_ecounts.tagCompares;
    auditEnergy(EnergyEvent::TagCompare, 0);

    const ResidentRef res = resolve(block_addr);
    out.hit = res.hit;
    // A Tag-Buffer tag hit implies the block was resident (the buffer
    // mirrors the set's tag state), so the entry survived ensureResident.
    assert(!probe.tagMatch || out.hit);

    const std::uint32_t way = res.way;
    const std::uint32_t offset = rowOffsetOf(a.addr, way);
    const std::uint64_t extra = out.hit ? 0 : _lastMissPenalty;

    if (a.isRead()) {
        // On a Tag-Buffer miss the array row is current for this set (a
        // dirty buffered row for the same set would have produced a tag
        // match or been flushed by the miss path). A tag match implies
        // a hit, so extra is 0 there.
        std::uint64_t earliest = _cycle + extra;
        if (probe.tagMatch) {
            const std::uint32_t e = probe.entry;
            _tagBuffer->touch(e);
            if (_traits.canBypassReads) {
                // WG+RB: serve straight from the Set-Buffer. No array
                // access, no premature write-back.
                out.data = extractData(_setBuffer->readRowRef(e), offset,
                                       a.size);
                out.bypassed = true;
                ++_bypassedReads;
                note(obs::EventType::ReadBypass, a.addr, set);
                ++_ecounts.setBufferReads[a.size];
                auditEnergy(EnergyEvent::SetBufferRead, a.size);
                out.latencyCycles = _config.latency.setBufferCycles;
                _readLatency.sample(
                    static_cast<double>(out.latencyCycles));
                return out;
            }
            // WG: update the cache first if the buffer is newer, then
            // read from the array as usual.
            if (_tagBuffer->dirty(e)) {
                note(obs::EventType::PrematureWriteback, a.addr, set);
                writebackEntry(e, _prematureWritebacks);
                earliest += _config.latency.rowWriteCycles;
            }
        }
        demandRead(out, set, offset, a.size, earliest);
        return out;
    }

    // Write request. A Tag-Buffer hit joins the entry's open group; a
    // miss ends the victim entry's group and opens a new one for this
    // set by reading its row (Algorithm 1's write-miss path).
    std::uint32_t e = probe.entry;
    if (!probe.tagMatch) {
        assert(entryOfSet(set) == _tagBuffer->entries() &&
               "a buffered set can only reach here via a flushed miss");
        e = _tagBuffer->victim();
        if (_tagBuffer->entryValid(e))
            endGroup(e, _groupWritebacks);

        const std::uint64_t start = scheduleOp(
            sram::PortUse::ReadPort, _cycle + extra,
            _config.latency.rowReadCycles);
        _setBuffer->fill(e, demandReadRef(set));
        ++_ecounts.setBufferWriteRows;
        auditEnergy(EnergyEvent::SetBufferWrite, _setBuffer->rowBytes());
        _tags.copyTagsOfSet(set, _tagScratch.data());
        _tagBuffer->load(e, set, _tagScratch.data(), _tags.validMask(set));
        _entryGroupSize[e] = 0;
        _entryWritesSinceWb[e] = 0;
        out.latencyCycles = start + _config.latency.rowReadCycles +
                            _config.latency.setBufferCycles - _requestCycle;
    }
    _tagBuffer->touch(e);

    std::uint8_t bytes[8];
    storeLe(bytes, a.data, a.size);
    const bool changed = _setBuffer->updateBytes(e, offset, bytes, a.size);
    if (changed || !_config.silentDetection)
        _tagBuffer->setDirty(e, true);
    if (!changed && _config.silentDetection) {
        ++_silentWritesDetected;
        note(obs::EventType::SilentWriteDrop, a.addr, set);
    }
    ++_entryGroupSize[e];
    ++_entryWritesSinceWb[e];
    _tags.markDirtyWay(set, way);

    if (probe.tagMatch) {
        // Grouped: the write cost zero array operations.
        ++_groupedWrites;
        note(obs::EventType::SetBufferMerge, a.addr, set);
        ++_ecounts.setBufferWrites[a.size];
        auditEnergy(EnergyEvent::SetBufferWrite, a.size);
        out.latencyCycles = _config.latency.setBufferCycles;
    }
    return out;
}

void
CacheController::drain()
{
    if (!_tagBuffer)
        return;
    for (std::uint32_t e = 0; e < _tagBuffer->entries(); ++e) {
        if (!_tagBuffer->entryValid(e))
            continue;
        if (_entryGroupSize[e] > 0)
            _groupSizes.sample(static_cast<double>(_entryGroupSize[e]));
        if (_tagBuffer->dirty(e)) {
            const std::uint32_t set = _tagBuffer->entrySet(e);
            _array.writeRow(set, _setBuffer->rowView(e));
            ++_drainWrites;
            _tagBuffer->setDirty(e, false);
        }
        _entryGroupSize[e] = 0;
        _entryWritesSinceWb[e] = 0;
    }
}

void
CacheController::flushCacheToMemory()
{
    const std::uint32_t sets = _config.cache.numSets();
    const std::uint32_t ways = _config.cache.ways;
    const std::uint32_t block_bytes = _config.cache.blockBytes;

    for (std::uint32_t set = 0; set < sets; ++set) {
        const sram::RowView row = freshestRow(set);
        for (std::uint32_t w = 0; w < ways; ++w) {
            if (!_tags.isValid(set, w) || !_tags.isDirty(set, w))
                continue;
            const mem::Addr block_addr = _tags.blockAddrAt(set, w);
            _mem.writeBytes(block_addr, row.data() + w * block_bytes,
                            block_bytes);
            _tags.clearDirty(set, w);
        }
    }
}

std::uint64_t
CacheController::peekWord(mem::Addr addr) const
{
    const mem::Addr word_addr = addr & ~7ull;
    const mem::LookupResult r = _tags.probe(word_addr);
    if (!r.hit)
        return _mem.readWord(word_addr);

    return extractData(freshestRow(_tags.layout().setOf(word_addr)),
                       rowOffsetOf(word_addr, r.way), 8);
}

double
CacheController::dynamicEnergy(const sram::EnergyEventRates &rates) const
{
    // Count-then-multiply materialization: each addend below is the
    // product of an integer event count (exact) and the per-event
    // constant the per-access accumulation would have added, so the
    // total differs from a sequential accumulation only in summation
    // order (ULP-level rounding; the deferred-energy test pins this).
    double e = static_cast<double>(_ecounts.rowReads) * rates.rowRead +
               static_cast<double>(_ecounts.rowWrites) * rates.rowWrite;
    for (std::uint32_t b = 1;
         b <= sram::EnergyEventRates::kMaxRequestBytes; ++b) {
        e += static_cast<double>(_ecounts.partialWrites[b]) *
                 rates.partialWrite[b] +
             static_cast<double>(_ecounts.setBufferReads[b]) *
                 rates.setBufferRead[b] +
             static_cast<double>(_ecounts.setBufferWrites[b]) *
                 rates.setBufferWrite[b];
    }
    e += static_cast<double>(_ecounts.setBufferReadRows) *
             rates.setBufferReadRow +
         static_cast<double>(_ecounts.setBufferWriteRows) *
             rates.setBufferWriteRow +
         static_cast<double>(_ecounts.tagCompares) * rates.tagCompare;
    return e;
}

void
CacheController::registerStats(stats::Registry &reg,
                               const std::string &prefix)
{
    reg.add(_requests, prefix);
    reg.add(_readRequests, prefix);
    reg.add(_writeRequests, prefix);
    reg.add(_demandRowReads, prefix);
    reg.add(_demandRowWrites, prefix);
    reg.add(_fillRowReads, prefix);
    reg.add(_fillRowWrites, prefix);
    reg.add(_drainWrites, prefix);
    reg.add(_groupedWrites, prefix);
    reg.add(_prematureWritebacks, prefix);
    reg.add(_groupWritebacks, prefix);
    reg.add(_missFlushWritebacks, prefix);
    reg.add(_silentGroupsElided, prefix);
    reg.add(_bypassedReads, prefix);
    reg.add(_silentWritesDetected, prefix);
    reg.add(_groupSizes, prefix);
    reg.add(_readLatency, prefix);

    // Registered only when a non-nominal supply is attached: a nominal
    // (or detached) controller's dump must stay byte-identical to a
    // pre-vmodel build. The values are constants of the operating
    // point, re-asserted here in case a resetAll() zeroed them.
    if (_vddActive) {
        _vddSupply.set(_vddPoint.vdd);
        _vddEnergyScale.set(_vddPoint.energyScale);
        _vddLeakScale.set(_vddPoint.leakageScale);
        _vddDelayFactor.set(_vddPoint.delayFactor);
        _vddPfailRead.set(_vddPoint.pfailRead);
        _vddPfailWrite.set(_vddPoint.pfailWrite);
        reg.add(_vddSupply, prefix);
        reg.add(_vddEnergyScale, prefix);
        reg.add(_vddLeakScale, prefix);
        reg.add(_vddDelayFactor, prefix);
        reg.add(_vddPfailRead, prefix);
        reg.add(_vddPfailWrite, prefix);
    }

    // Hierarchy counters exist only for stacked controllers, so a
    // single-level dump stays byte-identical to historical builds.
    if (_next || _evictionHook) {
        reg.add(_backInvalidations, prefix);
        reg.add(_backInvalDirty, prefix);
        reg.add(_backInvalFlushes, prefix);
        reg.add(_evictionsMerged, prefix);
    }

    _tags.registerStats(reg, prefix);
    _array.registerStats(reg, prefix);
    _ports.registerStats(reg, prefix);
    if (_tagBuffer)
        _tagBuffer->registerStats(reg, prefix);
    if (_setBuffer)
        _setBuffer->registerStats(reg, prefix);
}

void
CacheController::dumpStats(std::ostream &os)
{
    stats::Registry reg;
    registerStats(reg);
    reg.dump(os);
}

void
CacheController::resetStats()
{
    _cycle = 0;
    _requestCycle = 0;
    _ecounts = EnergyCounts{};
    if (_events)
        _events->clear();

    _requests.reset();
    _readRequests.reset();
    _writeRequests.reset();
    _demandRowReads.reset();
    _demandRowWrites.reset();
    _fillRowReads.reset();
    _fillRowWrites.reset();
    _drainWrites.reset();
    _groupedWrites.reset();
    _prematureWritebacks.reset();
    _groupWritebacks.reset();
    _missFlushWritebacks.reset();
    _silentGroupsElided.reset();
    _bypassedReads.reset();
    _silentWritesDetected.reset();
    _backInvalidations.reset();
    _backInvalDirty.reset();
    _backInvalFlushes.reset();
    _evictionsMerged.reset();
    _groupSizes.reset();
    _readLatency.reset();

    _tags.resetCounters();
    _array.resetCounters();
    _ports.reset();
    if (_tagBuffer)
        _tagBuffer->resetCounters();
    if (_setBuffer)
        _setBuffer->resetCounters();
}

} // namespace c8t::core
