/**
 * @file
 * Upset campaign implementation.
 */

#include "sram/fault_injection.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

namespace c8t::sram
{

EccProtectedRow::EccProtectedRow(std::uint32_t words, std::uint32_t degree)
    : _map(words, Codeword72::bits, degree),
      _codewords(words, SecDed72::encode(0))
{}

void
EccProtectedRow::writeWord(std::uint32_t w, std::uint64_t data)
{
    assert(w < words());
    _codewords[w] = SecDed72::encode(data);
}

EccDecodeResult
EccProtectedRow::readWord(std::uint32_t w) const
{
    assert(w < words());
    return SecDed72::decode(_codewords[w]);
}

void
EccProtectedRow::strike(std::uint32_t col)
{
    assert(col < columns());
    const std::uint32_t word = _map.wordOf(col);
    const std::uint32_t bit = _map.bitOf(col);
    _codewords[word].flip(bit);
}

UpsetStats
runUpsetCampaign(const UpsetCampaign &cfg)
{
    assert(cfg.burstLength >= 1);
    trace::Rng rng(cfg.seed);
    UpsetStats out;

    std::vector<std::uint64_t> original(cfg.words);

    for (std::uint32_t trial = 0; trial < cfg.trials; ++trial) {
        EccProtectedRow row(cfg.words, cfg.degree);
        for (std::uint32_t w = 0; w < cfg.words; ++w) {
            original[w] = rng.next();
            row.writeWord(w, original[w]);
        }

        // One physically contiguous burst, fully inside the row.
        const std::uint32_t start = static_cast<std::uint32_t>(
            rng.below(row.columns() - cfg.burstLength + 1));
        std::vector<std::uint32_t> hits_per_word(cfg.words, 0);
        for (std::uint32_t i = 0; i < cfg.burstLength; ++i) {
            row.strike(start + i);
            ++hits_per_word[row.wordOfColumn(start + i)];
        }

        bool all_recovered = true;
        for (std::uint32_t w = 0; w < cfg.words; ++w) {
            if (hits_per_word[w] >= 2)
                ++out.multiBitWords;
            if (hits_per_word[w] == 0)
                continue;

            const EccDecodeResult r = row.readWord(w);
            switch (r.status) {
              case EccStatus::Corrected:
                ++out.corrected;
                break;
              case EccStatus::DetectedUncorrectable:
                ++out.detectedUncorrectable;
                all_recovered = false;
                break;
              case EccStatus::Ok:
                break;
            }
            if (r.status != EccStatus::DetectedUncorrectable &&
                r.data != original[w]) {
                ++out.silentCorruptions;
                all_recovered = false;
            }
        }
        if (all_recovered)
            ++out.fullyRecoveredTrials;
        ++out.trials;
    }
    return out;
}

/**
 * Derive the fault-map draw seed. Each component is folded through one
 * splitmix64 step so the seed changes completely when any component
 * changes (in particular neighbouring Vdd grid points must not share
 * fault patterns). The Vdd is folded by bit pattern, not value, so
 * there is no epsilon question.
 */
std::uint64_t
faultMapSeed(const FaultMapConfig &cfg)
{
    std::uint64_t state = cfg.runSeed;
    trace::splitmix64(state);
    state ^= std::bit_cast<std::uint64_t>(cfg.vdd);
    trace::splitmix64(state);
    state ^= static_cast<std::uint64_t>(cfg.rows);
    trace::splitmix64(state);
    state ^= static_cast<std::uint64_t>(cfg.wordsPerRow);
    trace::splitmix64(state);
    state ^= static_cast<std::uint64_t>(cfg.degree);
    trace::splitmix64(state);
    state ^= static_cast<std::uint64_t>(cfg.cell);
    return trace::splitmix64(state);
}

namespace
{

/**
 * The fault-map draw: the faulty physical cells of @p cfg's array in
 * ascending order, one at a time. buildFaultMap collects them and
 * runFaultMapCampaign consumes them row by row, so both see the same
 * map.
 */
class FaultSampler
{
  public:
    explicit FaultSampler(const FaultMapConfig &cfg)
        : _rng(faultMapSeed(cfg)), _p(cfg.pfailCell),
          _log1mp(_p > 0.0 && _p < 1.0 ? std::log1p(-_p) : 0.0),
          _total(static_cast<std::uint64_t>(cfg.rows) * cfg.wordsPerRow *
                 Codeword72::bits),
          _cell(_p > 0.0 ? 0 : _total)
    {
        assert(cfg.rows >= 1 && cfg.wordsPerRow >= 1 && cfg.degree >= 1);
    }

    /** Total physical cells in the array. */
    std::uint64_t total() const { return _total; }

    /** The next faulty cell (flattened row * columns + column), or
     *  total() once the map is exhausted. */
    std::uint64_t next()
    {
        if (_cell >= _total)
            return _total;
        if (_p >= 1.0)
            return _cell++;
        // Skip-ahead sampling: instead of one Bernoulli draw per cell,
        // draw the geometric gap to the next faulty cell. One RNG draw
        // per *fault* keeps the draw O(faults) — at the high-Vdd end
        // of a sweep p is ~1e-12 and a per-cell loop would dominate.
        const double u = std::max(_rng.uniform(), 1e-18);
        const double gap = std::floor(std::log(u) / _log1mp);
        if (gap >= static_cast<double>(_total - _cell)) {
            _cell = _total;
            return _total;
        }
        const std::uint64_t cell = _cell + static_cast<std::uint64_t>(gap);
        _cell = cell + 1;
        return cell;
    }

  private:
    trace::Rng _rng;
    const double _p;
    const double _log1mp;
    const std::uint64_t _total;
    std::uint64_t _cell; ///< first cell not yet drawn
};

} // namespace

FaultMap
buildFaultMap(const FaultMapConfig &cfg)
{
    FaultSampler sampler(cfg);
    FaultMap map;
    map.config = cfg;
    map.totalCells = sampler.total();
    for (std::uint64_t cell = sampler.next(); cell < map.totalCells;
         cell = sampler.next())
        map.faultyCells.push_back(cell);
    return map;
}

FaultMapStats
runFaultMapCampaign(const FaultMapConfig &cfg)
{
    FaultSampler sampler(cfg);
    FaultMapStats out;
    out.words = static_cast<std::uint64_t>(cfg.rows) * cfg.wordsPerRow;

    const InterleaveMap layout(cfg.wordsPerRow, Codeword72::bits,
                               cfg.degree);
    const std::uint64_t columns = layout.columns();

    // Row fill data is deterministic but independent of the fault
    // pattern, so the same logical contents are evaluated at every
    // operating point.
    std::uint64_t fill_state = faultMapSeed(cfg) ^ 0x9e3779b97f4a7c15ull;
    trace::Rng fill_rng(trace::splitmix64(fill_state));

    // Per-row buffers, reused: the fill data, the codewords of the
    // struck words (encoded on their first strike) and the struck
    // words in order of first strike.
    std::vector<std::uint64_t> original(cfg.wordsPerRow);
    std::vector<Codeword72> codewords(cfg.wordsPerRow);
    std::vector<bool> struck(cfg.wordsPerRow, false);
    std::vector<std::uint32_t> struck_words;
    struck_words.reserve(cfg.wordsPerRow);
    // Physical column -> (word << 7) | bit, built on the first struck
    // row: the layout's divisions run once per column, not per fault.
    std::vector<std::uint32_t> column_slot;

    std::uint64_t fault = sampler.next();
    for (std::uint32_t r = 0; r < cfg.rows; ++r) {
        const std::uint64_t row_base = static_cast<std::uint64_t>(r) * columns;
        const std::uint64_t row_end = row_base + columns;

        // Fault-free rows decode trivially; skip the codec work but
        // keep the fill stream position independent of the fault map.
        if (fault >= row_end) {
            for (std::uint32_t w = 0; w < cfg.wordsPerRow; ++w)
                fill_rng.next();
            out.cleanWords += cfg.wordsPerRow;
            continue;
        }

        for (std::uint32_t w = 0; w < cfg.wordsPerRow; ++w)
            original[w] = fill_rng.next();

        if (column_slot.empty()) {
            column_slot.resize(columns);
            for (std::uint32_t col = 0; col < columns; ++col) {
                column_slot[col] =
                    layout.wordOf(col) << 7 | layout.bitOf(col);
            }
        }
        for (; fault < row_end; fault = sampler.next()) {
            const std::uint32_t slot = column_slot[fault - row_base];
            const std::uint32_t w = slot >> 7;
            if (!struck[w]) {
                struck[w] = true;
                struck_words.push_back(w);
                codewords[w] = SecDed72::encode(original[w]);
            }
            codewords[w].flip(slot & 127);
        }

        out.cleanWords += cfg.wordsPerRow - struck_words.size();
        for (const std::uint32_t w : struck_words) {
            struck[w] = false;
            const EccDecodeResult res = SecDed72::decode(codewords[w]);
            if (res.status == EccStatus::DetectedUncorrectable) {
                ++out.detectedUncorrectable;
            } else if (res.data != original[w]) {
                ++out.silentCorruptions;
            } else {
                ++out.corrected;
            }
        }
        struck_words.clear();
    }
    return out;
}

} // namespace c8t::sram
