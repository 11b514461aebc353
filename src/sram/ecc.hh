/**
 * @file
 * SEC-DED error protection: Hamming(72,64) with overall parity.
 *
 * Bit-interleaved arrays exist so that one of these per-word codes is
 * sufficient: a physical multi-bit burst becomes at most one bit per
 * logical word. The fault-injection experiment (tab_ecc_interleaving)
 * drives this code with and without interleaving to reproduce that
 * motivation quantitatively.
 */

#ifndef C8T_SRAM_ECC_HH
#define C8T_SRAM_ECC_HH

#include <array>
#include <cstdint>

namespace c8t::sram
{

/** A 72-bit SEC-DED codeword (64 data + 7 Hamming + 1 overall parity). */
class Codeword72
{
  public:
    /** Number of bits in the codeword. */
    static constexpr std::uint32_t bits = 72;

    /** Bit value at @p idx (0..71). */
    bool get(std::uint32_t idx) const;

    /** Set bit @p idx to @p v. */
    void set(std::uint32_t idx, bool v);

    /** Flip bit @p idx (fault injection). */
    void flip(std::uint32_t idx);

    /** Raw storage (two little-endian 64-bit words; bits 64..71 in
     *  the low byte of the second word). */
    const std::array<std::uint64_t, 2> &raw() const { return _w; }

    /** Bitwise equality. */
    bool operator==(const Codeword72 &other) const = default;

  private:
    friend class SecDed72;

    std::array<std::uint64_t, 2> _w{0, 0};
};

/** Outcome of a SEC-DED decode. */
enum class EccStatus : std::uint8_t {
    /** No error detected. */
    Ok,
    /** A single-bit error was detected and corrected. */
    Corrected,
    /** A double-bit error was detected; data is not trustworthy. */
    DetectedUncorrectable,
};

/** Human readable status name. */
const char *toString(EccStatus s);

/** Decode result: status plus best-effort data. */
struct EccDecodeResult
{
    EccStatus status = EccStatus::Ok;
    std::uint64_t data = 0;
};

/**
 * Hamming(72,64) SEC-DED codec.
 *
 * Layout: codeword positions 1..71 follow the classic Hamming
 * construction (positions that are powers of two hold check bits, the
 * remaining 64 positions hold data bits in ascending order); codeword
 * bit 0 holds the overall parity of positions 1..71.
 *
 * The codec is word-parallel: the data positions form six contiguous
 * runs between the check positions, so scatter and gather are six
 * shift-and-mask steps, and every check bit and syndrome bit is the
 * parity of the codeword under one constant position mask.
 */
class SecDed72
{
  public:
    /** Encode 64 data bits into a 72-bit codeword. */
    static Codeword72 encode(std::uint64_t data);

    /**
     * Decode a (possibly corrupted) codeword.
     *
     * Guarantees: any single-bit error is corrected; any double-bit
     * error is detected (but not corrected). Three or more errors may
     * alias — exactly the regime bit interleaving exists to avoid.
     */
    static EccDecodeResult decode(const Codeword72 &cw);
};

} // namespace c8t::sram

#endif // C8T_SRAM_ECC_HH
