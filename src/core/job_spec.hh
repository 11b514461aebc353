/**
 * @file
 * The shared job specification: one parsed, validated description of
 * a sweep / Vdd-sweep / explore request, used identically by the
 * c8tsim command line and the c8td socket protocol (DESIGN.md §13).
 *
 * Both front ends reduce their input to a JobSpec and hand it to
 * app::runJobSpec, so the two paths cannot drift: the same defaults,
 * the same validation, the same execution translation, and therefore
 * byte-identical result documents for the same spec.
 *
 * The JSON form (the c8td request payload) is parsed strictly: an
 * unknown key anywhere in the document is an error naming the key,
 * never silently ignored — a client typo ("acceses") must fail loudly
 * instead of simulating the default. Checkpointing knobs
 * (--checkpoint-dir, --explore-max-shards) are deliberately absent
 * from the JSON schema: they name server-side files and interrupt
 * semantics that only make sense for a one-shot CLI process.
 */

#ifndef C8T_CORE_JOB_SPEC_HH
#define C8T_CORE_JOB_SPEC_HH

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/explorer.hh"
#include "core/write_scheme.hh"
#include "mem/cache.hh"
#include "mem/replacement.hh"

namespace c8t::core
{

/**
 * Minimal recursive JSON value, just rich enough for the request /
 * response documents the daemon exchanges. Objects preserve key
 * order; numbers are kept as doubles plus the raw token so integer
 * consumers can reject fractional input.
 */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string raw;    ///< number token as written (exactness checks)
    std::string string; ///< string payload
    std::vector<JsonValue> items;
    std::vector<std::pair<std::string, JsonValue>> members;

    /** Member lookup (objects only); nullptr when absent. */
    const JsonValue *find(const std::string &key) const;

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isString() const { return kind == Kind::String; }
    bool isNumber() const { return kind == Kind::Number; }
};

/**
 * Parse @p text as one JSON document.
 * @throws std::invalid_argument (with byte offset) on malformed
 *         input, trailing garbage or duplicate object keys.
 */
JsonValue parseJson(const std::string &text);

/** What a job asks the engine to do. */
enum class JobKind : std::uint8_t {
    Run,      ///< one multi-scheme run (the plain c8tsim table)
    VddSweep, ///< runVddSweep over the default/narrowed grid
    Explore,  ///< runExplore over the spec's axes
};

/** "run" / "vdd_sweep" / "explore". */
const char *toString(JobKind k);

/** Parse a kind name. @throws std::invalid_argument. */
JobKind parseJobKind(const std::string &name);

/**
 * One lower cache level of a hierarchy job ([0] = L2, DESIGN.md §14).
 * JSON form: an object in the "levels" array with the strict key set
 * {"size_kb", "ways", "block", "repl", "scheme", "vdd"}.
 */
struct LevelSpec
{
    /** Capacity (KiB). */
    std::uint64_t sizeKb = 256;

    /** Associativity. */
    std::uint32_t ways = 8;

    /** Block size (bytes); 0 = inherit the top level's block (the
     *  only legal choice once resolved — LevelStack enforces it). */
    std::uint32_t blockBytes = 0;

    /** Replacement policy. */
    mem::ReplKind repl = mem::ReplKind::Lru;

    /** Write scheme of this level. */
    WriteScheme scheme = WriteScheme::Rmw;

    /** Supply operating point (V; 0 = nominal/detached). */
    double vdd = 0.0;

    bool operator==(const LevelSpec &other) const = default;
};

/**
 * Admission bounds (JobSpec::validate). They stop one request from
 * pinning the shared pool indefinitely, and with it every identical
 * request waiting on the daemon's memo. Both sit more than 100x above
 * the largest job in the repository's tests, examples and benches
 * (at most ~15k config-runs and ~2e8 simulated accesses).
 */
inline constexpr std::uint64_t kMaxJobConfigRuns = 2'000'000;
inline constexpr std::uint64_t kMaxJobSimulatedAccesses =
    100'000'000'000;

/**
 * Largest cache level a spec may ask for — the cache, any levels[]
 * entry, any explore.sizes_kb or explore.l2_sizes_kb value: 64 MiB,
 * 256x the largest level in the repository (a 256 KiB L2). A worker
 * allocates a level's data array and tag store up front.
 */
inline constexpr std::uint64_t kMaxJobLevelBytes = std::uint64_t{64}
                                                   << 20;

/** What validate() throws for a spec over an admission bound. */
class JobTooLarge : public std::invalid_argument
{
  public:
    using std::invalid_argument::invalid_argument;
};

/**
 * @p kb kilobytes in bytes, checked against kMaxJobLevelBytes before
 * the multiply, so a huge value cannot wrap to a small size.
 * @throws JobTooLarge naming @p field over the bound.
 */
std::uint64_t levelBytesFromKb(std::uint64_t kb, const std::string &field);

/** One sweep-service job, CLI- and wire-shared. */
struct JobSpec
{
    JobKind kind = JobKind::Run;

    /** Workload specifier (spec:/kernel:/trace:, app::makeWorkload). */
    std::string workload = "spec:gcc";

    /** Measured accesses. */
    std::uint64_t accesses = 1'000'000;

    /** Warm-up accesses; 0 = accesses/10. */
    std::uint64_t warmup = 0;

    /** Cache shape. */
    mem::CacheConfig cache;

    /** Schemes; empty = kind default (run: RMW + WG+RB, vdd_sweep /
     *  explore: the voltage-story four). */
    std::vector<WriteScheme> schemes;

    /** Set-Buffer entries. */
    std::uint32_t bufferEntries = 1;

    /** Silent-store detection. */
    bool silentDetection = true;

    /** Lower cache levels, nearest first ([0] = L2); empty = the
     *  classic single-level run. JSON key "levels". */
    std::vector<LevelSpec> levels;

    /** Operating point (V; 0 = nominal/detached). For a vdd_sweep a
     *  non-zero value narrows the grid to this single point. */
    double vdd = 0.0;

    /** Explore axes (kind Explore only). */
    std::vector<std::string> exploreWorkloads; ///< empty = all SPEC
    std::vector<std::uint64_t> exploreSizesKb = ExplorerSpec::kDefaultSizesKb;
    std::vector<std::uint32_t> exploreWays = ExplorerSpec::kDefaultWays;
    std::vector<std::uint32_t> exploreBlocks = ExplorerSpec::kDefaultBlocks;
    std::vector<mem::ReplKind> exploreRepls =
        ExplorerSpec::kDefaultReplacements;
    std::vector<double> exploreVdd; ///< empty = nominal-only
    std::vector<std::uint64_t> exploreL2SizesKb; ///< empty = no L2 axis
    std::size_t shardCells = 8;

    /** CLI-only (not in the JSON schema, see file comment). */
    std::string checkpointDir;
    std::uint64_t exploreMaxShards = 0;

    /** Effective warm-up length. */
    std::uint64_t effectiveWarmup() const
    {
        return warmup ? warmup : accesses / 10;
    }

    /** Scheme set with the kind default applied. */
    std::vector<WriteScheme> effectiveSchemes() const;

    /** Controller runs the job executes: schemes x Vdd grid points
     *  for a vdd_sweep, explorerSpec().configRunCount() for an
     *  explore (saturating). */
    std::uint64_t configRuns() const;

    /** The explorer spec an explore job runs (DESIGN.md §12): the
     *  explore axes, the kind-default schemes and the CLI-only
     *  checkpoint knobs. */
    ExplorerSpec explorerSpec() const;

    /** Accesses over all config-runs, warm-up included (saturating). */
    std::uint64_t simulatedAccesses() const;

    /** Shape/range validation shared by both front ends, including
     *  the admission bounds.
     *  @throws JobTooLarge over an admission bound,
     *          std::invalid_argument otherwise. */
    void validate() const;

    /**
     * Parse the strict JSON form. Every known key is optional except
     * "kind"; any unknown key (top level, "cache" or "explore"
     * sub-object) throws naming the key.
     */
    static JobSpec fromJson(const JsonValue &v);

    /** Convenience: parseJson + fromJson. */
    static JobSpec fromJsonText(const std::string &text);

    /**
     * Serialize to the canonical JSON request form (round-trips
     * through fromJson to an equivalent spec). Deterministic key
     * order, so equal specs produce equal bytes — the daemon keys its
     * duplicate-request log on this.
     */
    std::string toJson() const;
};

} // namespace c8t::core

#endif // C8T_CORE_JOB_SPEC_HH
