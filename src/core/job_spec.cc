/**
 * @file
 * JobSpec JSON parsing/serialization (strict unknown-key errors).
 */

#include "core/job_spec.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "sram/vmodel.hh"
#include "stats/json.hh"
#include "trace/spec_profiles.hh"
#include "trace/workload.hh"

namespace c8t::core
{

namespace
{

/** Recursive-descent JSON parser over a string (no streaming). */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : _text(text) {}

    JsonValue parse()
    {
        JsonValue v = value();
        skipWs();
        if (_pos != _text.size())
            fail("trailing characters after JSON value");
        return v;
    }

  private:
    [[noreturn]] void fail(const std::string &what) const
    {
        throw std::invalid_argument("json: " + what + " at byte " +
                                    std::to_string(_pos));
    }

    void skipWs()
    {
        while (_pos < _text.size() &&
               (_text[_pos] == ' ' || _text[_pos] == '\t' ||
                _text[_pos] == '\n' || _text[_pos] == '\r'))
            ++_pos;
    }

    char peek()
    {
        skipWs();
        if (_pos >= _text.size())
            fail("unexpected end of input");
        return _text[_pos];
    }

    void expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++_pos;
    }

    bool consumeWord(const char *w)
    {
        const std::size_t n = std::char_traits<char>::length(w);
        if (_text.compare(_pos, n, w) == 0) {
            _pos += n;
            return true;
        }
        return false;
    }

    JsonValue value()
    {
        const char c = peek();
        switch (c) {
        case '{':
            return object();
        case '[':
            return array();
        case '"': {
            JsonValue v;
            v.kind = JsonValue::Kind::String;
            v.string = string();
            return v;
        }
        case 't':
        case 'f': {
            JsonValue v;
            v.kind = JsonValue::Kind::Bool;
            if (consumeWord("true"))
                v.boolean = true;
            else if (consumeWord("false"))
                v.boolean = false;
            else
                fail("bad literal");
            return v;
        }
        case 'n': {
            if (!consumeWord("null"))
                fail("bad literal");
            return JsonValue{};
        }
        default:
            return numberValue();
        }
    }

    JsonValue object()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        expect('{');
        if (peek() == '}') {
            ++_pos;
            return v;
        }
        for (;;) {
            if (peek() != '"')
                fail("expected object key");
            std::string key = string();
            for (const auto &m : v.members) {
                if (m.first == key)
                    fail("duplicate object key \"" + key + "\"");
            }
            expect(':');
            v.members.emplace_back(std::move(key), value());
            const char c = peek();
            if (c == ',') {
                ++_pos;
                continue;
            }
            if (c == '}') {
                ++_pos;
                return v;
            }
            fail("expected ',' or '}'");
        }
    }

    JsonValue array()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        expect('[');
        if (peek() == ']') {
            ++_pos;
            return v;
        }
        for (;;) {
            v.items.push_back(value());
            const char c = peek();
            if (c == ',') {
                ++_pos;
                continue;
            }
            if (c == ']') {
                ++_pos;
                return v;
            }
            fail("expected ',' or ']'");
        }
    }

    std::string string()
    {
        expect('"');
        std::string out;
        while (_pos < _text.size()) {
            const char c = _text[_pos++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control character in string");
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (_pos >= _text.size())
                fail("unterminated escape");
            const char e = _text[_pos++];
            switch (e) {
            case '"': out.push_back('"'); break;
            case '\\': out.push_back('\\'); break;
            case '/': out.push_back('/'); break;
            case 'b': out.push_back('\b'); break;
            case 'f': out.push_back('\f'); break;
            case 'n': out.push_back('\n'); break;
            case 'r': out.push_back('\r'); break;
            case 't': out.push_back('\t'); break;
            case 'u': {
                if (_pos + 4 > _text.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = _text[_pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape");
                }
                // UTF-8 encode the BMP code point (surrogate pairs
                // are beyond what our ASCII-only specs ever carry).
                if (code < 0x80) {
                    out.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    out.push_back(
                        static_cast<char>(0xC0 | (code >> 6)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                } else {
                    out.push_back(
                        static_cast<char>(0xE0 | (code >> 12)));
                    out.push_back(static_cast<char>(
                        0x80 | ((code >> 6) & 0x3F)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                }
                break;
            }
            default:
                fail("unknown escape");
            }
        }
        fail("unterminated string");
    }

    JsonValue numberValue()
    {
        const std::size_t start = _pos;
        if (_pos < _text.size() && _text[_pos] == '-')
            ++_pos;
        while (_pos < _text.size() &&
               (std::isdigit(static_cast<unsigned char>(_text[_pos])) ||
                _text[_pos] == '.' || _text[_pos] == 'e' ||
                _text[_pos] == 'E' || _text[_pos] == '+' ||
                _text[_pos] == '-'))
            ++_pos;
        if (_pos == start)
            fail("expected a value");
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.raw = _text.substr(start, _pos - start);
        std::size_t used = 0;
        try {
            v.number = std::stod(v.raw, &used);
        } catch (const std::exception &) {
            fail("bad number '" + v.raw + "'");
        }
        if (used != v.raw.size())
            fail("bad number '" + v.raw + "'");
        return v;
    }

    const std::string &_text;
    std::size_t _pos = 0;
};

[[noreturn]] void
specFail(const std::string &what)
{
    throw std::invalid_argument("job spec: " + what);
}

/** Run the check @p check, reporting its failure as a spec error
 *  prefixed with @p where. */
template <typename Check>
void
specCheck(const char *where, Check check)
{
    try {
        check();
    } catch (const std::invalid_argument &e) {
        specFail(where + std::string(e.what()));
    }
}

/** Require @p v to be an object whose keys are all in @p known. */
void
expectObject(const JsonValue &v, const char *where,
             std::initializer_list<const char *> known)
{
    if (!v.isObject())
        specFail(std::string(where) + ": expected an object");
    for (const auto &m : v.members) {
        bool ok = false;
        for (const char *k : known)
            ok = ok || m.first == k;
        if (!ok) {
            specFail(std::string("unknown key \"") + m.first + "\" in " +
                     where);
        }
    }
}

std::uint64_t
asU64(const JsonValue &v, const char *key)
{
    if (!v.isNumber() || v.number < 0.0 ||
        v.number != std::floor(v.number) ||
        v.raw.find_first_of(".eE") != std::string::npos)
        specFail(std::string(key) + ": expected a non-negative integer");
    if (v.number >= 0x1p64)
        specFail(std::string(key) + ": must be <= " +
                 std::to_string(UINT64_MAX));
    return static_cast<std::uint64_t>(v.number);
}

/** asU64 for a 32-bit field: larger values are rejected, not wrapped. */
std::uint32_t
asU32(const JsonValue &v, const char *key)
{
    const std::uint64_t n = asU64(v, key);
    if (n > UINT32_MAX)
        specFail(std::string(key) + ": must be <= " +
                 std::to_string(UINT32_MAX));
    return static_cast<std::uint32_t>(n);
}

double
asDouble(const JsonValue &v, const char *key)
{
    if (!v.isNumber())
        specFail(std::string(key) + ": expected a number");
    return v.number;
}

const std::string &
asString(const JsonValue &v, const char *key)
{
    if (!v.isString())
        specFail(std::string(key) + ": expected a string");
    return v.string;
}

bool
asBool(const JsonValue &v, const char *key)
{
    if (v.kind != JsonValue::Kind::Bool)
        specFail(std::string(key) + ": expected true or false");
    return v.boolean;
}

/** A non-empty array whose items @p item parses, each reported as
 *  "<key>[]". */
template <typename T, typename Fn>
std::vector<T>
asList(const JsonValue &v, const char *key, Fn item)
{
    if (!v.isArray())
        specFail(std::string(key) + ": expected an array");
    if (v.items.empty())
        specFail(std::string(key) + ": empty list");
    const std::string item_key = std::string(key) + "[]";
    std::vector<T> out;
    out.reserve(v.items.size());
    for (const JsonValue &e : v.items)
        out.push_back(item(e, item_key.c_str()));
    return out;
}

mem::ReplKind
asRepl(const JsonValue &v, const char *key)
{
    return mem::parseReplKind(asString(v, key));
}

WriteScheme
asScheme(const JsonValue &v, const char *key)
{
    return parseWriteScheme(asString(v, key));
}

/** One "levels" entry: an object with the LevelSpec keys. */
LevelSpec
asLevel(const JsonValue &e, const char *)
{
    expectObject(e, "levels[]",
                 {"size_kb", "ways", "block", "repl", "scheme", "vdd"});
    LevelSpec l;
    if (const JsonValue *s = e.find("size_kb"))
        l.sizeKb = asU64(*s, "levels[].size_kb");
    if (const JsonValue *w = e.find("ways"))
        l.ways = asU32(*w, "levels[].ways");
    if (const JsonValue *b = e.find("block"))
        l.blockBytes = asU32(*b, "levels[].block");
    if (const JsonValue *r = e.find("repl"))
        l.repl = asRepl(*r, "levels[].repl");
    if (const JsonValue *s = e.find("scheme"))
        l.scheme = asScheme(*s, "levels[].scheme");
    if (const JsonValue *d = e.find("vdd")) {
        l.vdd = asDouble(*d, "levels[].vdd");
        if (l.vdd <= 0.0)
            specFail("levels[].vdd: must be > 0");
    }
    return l;
}

/** The supply grid of @p spec's Vdd sweep: the default grid, or the
 *  one point an explicit vdd narrows it to (useful for drilling into
 *  one point's fault map). */
std::vector<double>
sweepGrid(const JobSpec &spec)
{
    if (spec.vdd > 0.0)
        return {spec.vdd};
    return sram::VddModel::defaultGrid();
}

/** Write @p items as a JSON array, each item through @p item. */
template <typename T, typename Fn>
void
writeList(std::ostream &os, const std::vector<T> &items, Fn item)
{
    os << '[';
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i)
            os << ',';
        item(items[i]);
    }
    os << ']';
}

} // anonymous namespace

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &m : members) {
        if (m.first == key)
            return &m.second;
    }
    return nullptr;
}

JsonValue
parseJson(const std::string &text)
{
    return JsonParser(text).parse();
}

const char *
toString(JobKind k)
{
    switch (k) {
    case JobKind::Run: return "run";
    case JobKind::VddSweep: return "vdd_sweep";
    case JobKind::Explore: return "explore";
    }
    return "?";
}

JobKind
parseJobKind(const std::string &name)
{
    if (name == "run")
        return JobKind::Run;
    if (name == "vdd_sweep")
        return JobKind::VddSweep;
    if (name == "explore")
        return JobKind::Explore;
    specFail("unknown kind \"" + name +
             "\" (want run, vdd_sweep or explore)");
}

std::vector<WriteScheme>
JobSpec::effectiveSchemes() const
{
    if (!schemes.empty())
        return schemes;
    if (kind == JobKind::Run)
        return {WriteScheme::Rmw, WriteScheme::WriteGroupingReadBypass};
    return voltageStorySchemes();
}

std::vector<LevelConfig>
JobSpec::levelConfigs() const
{
    std::vector<LevelConfig> out;
    out.reserve(levels.size());
    for (const LevelSpec &l : levels) {
        LevelConfig &c = out.emplace_back();
        c.cache.sizeBytes = levelBytesFromKb(l.sizeKb, "levels[].size_kb");
        c.cache.ways = l.ways;
        c.cache.blockBytes = l.blockBytes ? l.blockBytes : cache.blockBytes;
        c.cache.replacement = l.repl;
        c.scheme = l.scheme;
        c.vdd = l.vdd;
    }
    return out;
}

std::vector<SweepJob>
JobSpec::sweepJobs() const
{
    const trace::WorkloadFactory make = trace::makeWorkload(workload);
    const std::vector<LevelConfig> lower = levelConfigs();
    std::vector<SweepJob> jobs;
    for (const WriteScheme s : effectiveSchemes()) {
        SweepJob &job = jobs.emplace_back();
        job.makeGenerator = make;
        job.streamKey = streamKey();
        ControllerConfig &c = job.configs.emplace_back();
        c.cache = cache;
        c.scheme = s;
        c.bufferEntries = bufferEntries;
        c.silentDetection = silentDetection;
        c.vdd = vdd;
        c.lowerLevels = lower;
    }
    return jobs;
}

VddSweepSpec
JobSpec::vddSweepSpec() const
{
    VddSweepSpec v;
    v.cache = cache;
    v.schemes = effectiveSchemes();
    // A hierarchy spec sweeps the L2: the grid voltage and the scheme
    // axis apply to the lower level while the 6T L1 stays at nominal.
    v.lowerLevels = levelConfigs();
    v.grid = sweepGrid(*this);
    v.makeGenerator = trace::makeWorkload(workload);
    v.streamKey = streamKey();
    return v;
}

ExplorerSpec
JobSpec::explorerSpec() const
{
    ExplorerSpec espec;
    // The label is serialized into the result document, so both front
    // ends must use the same one for byte-identity.
    espec.label = "c8tsim_explore";
    espec.workloads = exploreWorkloads.empty() ? trace::specBenchmarkNames()
                                               : exploreWorkloads;
    espec.sizesKb = exploreSizesKb;
    espec.ways = exploreWays;
    espec.blocks = exploreBlocks;
    espec.replacements = exploreRepls;
    espec.schemes = effectiveSchemes();
    espec.vddGrid = exploreVdd;
    espec.l2SizesKb = exploreL2SizesKb;
    espec.checkpointDir = checkpointDir;
    espec.cellsPerShard = shardCells;
    espec.maxShards = exploreMaxShards;
    return espec;
}

std::uint64_t
JobSpec::configRuns() const
{
    switch (kind) {
    case JobKind::VddSweep:
        return satMul(effectiveSchemes().size(), sweepGrid(*this).size());
    case JobKind::Explore:
        return explorerSpec().configRunCount();
    case JobKind::Run:
        break;
    }
    return effectiveSchemes().size();
}

std::uint64_t
JobSpec::simulatedAccesses() const
{
    const std::uint64_t warm = effectiveWarmup();
    const std::uint64_t per_run =
        accesses > UINT64_MAX - warm ? UINT64_MAX : accesses + warm;
    return satMul(configRuns(), per_run);
}

std::uint64_t
levelBytesFromKb(std::uint64_t kb, const std::string &field)
{
    if (kb > kMaxJobLevelBytes / 1024) {
        throw JobTooLarge("job spec: too large: " + field + " " +
                          std::to_string(kb) +
                          " KB exceeds the per-level limit of " +
                          std::to_string(kMaxJobLevelBytes / 1024) +
                          " KB");
    }
    return kb * 1024;
}

void
JobSpec::validate() const
{
    if (accesses == 0)
        specFail("accesses must be > 0");
    if (bufferEntries == 0)
        specFail("buffer_entries must be >= 1");
    if (vdd < 0.0)
        specFail("vdd must be > 0");
    // Sizes first: a spec over the per-level bound is too large
    // whatever else is wrong with it.
    levelBytesFromKb(cache.sizeBytes / 1024 + (cache.sizeBytes % 1024 != 0),
                     "cache.size_kb");
    for (const std::uint64_t kb : exploreSizesKb)
        levelBytesFromKb(kb, "explore.sizes_kb[]");
    for (const std::uint64_t kb : exploreL2SizesKb)
        levelBytesFromKb(kb, "explore.l2_sizes_kb[]");
    // Admission rejects what a worker could only fail on: the level
    // shapes core::LevelStack needs, and the workload, which the
    // parser checks without building its generator or opening a file.
    const std::vector<LevelConfig> lower = levelConfigs();
    specCheck("", [&] { validateLevels(cache, lower); });
    specCheck("", [&] { trace::makeWorkload(workload); });
    specCheck("cache: ", [&] { cache.validate(); });
    if (shardCells == 0)
        specFail("shard_cells must be >= 1");
    if (kind == JobKind::Explore)
        specCheck("", [&] { explorerSpec().validate(); });
    if (const std::uint64_t runs = configRuns(); runs > kMaxJobConfigRuns) {
        throw JobTooLarge("job spec: too large: " + std::to_string(runs) +
                          " config-runs exceed the admission limit of " +
                          std::to_string(kMaxJobConfigRuns));
    }
    if (const std::uint64_t n = simulatedAccesses();
        n > kMaxJobSimulatedAccesses) {
        throw JobTooLarge(
            "job spec: too large: " + std::to_string(n) +
            " simulated accesses exceed the admission limit of " +
            std::to_string(kMaxJobSimulatedAccesses));
    }
}

JobSpec
JobSpec::fromJson(const JsonValue &v)
{
    if (!v.isObject())
        specFail("expected a JSON object");
    expectObject(v, "spec",
                 {"kind", "workload", "accesses", "warmup", "cache",
                  "schemes", "buffer_entries", "silent_detection", "levels",
                  "vdd", "explore"});

    JobSpec spec;
    const JsonValue *kind = v.find("kind");
    if (!kind)
        specFail("missing required key \"kind\"");
    spec.kind = parseJobKind(asString(*kind, "kind"));

    if (const JsonValue *w = v.find("workload"))
        spec.workload = asString(*w, "workload");
    if (const JsonValue *a = v.find("accesses"))
        spec.accesses = asU64(*a, "accesses");
    if (const JsonValue *w = v.find("warmup"))
        spec.warmup = asU64(*w, "warmup");

    if (const JsonValue *c = v.find("cache")) {
        expectObject(*c, "cache", {"size_kb", "ways", "block", "repl"});
        if (const JsonValue *s = c->find("size_kb"))
            spec.cache.sizeBytes =
                levelBytesFromKb(asU64(*s, "cache.size_kb"),
                                 "cache.size_kb");
        if (const JsonValue *w = c->find("ways"))
            spec.cache.ways = asU32(*w, "cache.ways");
        if (const JsonValue *b = c->find("block"))
            spec.cache.blockBytes = asU32(*b, "cache.block");
        if (const JsonValue *r = c->find("repl"))
            spec.cache.replacement = asRepl(*r, "cache.repl");
    }

    if (const JsonValue *s = v.find("schemes"))
        spec.schemes = asList<WriteScheme>(*s, "schemes", asScheme);
    if (const JsonValue *b = v.find("buffer_entries"))
        spec.bufferEntries = asU32(*b, "buffer_entries");
    if (const JsonValue *s = v.find("silent_detection"))
        spec.silentDetection = asBool(*s, "silent_detection");
    if (const JsonValue *lv = v.find("levels"))
        spec.levels = asList<LevelSpec>(*lv, "levels", asLevel);
    if (const JsonValue *d = v.find("vdd")) {
        spec.vdd = asDouble(*d, "vdd");
        if (spec.vdd <= 0.0)
            specFail("vdd: must be > 0");
    }

    if (const JsonValue *e = v.find("explore")) {
        if (spec.kind != JobKind::Explore)
            specFail("explore axes given for a non-explore kind");
        expectObject(*e, "explore",
                     {"workloads", "sizes_kb", "ways", "blocks", "repl",
                      "vdd", "l2_sizes_kb", "shard_cells"});
        if (const JsonValue *w = e->find("workloads")) {
            spec.exploreWorkloads =
                asList<std::string>(*w, "explore.workloads", asString);
        }
        if (const JsonValue *s = e->find("sizes_kb"))
            spec.exploreSizesKb =
                asList<std::uint64_t>(*s, "explore.sizes_kb", asU64);
        if (const JsonValue *w = e->find("ways"))
            spec.exploreWays = asList<std::uint32_t>(*w, "explore.ways", asU32);
        if (const JsonValue *b = e->find("blocks"))
            spec.exploreBlocks =
                asList<std::uint32_t>(*b, "explore.blocks", asU32);
        if (const JsonValue *r = e->find("repl"))
            spec.exploreRepls =
                asList<mem::ReplKind>(*r, "explore.repl", asRepl);
        if (const JsonValue *g = e->find("vdd"))
            spec.exploreVdd = asList<double>(*g, "explore.vdd", asDouble);
        if (const JsonValue *l = e->find("l2_sizes_kb")) {
            spec.exploreL2SizesKb =
                asList<std::uint64_t>(*l, "explore.l2_sizes_kb", asU64);
        }
        if (const JsonValue *s = e->find("shard_cells")) {
            spec.shardCells = static_cast<std::size_t>(
                asU64(*s, "explore.shard_cells"));
        }
    }

    spec.validate();
    return spec;
}

JobSpec
JobSpec::fromJsonText(const std::string &text)
{
    return fromJson(parseJson(text));
}

std::string
JobSpec::toJson() const
{
    std::ostringstream os;
    const auto number = [&os](auto v) { os << v; };
    const auto volts = [&os](double v) { stats::jsonNumber(os, v); };
    os << "{\"kind\":\"" << toString(kind) << "\""
       << ",\"workload\":\"" << stats::jsonEscape(workload) << "\""
       << ",\"accesses\":" << accesses << ",\"warmup\":" << warmup
       << ",\"cache\":{\"size_kb\":" << (cache.sizeBytes >> 10)
       << ",\"ways\":" << cache.ways << ",\"block\":" << cache.blockBytes
       << ",\"repl\":\"" << mem::toString(cache.replacement) << "\"}";
    if (!schemes.empty()) {
        os << ",\"schemes\":";
        writeList(os, schemes, [&os](WriteScheme s) {
            os << '"' << core::toString(s) << '"';
        });
    }
    os << ",\"buffer_entries\":" << bufferEntries
       << ",\"silent_detection\":"
       << (silentDetection ? "true" : "false");
    if (!levels.empty()) {
        os << ",\"levels\":";
        writeList(os, levels, [&](const LevelSpec &l) {
            os << "{\"size_kb\":" << l.sizeKb << ",\"ways\":" << l.ways
               << ",\"block\":" << l.blockBytes << ",\"repl\":\""
               << mem::toString(l.repl) << "\",\"scheme\":\""
               << core::toString(l.scheme) << "\"";
            if (l.vdd > 0.0) {
                os << ",\"vdd\":";
                volts(l.vdd);
            }
            os << "}";
        });
    }
    if (vdd > 0.0) {
        os << ",\"vdd\":";
        volts(vdd);
    }
    if (kind == JobKind::Explore) {
        os << ",\"explore\":{";
        if (!exploreWorkloads.empty()) {
            os << "\"workloads\":";
            writeList(os, exploreWorkloads, [&os](const std::string &w) {
                os << '"' << stats::jsonEscape(w) << '"';
            });
            os << ",";
        }
        os << "\"sizes_kb\":";
        writeList(os, exploreSizesKb, number);
        os << ",\"ways\":";
        writeList(os, exploreWays, number);
        os << ",\"blocks\":";
        writeList(os, exploreBlocks, number);
        os << ",\"repl\":";
        writeList(os, exploreRepls, [&os](mem::ReplKind r) {
            os << '"' << mem::toString(r) << '"';
        });
        if (!exploreVdd.empty()) {
            os << ",\"vdd\":";
            writeList(os, exploreVdd, volts);
        }
        if (!exploreL2SizesKb.empty()) {
            os << ",\"l2_sizes_kb\":";
            writeList(os, exploreL2SizesKb, number);
        }
        os << ",\"shard_cells\":" << shardCells << "}";
    }
    os << "}";
    return os.str();
}

} // namespace c8t::core
