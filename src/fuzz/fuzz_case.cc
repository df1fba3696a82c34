#include "fuzz/fuzz_case.hh"

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

namespace hdpat
{

namespace
{

/**
 * The single field table: every numeric knob by name, in the order it
 * serialises. serialize(), parseFuzzCase(), toCppLiteral(), and the
 * shrinker all walk this list, so adding a field here is the whole
 * change.
 */
template <typename Case, typename F>
void
forEachNumericField(Case &c, F &&f)
{
    f("meshWidth", c.meshWidth);
    f("meshHeight", c.meshHeight);
    f("pageShift", c.pageShift);
    f("issueWidth", c.issueWidth);
    f("maxOutstandingOps", c.maxOutstandingOps);
    f("l1Sets", c.l1Sets);
    f("l1Ways", c.l1Ways);
    f("l1Mshrs", c.l1Mshrs);
    f("l2Sets", c.l2Sets);
    f("l2Ways", c.l2Ways);
    f("l2Mshrs", c.l2Mshrs);
    f("llSets", c.llSets);
    f("llWays", c.llWays);
    f("llMshrs", c.llMshrs);
    f("cuckooCapacity", c.cuckooCapacity);
    f("gmmuWalkers", c.gmmuWalkers);
    f("iommuWalkers", c.iommuWalkers);
    f("iommuPwQueueCapacity", c.iommuPwQueueCapacity);
    f("iommuIngressPerCycle", c.iommuIngressPerCycle);
    f("iommuTlbMshrs", c.iommuTlbMshrs);
    f("peerMode", c.peerMode);
    f("redirectionTable", c.redirectionTable);
    f("iommuTlbInsteadOfRt", c.iommuTlbInsteadOfRt);
    f("prefetch", c.prefetch);
    f("prefetchDegree", c.prefetchDegree);
    f("pwQueueRevisit", c.pwQueueRevisit);
    f("neighborTlbProbe", c.neighborTlbProbe);
    f("walkMode", c.walkMode);
    f("concentricLayers", c.concentricLayers);
    f("numClusters", c.numClusters);
    f("rotation", c.rotation);
    f("concurrentProbes", c.concurrentProbes);
    f("opsPerGpm", c.opsPerGpm);
    f("seed", c.seed);
    // Tenancy fields come last: corpus files predating them parse
    // unchanged (absent keys keep the single-tenant defaults).
    f("asidCount", c.asidCount);
    f("switchRatePerMTicks", c.switchRatePerMTicks);
    f("churnRatePerMTicks", c.churnRatePerMTicks);
}

/** Keys of retired harness switches: older reproducers carry them;
 *  the parser drops them. */
constexpr const char *kRetiredKeys[] = {"heapEventQueue", "nocFuse",
                                        "domains"};

/** Negative sampled values target signed config fields; for unsigned
 *  destinations clamp to 0 (the degenerate value validation rejects)
 *  instead of letting the cast wrap to a huge allocation. */
std::size_t
toSize(std::int64_t v)
{
    return v < 0 ? 0 : static_cast<std::size_t>(v);
}

} // namespace

const std::vector<std::string> &
fuzzCaseFieldNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        FuzzCase c;
        forEachNumericField(c,
                            [&out](const char *name, std::int64_t &) {
                                out.emplace_back(name);
                            });
        return out;
    }();
    return names;
}

std::int64_t *
fuzzCaseField(FuzzCase &c, const std::string &name)
{
    std::int64_t *found = nullptr;
    forEachNumericField(c,
                        [&](const char *fname, std::int64_t &field) {
                            if (name == fname)
                                found = &field;
                        });
    return found;
}

std::int64_t
fuzzCaseFieldValue(const FuzzCase &c, const std::string &name)
{
    std::int64_t found = 0;
    forEachNumericField(c, [&](const char *fname, std::int64_t field) {
        if (name == fname)
            found = field;
    });
    return found;
}

RunSpec
FuzzCase::toSpec() const
{
    SystemConfig cfg = SystemConfig::mi100();
    cfg.name = "fuzz";
    cfg.meshWidth = static_cast<int>(meshWidth);
    cfg.meshHeight = static_cast<int>(meshHeight);
    cfg.pageShift = static_cast<unsigned>(toSize(pageShift));
    cfg.issueWidth = static_cast<int>(issueWidth);
    cfg.maxOutstandingOps = static_cast<int>(maxOutstandingOps);
    cfg.l1Tlb.sets = toSize(l1Sets);
    cfg.l1Tlb.ways = toSize(l1Ways);
    cfg.l1Tlb.mshrs = toSize(l1Mshrs);
    cfg.l2Tlb.sets = toSize(l2Sets);
    cfg.l2Tlb.ways = toSize(l2Ways);
    cfg.l2Tlb.mshrs = toSize(l2Mshrs);
    cfg.lastLevelTlb.sets = toSize(llSets);
    cfg.lastLevelTlb.ways = toSize(llWays);
    cfg.lastLevelTlb.mshrs = toSize(llMshrs);
    cfg.cuckooCapacity = toSize(cuckooCapacity);
    cfg.gmmuWalkers = toSize(gmmuWalkers);
    cfg.iommuWalkers = toSize(iommuWalkers);
    cfg.iommuPwQueueCapacity = toSize(iommuPwQueueCapacity);
    cfg.iommuIngressPerCycle = static_cast<int>(iommuIngressPerCycle);
    cfg.iommuTlbMshrs = toSize(iommuTlbMshrs);

    TranslationPolicy pol;
    pol.name = "fuzz-policy";
    pol.peerMode = static_cast<PeerCachingMode>(peerMode);
    pol.redirectionTable = redirectionTable != 0;
    pol.iommuTlbInsteadOfRt = iommuTlbInsteadOfRt != 0;
    pol.prefetch = prefetch != 0;
    pol.prefetchDegree = static_cast<int>(prefetchDegree);
    pol.pwQueueRevisit = pwQueueRevisit != 0;
    pol.neighborTlbProbe = neighborTlbProbe != 0;
    pol.walkMode = static_cast<IommuWalkMode>(walkMode);
    pol.concentricLayers = static_cast<int>(concentricLayers);
    pol.numClusters = static_cast<int>(numClusters);
    pol.rotation = rotation != 0;
    pol.concurrentProbes = concurrentProbes != 0;

    RunSpec spec;
    spec.config = cfg;
    spec.policy = pol;
    spec.workload = workload;
    spec.opsPerGpm = toSize(opsPerGpm);
    spec.seed = static_cast<std::uint64_t>(seed);
    // Reproducibility: the case fully determines the run. Ignore the
    // HDPAT_* environment and keep the run quiet; the harness turns
    // on exactly the observability it needs.
    spec.obs = ObsOptions{};
    spec.obs.heartbeatInterval = 0;
    spec.tenancy = TenancySpec{};
    spec.tenancy.asidCount = static_cast<std::uint32_t>(toSize(asidCount));
    spec.tenancy.switchRatePerMTicks =
        static_cast<std::uint64_t>(toSize(switchRatePerMTicks));
    spec.tenancy.churnRatePerMTicks =
        static_cast<std::uint64_t>(toSize(churnRatePerMTicks));
    return spec;
}

std::string
FuzzCase::serialize() const
{
    std::ostringstream os;
    forEachNumericField(*this, [&os](const char *name, std::int64_t v) {
        os << name << "=" << v << "\n";
    });
    os << "workload=" << workload << "\n";
    return os.str();
}

std::string
FuzzCase::toCppLiteral() const
{
    const FuzzCase defaults;
    std::ostringstream os;
    os << "FuzzCase c;\n";
    forEachNumericField(*this, [&](const char *name, std::int64_t v) {
        std::int64_t def = 0;
        forEachNumericField(defaults,
                            [&](const char *dname, std::int64_t dv) {
                                if (std::string(dname) == name)
                                    def = dv;
                            });
        if (v != def)
            os << "c." << name << " = " << v << ";\n";
    });
    if (workload != defaults.workload)
        os << "c.workload = \"" << workload << "\";\n";
    return os.str();
}

bool
FuzzCase::operator==(const FuzzCase &other) const
{
    return serialize() == other.serialize();
}

std::optional<FuzzCase>
parseFuzzCase(const std::string &text, std::string *error)
{
    const auto fail = [error](const std::string &why) {
        if (error)
            *error = why;
        return std::nullopt;
    };

    std::map<std::string, std::string> kv;
    std::istringstream is(text);
    std::string line;
    int lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        // Trim trailing CR (corpus files may be checked out with CRLF).
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos || eq == 0)
            return fail("line " + std::to_string(lineno) +
                        ": expected key=value, got \"" + line + "\"");
        const std::string key = line.substr(0, eq);
        if (kv.count(key))
            return fail("duplicate key \"" + key + "\"");
        kv[key] = line.substr(eq + 1);
    }

    FuzzCase c;
    std::string bad;
    forEachNumericField(c, [&](const char *name, std::int64_t &field) {
        const auto it = kv.find(name);
        if (it == kv.end())
            return; // Absent keys keep the default.
        const std::string &value = it->second;
        char *end = nullptr;
        const long long parsed = std::strtoll(value.c_str(), &end, 0);
        if (end == value.c_str() || *end != '\0') {
            if (bad.empty())
                bad = std::string("key \"") + name +
                      "\" has a non-numeric value \"" + value + "\"";
            return;
        }
        field = parsed;
        kv.erase(it);
    });
    if (!bad.empty())
        return fail(bad);

    if (const auto it = kv.find("workload"); it != kv.end()) {
        c.workload = it->second;
        kv.erase(it);
    }
    for (const char *key : kRetiredKeys)
        kv.erase(key);
    if (!kv.empty())
        return fail("unknown key \"" + kv.begin()->first +
                    "\" (field table and corpus out of sync?)");
    return c;
}

std::optional<FuzzCase>
loadFuzzCase(const std::string &path, std::string *error)
{
    std::ifstream in(path);
    if (!in.good()) {
        if (error)
            *error = "cannot open " + path;
        return std::nullopt;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return parseFuzzCase(buf.str(), error);
}

} // namespace hdpat
