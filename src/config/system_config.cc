#include "config/system_config.hh"

#include <sstream>

#include "sim/log.hh"

namespace hdpat
{

std::size_t
SystemConfig::numGpms() const
{
    if (topology == TopologyKind::Mcm4)
        return 4;
    return static_cast<std::size_t>(meshWidth) * meshHeight - 1;
}

std::vector<std::string>
SystemConfig::validationErrors() const
{
    std::vector<std::string> errors;
    const auto bad = [&errors](const auto &...parts) {
        std::ostringstream oss;
        (oss << ... << parts);
        errors.push_back(oss.str());
    };

    // ---- Topology -----------------------------------------------------
    if (meshWidth < 1)
        bad("meshWidth must be >= 1 (got ", meshWidth, ")");
    if (meshHeight < 1)
        bad("meshHeight must be >= 1 (got ", meshHeight, ")");
    if (topology == TopologyKind::Wafer && meshWidth >= 1 &&
        meshHeight >= 1 && meshWidth * meshHeight < 2) {
        bad("meshWidth x meshHeight = ", meshWidth, "x", meshHeight,
            " leaves no GPM tiles (the single tile hosts the CPU)");
    }

    // ---- Compute ------------------------------------------------------
    if (issueWidth < 1)
        bad("issueWidth must be >= 1 (got ", issueWidth, ")");
    if (maxOutstandingOps < 1)
        bad("maxOutstandingOps must be >= 1 (got ", maxOutstandingOps,
            ")");
    if (!(computeScale > 0.0))
        bad("computeScale must be positive (got ", computeScale, ")");

    // ---- Virtual memory ----------------------------------------------
    if (pageShift < 12 || pageShift > 30) {
        bad("pageShift ", pageShift,
            " outside the supported page-size range [12, 30]");
    }

    // ---- TLB hierarchy ------------------------------------------------
    const auto checkLevel = [&](const char *field,
                                const TlbLevelParams &lvl) {
        if (lvl.sets == 0)
            bad(field, ".sets must be >= 1");
        if (lvl.ways == 0)
            bad(field, ".ways must be >= 1");
    };
    checkLevel("l1Tlb", l1Tlb);
    checkLevel("l2Tlb", l2Tlb);
    checkLevel("lastLevelTlb", lastLevelTlb);
    // l2Tlb.mshrs bounds the remote-miss MSHR file; 0 would silently
    // mean "unlimited" (MshrFile convention), which is never what a
    // Table-I-style config intends. lastLevelTlb.mshrs == 0 stays
    // legal: the LL TLB is filled by peers/pushes, not via MSHRs.
    if (l2Tlb.mshrs == 0)
        bad("l2Tlb.mshrs must be >= 1 (0 would disable the bound)");

    // ---- Walkers and IOMMU pipeline ------------------------------------
    if (gmmuWalkers == 0)
        bad("gmmuWalkers: each GMMU needs at least one page walker");
    if (iommuWalkers == 0)
        bad("iommuWalkers: the IOMMU needs at least one page walker");
    if (iommuPwQueueCapacity == 0)
        bad("iommuPwQueueCapacity: the PW-queue cannot be empty");
    if (iommuIngressPerCycle < 1)
        bad("iommuIngressPerCycle must be >= 1 (got ",
            iommuIngressPerCycle, ")");
    if (iommuTlbMshrs == 0)
        bad("iommuTlbMshrs must be >= 1 (0 would disable the bound)");

    // ---- Data cache -----------------------------------------------------
    // SetAssocCache keeps a one-byte fill count per set, so 255 ways is
    // the widest set it can hold.
    const bool line_ok =
        cacheLineBytes != 0 && (cacheLineBytes & (cacheLineBytes - 1)) == 0;
    const bool ways_ok = l2CacheWays >= 1 && l2CacheWays <= 255;
    if (!line_ok)
        bad("cacheLineBytes must be a power of two (got ", cacheLineBytes,
            ")");
    if (!ways_ok)
        bad("l2CacheWays must be in [1, 255] (got ", l2CacheWays, ")");
    if (line_ok && ways_ok && l2CacheBytes / cacheLineBytes / l2CacheWays == 0)
        bad("l2CacheBytes ", l2CacheBytes, " holds no set of ", l2CacheWays,
            " x ", cacheLineBytes, "-byte lines");

    // ---- Bandwidth models ----------------------------------------------
    if (!(noc.bytesPerTick > 0.0))
        bad("noc.bytesPerTick must be positive (got ", noc.bytesPerTick,
            ")");
    if (!(hbmBytesPerTick > 0.0))
        bad("hbmBytesPerTick must be positive (got ", hbmBytesPerTick,
            ")");

    return errors;
}

void
SystemConfig::validate() const
{
    const std::vector<std::string> errors = validationErrors();
    if (errors.empty())
        return;
    std::ostringstream oss;
    oss << "invalid SystemConfig \"" << name << "\":";
    for (const std::string &e : errors)
        oss << "\n  - " << e;
    hdpat_fatal(oss.str());
}

SystemConfig
SystemConfig::mi100()
{
    return SystemConfig{}; // Table I defaults are the MI100-derived GPM.
}

SystemConfig
SystemConfig::mi200()
{
    SystemConfig c;
    c.name = "MI200-7x7";
    c.computeScale = 0.95;
    c.l2CacheBytes = 8u << 20;
    c.hbmBytesPerTick = 1640.0; // HBM2e, 1.6 TB/s
    c.hbmLatency = 115;
    return c;
}

SystemConfig
SystemConfig::mi300()
{
    SystemConfig c;
    c.name = "MI300-7x7";
    c.computeScale = 1.1;
    c.cusPerGpm = 38;
    c.issueWidth = 5;
    c.l2CacheBytes = 16u << 20;
    c.hbmBytesPerTick = 2650.0; // HBM3
    c.hbmLatency = 110;
    return c;
}

SystemConfig
SystemConfig::h100()
{
    SystemConfig c;
    c.name = "H100-7x7";
    // A GPM that is one quarter of an H100 has far more memory-level
    // parallelism (256 KB L1 per CU, 50 MB L2) than the MI100 slice.
    c.computeScale = 2.8;
    // "256KB L1 per CU and 50MB L2" -- model the jump as a much larger
    // data cache per GPM (50 MB / 4 GPM-quarters) and HBM2e bandwidth.
    c.l2CacheBytes = 12u << 20;
    c.l2CacheWays = 24;
    c.hbmBytesPerTick = 2000.0;
    c.hbmLatency = 115;
    c.maxOutstandingOps = 768;
    return c;
}

SystemConfig
SystemConfig::h200()
{
    SystemConfig c = h100();
    c.name = "H200-7x7";
    c.computeScale = 2.6;
    c.hbmBytesPerTick = 4800.0; // HBM3e
    c.hbmLatency = 105;
    return c;
}

SystemConfig
SystemConfig::mi100Wafer7x12()
{
    SystemConfig c;
    c.name = "MI100-7x12";
    c.meshWidth = 12;
    c.meshHeight = 7;
    return c;
}

SystemConfig
SystemConfig::mcm4()
{
    SystemConfig c;
    c.name = "MI100-MCM4";
    c.topology = TopologyKind::Mcm4;
    c.meshWidth = 3;
    c.meshHeight = 3;
    return c;
}

} // namespace hdpat
