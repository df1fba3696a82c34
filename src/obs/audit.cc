#include "obs/audit.hh"

#include <algorithm>
#include <sstream>

namespace hdpat
{

void
Auditor::opIssued(TileId tile, Vpn vpn, Tick now)
{
    ++issued_;
    ++inFlightTotal_;
    Flight &f = inFlight_[Key{tile, vpn}];
    if (f.count == 0)
        f.earliestIssue = now;
    ++f.count;
}

void
Auditor::opRetired(TileId tile, Vpn vpn, Tick now)
{
    ++retired_;
    ++retireCensus_[Key{tile, vpn}];
    const auto it = inFlight_.find(Key{tile, vpn});
    if (it == inFlight_.end()) {
        // A retire with no matching issue is either a double retire or
        // a phantom completion; both are recorded the moment they
        // happen so the diagnostic carries the offending tick.
        std::ostringstream os;
        os << "retire without matching issue: tile " << tile
           << " vpn 0x" << std::hex << vpn << std::dec << " at tick "
           << now;
        liveViolations_.push_back(os.str());
        return;
    }
    --inFlightTotal_;
    if (--it->second.count == 0)
        inFlight_.erase(it);
}

void
Auditor::pfnResolved(TileId tile, Vpn vpn, Pfn pfn, Tick now)
{
    if (!reference_)
        return;
    ++pfnChecks_;
    const std::optional<Pfn> want = reference_(vpn);
    if (!want)
        return; // Unmapped (e.g. shot down mid-flight): no verdict.
    if (*want == pfn)
        return;
    ++pfnMismatches_;
    // Record the first few with full context; the rest only count, so
    // a systematically wrong path cannot OOM the auditor.
    constexpr std::uint64_t kMaxRecorded = 16;
    if (pfnMismatches_ <= kMaxRecorded) {
        std::ostringstream os;
        os << "wrong PPN installed at tile " << tile << ": vpn 0x"
           << std::hex << vpn << " resolved to pfn 0x" << pfn
           << " but the page table says 0x" << *want << std::dec
           << " (tick " << now << ")";
        liveViolations_.push_back(os.str());
    }
}

void
Auditor::shootdownIssued(Vpn vpn, std::size_t targets, Tick now)
{
    ++shootdownRounds_;
    const auto [it, inserted] = openRounds_.try_emplace(vpn);
    if (!inserted) {
        std::ostringstream os;
        os << "shootdown round opened for vpn 0x" << std::hex << vpn
           << std::dec << " at tick " << now
           << " while a previous round is still awaiting "
           << (it->second.targets - it->second.acked.size()) << " acks";
        liveViolations_.push_back(os.str());
        return;
    }
    it->second.targets = targets;
    if (targets == 0) {
        openRounds_.erase(it);
        ++shootdownRoundsClosed_;
    }
}

void
Auditor::invalidationAcked(Vpn vpn, TileId tile, Tick now)
{
    ++acksTotal_;
    const auto it = openRounds_.find(vpn);
    if (it == openRounds_.end()) {
        std::ostringstream os;
        os << "invalidation ack from tile " << tile << " for vpn 0x"
           << std::hex << vpn << std::dec << " at tick " << now
           << " with no open shootdown round";
        liveViolations_.push_back(os.str());
        return;
    }
    ShootdownRound &round = it->second;
    if (std::find(round.acked.begin(), round.acked.end(), tile) !=
        round.acked.end()) {
        std::ostringstream os;
        os << "duplicate invalidation ack from tile " << tile
           << " for vpn 0x" << std::hex << vpn << std::dec
           << " at tick " << now;
        liveViolations_.push_back(os.str());
        return;
    }
    round.acked.push_back(tile);
    if (round.acked.size() >= round.targets) {
        openRounds_.erase(it);
        ++shootdownRoundsClosed_;
    }
}

void
Auditor::staleResident(TileId tile, Vpn vpn, Pfn pfn)
{
    ++staleResidents_;
    constexpr std::uint64_t kMaxRecorded = 16;
    if (staleResidents_ <= kMaxRecorded) {
        std::ostringstream os;
        os << "stale TLB entry resident at tile " << tile << ": vpn 0x"
           << std::hex << vpn << " -> pfn 0x" << pfn << std::dec
           << " survived its shootdown (page table disagrees)";
        liveViolations_.push_back(os.str());
    }
}

std::uint64_t
Auditor::retireCensusHash() const
{
    // Commutative combine (sum of scrambled entries), so the digest
    // is independent of hash-map iteration order and of the order
    // retires happened in.
    std::uint64_t h = 0;
    for (const auto &[key, count] : retireCensus_) {
        std::uint64_t x = key.vpn * 0x9e3779b97f4a7c15ull;
        x ^= static_cast<std::uint64_t>(
                 static_cast<std::int64_t>(key.tile)) *
             0xbf58476d1ce4e5b9ull;
        x ^= count * 0x94d049bb133111ebull;
        x ^= x >> 31;
        x *= 0xbf58476d1ce4e5b9ull;
        x ^= x >> 29;
        h += x;
    }
    return h;
}

void
Auditor::addQueueProbe(std::string name,
                       std::function<std::size_t()> depth)
{
    queues_.push_back({std::move(name), std::move(depth)});
}

void
Auditor::setTlbOccupancyProbe(TileId tile,
                              std::function<std::size_t()> occupancy)
{
    tlbOccupancy_[tile] = std::move(occupancy);
}

std::string
Auditor::diagnostic() const
{
    std::ostringstream os;

    // Stuck spans: every (tile, VPN) issued but not yet retired, in
    // deterministic (tile, vpn) order.
    std::vector<std::pair<Key, Flight>> stuck(inFlight_.begin(),
                                              inFlight_.end());
    std::sort(stuck.begin(), stuck.end(),
              [](const auto &a, const auto &b) {
                  return a.first.tile != b.first.tile
                             ? a.first.tile < b.first.tile
                             : a.first.vpn < b.first.vpn;
              });
    os << "stuck spans: " << stuck.size() << "\n";
    constexpr std::size_t kMaxListed = 16;
    for (std::size_t i = 0; i < stuck.size() && i < kMaxListed; ++i) {
        const auto &[key, flight] = stuck[i];
        os << "  tile " << key.tile << " vpn 0x" << std::hex << key.vpn
           << std::dec << " in-flight " << flight.count
           << " since tick " << flight.earliestIssue << "\n";
    }
    if (stuck.size() > kMaxListed)
        os << "  ... " << (stuck.size() - kMaxListed) << " more\n";

    std::map<TileId, std::uint64_t> per_tile;
    for (const auto &[key, flight] : inFlight_)
        per_tile[key.tile] += flight.count;
    os << "in-flight per tile:";
    if (per_tile.empty())
        os << " (none)";
    for (const auto &[tile, count] : per_tile)
        os << " t" << tile << "=" << count;
    os << "\n";

    // Deepest queues first; empty ones are noise.
    std::vector<std::pair<std::size_t, const QueueProbe *>> depths;
    for (const QueueProbe &q : queues_) {
        const std::size_t d = q.depth();
        if (d > 0)
            depths.emplace_back(d, &q);
    }
    std::sort(depths.begin(), depths.end(),
              [](const auto &a, const auto &b) {
                  return a.first != b.first
                             ? a.first > b.first
                             : a.second->name < b.second->name;
              });
    os << "deepest queues:";
    if (depths.empty())
        os << " (all empty)";
    for (std::size_t i = 0; i < depths.size() && i < kMaxListed; ++i)
        os << " " << depths[i].second->name << "=" << depths[i].first;
    os << "\n";
    return os.str();
}

Auditor::Report
Auditor::finalize() const
{
    Report report;
    report.violations = liveViolations_;

    if (!inFlight_.empty()) {
        std::ostringstream os;
        os << inFlight_.size() << " (tile, VPN) spans issued but never "
           << "retired (" << inFlightTotal_ << " ops in flight)";
        report.violations.push_back(os.str());
    }
    if (issued_ != retired_) {
        std::ostringstream os;
        os << "issued " << issued_ << " ops but retired " << retired_;
        report.violations.push_back(os.str());
    }
    if (pfnMismatches_ > 0) {
        std::ostringstream os;
        os << pfnMismatches_ << " of " << pfnChecks_
           << " resolved translations installed a PPN that "
           << "contradicts the page table";
        report.violations.push_back(os.str());
    }
    if (staleResidents_ > 16) {
        std::ostringstream os;
        os << staleResidents_
           << " stale resident TLB entries total (first 16 listed)";
        report.violations.push_back(os.str());
    }

    for (std::size_t p = 0; p < kNumPlanes; ++p) {
        if (sent_[p] == delivered_[p])
            continue;
        std::ostringstream os;
        os << planeName(static_cast<Plane>(p)) << "-plane packets: "
           << sent_[p] << " sent but " << delivered_[p] << " delivered";
        report.violations.push_back(os.str());
    }

    for (const auto &[tile, balance] : mshr_) {
        if (balance.allocated == balance.freed)
            continue;
        std::ostringstream os;
        os << "tile " << tile << " MSHR: " << balance.allocated
           << " allocations but " << balance.freed << " frees";
        report.violations.push_back(os.str());
    }

    for (const auto &[tile, balance] : tlb_) {
        const auto probe = tlbOccupancy_.find(tile);
        const std::uint64_t occupancy =
            probe != tlbOccupancy_.end() ? probe->second() : 0;
        if (balance.filled == balance.evicted + occupancy)
            continue;
        std::ostringstream os;
        os << "tile " << tile << " last-level TLB: " << balance.filled
           << " fills != " << balance.evicted << " evictions + "
           << occupancy << " resident";
        report.violations.push_back(os.str());
    }

    for (const QueueProbe &q : queues_) {
        const std::size_t depth = q.depth();
        if (depth == 0)
            continue;
        std::ostringstream os;
        os << "queue " << q.name << " still holds " << depth
           << " entries after the run drained";
        report.violations.push_back(os.str());
    }

    for (const auto &[vpn, round] : openRounds_) {
        std::ostringstream os;
        os << "shootdown round for vpn 0x" << std::hex << vpn
           << std::dec << " never closed: " << round.acked.size()
           << " of " << round.targets << " acks received";
        report.violations.push_back(os.str());
    }

    report.ok = report.violations.empty();
    if (!report.ok)
        report.diagnostic = diagnostic();
    return report;
}

} // namespace hdpat
