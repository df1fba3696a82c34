#include "fuzz/harness.hh"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <sstream>
#include <vector>

#include "driver/parallel.hh"
#include "driver/runner.hh"

namespace hdpat
{

namespace
{

/** Child exit code for an oracle violation (distinct from the
 *  hdpat_fatal convention of 1). */
constexpr int kOracleExit = 77;

/** Ticks of zero forward progress before the watchdog panics. Far
 *  above anything a legal short run needs, so it only fires on a
 *  genuine stall; wall-clock hangs are caught by alarm(). */
constexpr std::int64_t kWatchdogTicks = 50'000'000;

/** Spatial window of oracle 4's spatial-observed re-run. */
constexpr std::int64_t kSpatialWindowTicks = 100'000;

/**
 * Compare the count-conservation surface of two results. Timing
 * equality (totalTicks) is deliberately included: runOnce is
 * documented deterministic, so any drift across orderings is a
 * scheduling bug, not noise.
 */
bool
sameCounts(const RunResult &a, const RunResult &b, const char *what,
           std::string *why)
{
    const auto differ = [&](const char *field, std::uint64_t x,
                            std::uint64_t y) {
        if (x == y)
            return false;
        std::ostringstream os;
        os << what << ": " << field << " " << x << " != " << y;
        *why = os.str();
        return true;
    };
    return !(differ("totalTicks", a.totalTicks, b.totalTicks) ||
             differ("opsTotal", a.opsTotal, b.opsTotal) ||
             differ("localWalks", a.localWalks, b.localWalks) ||
             differ("iommu.walksStarted", a.iommu.walksStarted,
                    b.iommu.walksStarted) ||
             differ("iommu.walksCompleted", a.iommu.walksCompleted,
                    b.iommu.walksCompleted) ||
             differ("noc.packets", a.noc.packets, b.noc.packets) ||
             differ("auditIssued", a.auditIssued, b.auditIssued) ||
             differ("auditRetired", a.auditRetired, b.auditRetired) ||
             differ("auditPfnChecks", a.auditPfnChecks,
                    b.auditPfnChecks) ||
             differ("auditRetireCensusHash", a.auditRetireCensusHash,
                    b.auditRetireCensusHash));
}

/**
 * The child's whole life. Exits 0 on pass, 1 via hdpat_fatal when the
 * spec is invalid, kOracleExit on a differential violation; audit
 * violations panic (abort) inside System::run.
 */
[[noreturn]] void
childRun(const RunSpec &spec)
{
    // Oracle 2: one audited, watchdogged run. The auditor carries the
    // PPN reference translator, so every installed translation is
    // checked against the page table no matter which policy path
    // resolved it.
    RunSpec audited = spec;
    audited.obs.audit = true;
    audited.obs.watchdogInterval = kWatchdogTicks;
    const RunResult single = runOnce(audited);

    // Oracle 3: the same case inside runMany batches -- reordered and
    // on different worker counts -- must conserve every count. The
    // sibling spec only differs in seed so the batch is heterogeneous.
    RunSpec sibling = audited;
    sibling.seed ^= 0x517cc1b727220a95ull;
    const std::vector<RunResult> serial = runMany({audited, sibling}, 1);
    const std::vector<RunResult> threaded =
        runMany({sibling, audited}, 3);
    std::string why;
    if (serial.size() != 2 || threaded.size() != 2) {
        std::fprintf(stderr, "differential: runMany dropped results\n");
        _exit(kOracleExit);
    }
    if (!sameCounts(single, serial[0], "runOnce vs runMany[jobs=1]",
                    &why) ||
        !sameCounts(serial[0], threaded[1],
                    "jobs=1 vs reordered jobs=3 (case)", &why) ||
        !sameCounts(serial[1], threaded[0],
                    "jobs=1 vs reordered jobs=3 (sibling)", &why)) {
        std::fprintf(stderr, "differential mismatch: %s\n",
                     why.c_str());
        _exit(kOracleExit);
    }

    // Oracle 4: spatial observation must be a pure observer. Re-run
    // the audited case with per-link heatmaps on: every simulated
    // count -- including totalTicks and the retire census hash -- must
    // match.
    RunSpec spatial = audited;
    spatial.obs.spatialWindow = kSpatialWindowTicks;
    if (!sameCounts(single, runOnce(spatial), "plain vs spatial-observed",
                    &why)) {
        std::fprintf(stderr, "differential mismatch: %s\n",
                     why.c_str());
        _exit(kOracleExit);
    }

    // Oracle 5: latency attribution must be a pure observer. A run
    // with per-stage attribution on (sampled, to exercise the hash
    // path) must conserve every count, and every sampled span's stage
    // durations must sum to its end-to-end latency.
    RunSpec attributed = audited;
    attributed.obs.latency = true;
    attributed.obs.latencySampleN = 3;
    const RunResult traced = runOnce(attributed);
    if (!sameCounts(single, traced, "plain vs latency-attributed",
                    &why)) {
        std::fprintf(stderr, "differential mismatch: %s\n",
                     why.c_str());
        _exit(kOracleExit);
    }
    if (traced.latency.conservationViolations != 0) {
        std::fprintf(stderr,
                     "latency conservation: %llu of %llu spans have "
                     "stage sums != end-to-end\n",
                     static_cast<unsigned long long>(
                         traced.latency.conservationViolations),
                     static_cast<unsigned long long>(
                         traced.latency.spans));
        _exit(kOracleExit);
    }

    // Oracle 6: backpressure accounting must be a pure observer, and
    // the Little's-law identity must hold for every registered
    // resource -- the incrementally accumulated occupancy integral
    // and the timestamp-sum derivation disagree the moment any
    // component misses or double-counts a transition.
    RunSpec pressured = audited;
    pressured.obs.backpressure = true;
    const RunResult observed = runOnce(pressured);
    if (!sameCounts(single, observed, "plain vs backpressure-observed",
                    &why)) {
        std::fprintf(stderr, "differential mismatch: %s\n",
                     why.c_str());
        _exit(kOracleExit);
    }
    if (observed.backpressure.littleViolations != 0) {
        std::fprintf(stderr,
                     "Little's-law identity: %llu of %zu resources "
                     "have mismatched occupancy integrals\n",
                     static_cast<unsigned long long>(
                         observed.backpressure.littleViolations),
                     observed.backpressure.resources.size());
        _exit(kOracleExit);
    }

    // Oracle 7: tenancy staleness. The audited run (oracle 2) already
    // carries the heavy machinery -- installs are revalidated against
    // the page table, the auditor's shootdown ledger demands
    // exactly-once acks, and the end-of-run sweep panics on any cached
    // translation that survived its shootdown. What remains checkable
    // here is the round and fault conservation: every shootdown round
    // opened must have closed, and every not-present fault enqueued
    // must have been serviced (an op blocked on a fault cannot retire,
    // so a finished run implies a drained fault queue).
    if (single.shootdownRounds != single.shootdownRoundsClosed) {
        std::fprintf(stderr,
                     "staleness oracle: %llu shootdown rounds issued "
                     "but %llu closed\n",
                     static_cast<unsigned long long>(
                         single.shootdownRounds),
                     static_cast<unsigned long long>(
                         single.shootdownRoundsClosed));
        _exit(kOracleExit);
    }
    if (single.pageFaults != single.faultsServiced) {
        std::fprintf(stderr,
                     "staleness oracle: %llu IOMMU faults enqueued "
                     "but %llu serviced\n",
                     static_cast<unsigned long long>(single.pageFaults),
                     static_cast<unsigned long long>(
                         single.faultsServiced));
        _exit(kOracleExit);
    }

    _exit(0);
}

/** Drain @p fd to a string (the child's stderr). */
std::string
drainPipe(int fd)
{
    std::string out;
    char buf[4096];
    for (;;) {
        const ssize_t n = read(fd, buf, sizeof(buf));
        if (n > 0) {
            out.append(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        return out;
    }
}

/** Last few lines of the child's stderr, for the failure reason. */
std::string
tailOf(const std::string &text, std::size_t max_bytes = 1200)
{
    if (text.size() <= max_bytes)
        return text;
    return "..." + text.substr(text.size() - max_bytes);
}

} // namespace

const char *
fuzzOutcomeKindName(FuzzOutcome::Kind kind)
{
    switch (kind) {
      case FuzzOutcome::Kind::Pass:
        return "pass";
      case FuzzOutcome::Kind::UnexpectedFatal:
        return "unexpected-fatal";
      case FuzzOutcome::Kind::UnexpectedClean:
        return "unexpected-clean";
      case FuzzOutcome::Kind::OracleViolation:
        return "oracle-violation";
      case FuzzOutcome::Kind::Crash:
        return "crash";
      case FuzzOutcome::Kind::Hang:
        return "hang";
    }
    return "unknown";
}

FuzzOutcome
runFuzzCase(const FuzzCase &c, unsigned timeout_seconds)
{
    const RunSpec spec = c.toSpec();
    const bool predictedValid = validationErrors(spec).empty();

    int fds[2];
    if (pipe(fds) != 0)
        return {FuzzOutcome::Kind::Crash, "pipe() failed in harness"};

    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        return {FuzzOutcome::Kind::Crash, "fork() failed in harness"};
    }
    if (pid == 0) {
        // Child: stderr (fatal/panic text) goes to the parent's pipe,
        // stdout is noise. SIGALRM's default action terminates the
        // process, which the parent reads as a hang.
        close(fds[0]);
        dup2(fds[1], STDERR_FILENO);
        const int devnull = open("/dev/null", O_WRONLY);
        if (devnull >= 0)
            dup2(devnull, STDOUT_FILENO);
        alarm(timeout_seconds);
        childRun(spec);
    }

    close(fds[1]);
    // Drain before waiting, or a chatty child blocks on a full pipe.
    const std::string childErr = drainPipe(fds[0]);
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }

    FuzzOutcome outcome;
    const std::string tail = tailOf(childErr);
    if (WIFSIGNALED(status)) {
        const int sig = WTERMSIG(status);
        if (sig == SIGALRM) {
            outcome.kind = FuzzOutcome::Kind::Hang;
            outcome.reason = "no completion within " +
                             std::to_string(timeout_seconds) +
                             "s\n" + tail;
        } else {
            outcome.kind = FuzzOutcome::Kind::Crash;
            outcome.reason =
                "terminated by signal " + std::to_string(sig) +
                (sig == SIGABRT ? " (abort -- simulator panic?)" : "") +
                "\n" + tail;
        }
        return outcome;
    }

    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    if (code == 0) {
        if (predictedValid)
            return outcome; // Pass.
        outcome.kind = FuzzOutcome::Kind::UnexpectedClean;
        outcome.reason =
            "validationErrors() predicted failure but the run "
            "completed cleanly; first predicted error: " +
            validationErrors(spec).front();
        return outcome;
    }
    if (code == 1) {
        if (!predictedValid)
            return outcome; // Fail-fast as predicted: pass.
        outcome.kind = FuzzOutcome::Kind::UnexpectedFatal;
        outcome.reason =
            "validationErrors() predicted success but the run "
            "fataled:\n" + tail;
        return outcome;
    }
    if (code == kOracleExit) {
        outcome.kind = FuzzOutcome::Kind::OracleViolation;
        outcome.reason = tail;
        return outcome;
    }
    outcome.kind = FuzzOutcome::Kind::Crash;
    outcome.reason =
        "unexpected exit code " + std::to_string(code) + "\n" + tail;
    return outcome;
}

} // namespace hdpat
