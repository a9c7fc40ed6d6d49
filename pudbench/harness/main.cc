/**
 * @file
 * pudbench: runs one benchmark workload for a fixed time and prints
 * one JSON line with its metrics (run.py adds units and the verdict).
 *
 *   pudbench --workload=table2|fleet|fuzz|mitigate --seed=N
 *            --seconds=S --trace=0|1 [--scale=full|tiny] [--jobs=N]
 *            [--workdir=DIR] [--digests=FILE] [--corrupt-digest]
 *
 * --trace=0 reports the end-to-end metrics from untraced batches.
 * --trace=1 alternates untraced and traced batches and reports the
 * per-layer sheet (medians over traced batches) plus the tracing
 * overhead.  Every batch of a run must reproduce the run's first
 * digest, and the recorded digest when FILE has one for this
 * (workload, scale, seed); a batch that does not counts all its units
 * as failed.  --corrupt-digest flips one bit of the expected digest,
 * to show that a mismatch reaches pass_rate.
 */

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>

#include "exec/pool.h"
#include "harness.h"
#include "util/args.h"
#include "util/logging.h"

using namespace pudbench;

namespace {

std::optional<std::uint64_t>
recordedDigest(const std::string &path, const std::string &workload,
               const std::string &scale, std::uint64_t seed)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string w, s, hex;
        std::uint64_t sd = 0;
        if (!(ls >> w >> s >> sd >> hex))
            pud::fatal("%s: malformed line '%s'", path.c_str(),
                       line.c_str());
        if (w == workload && s == scale && sd == seed)
            return std::stoull(hex, nullptr, 16);
    }
    return std::nullopt;
}

/**
 * Peak resident memory of this process image.  getrusage's ru_maxrss
 * would carry the launching process's peak across execve on Linux, so
 * this reads the address space's own high-water mark instead.
 */
double
peakRssMib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;  // kB
    pud::fatal("no VmHWM in /proc/self/status");
}

void
printMetric(bool &first, const std::string &name, double value)
{
    std::printf("%s\"%s\":%.17g", first ? "" : ",", name.c_str(), value);
    first = false;
}

} // namespace

int
main(int argc, char **argv)
{
    const pud::Args args(argc, argv);
    const std::string workload = args.get("workload");
    const std::string scale_name = args.get("scale", "full");
    const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    const double seconds = args.getDouble("seconds", 10.0);
    const bool trace = args.getInt("trace", 0) != 0;
    if (scale_name != "full" && scale_name != "tiny")
        pud::fatal("--scale=%s: expected full or tiny", scale_name.c_str());

    WorkloadParams p;
    p.scale = scale_name == "full" ? Scale::Full : Scale::Tiny;
    p.seed = seed;
    // At most four threads: the figures stay comparable across hosts
    // with four or more cores.
    p.jobs = static_cast<int>(args.getInt(
        "jobs", std::min(4, pud::exec::resolveJobs(0))));
    p.workdir = args.get("workdir", ".bench_work");

    std::unique_ptr<Workload> w;
    if (workload == "table2")
        w = makeTable2(p);
    else if (workload == "fleet")
        w = makeFleet(p);
    else if (workload == "fuzz")
        w = makeFuzz(p);
    else if (workload == "mitigate")
        w = makeMitigate(p);
    else
        pud::fatal("--workload=%s: expected table2, fleet, fuzz or "
                   "mitigate", workload.c_str());

    // ---- set-up, several times: its median is setup_s --------------
    // A set-up can take microseconds, so each sample repeats it for
    // about 20 ms and reports the time per set-up.  Like a batch, a
    // round of samples runs on every job thread at once: a single
    // thread's timing swings with the state of the one core it lands
    // on.  Rounds run up front and before every batch, so they see the
    // same host conditions as the batches do.
    const auto probe = Clock::now();
    w->setup();
    const int reps = static_cast<int>(std::clamp(
        0.02 / std::max(secondsSince(probe), 1e-9), 1.0, 1e5));
    std::vector<double> setups;
    std::mutex setups_mu;
    const auto sampleSetup = [&] {
        pud::exec::parallelFor(p.jobs, static_cast<std::size_t>(p.jobs),
                               [&](std::size_t) {
            const auto start = Clock::now();
            for (int r = 0; r < reps; ++r)
                w->setup();
            const double each = secondsSince(start) / reps;
            const std::lock_guard<std::mutex> lock(setups_mu);
            setups.push_back(each);
        });
    };
    for (int i = 0; i < 5; ++i)
        sampleSetup();

    // ---- measured batches ------------------------------------------
    std::vector<double> untraced_walls, traced_walls, rates;
    std::vector<LayerSheet> sheets;
    std::vector<BatchResult> batches;
    double peak_rss_mib = 0.0;
    const auto run_start = Clock::now();
    do {
        sampleSetup();
        BatchResult r = w->run(nullptr);
        untraced_walls.push_back(r.wallSeconds);
        rates.push_back(ratio(static_cast<double>(r.units), r.wallSeconds));
        batches.push_back(r);
        // Peak memory of set-up plus one batch: later batches repeat
        // the same work, and what they add is allocator reuse noise.
        if (batches.size() == 1)
            peak_rss_mib = peakRssMib();
        if (trace) {
            pud::obs::metrics().reset();
            pud::obs::metrics().setEnabled(true);
            LayerSheet sheet;
            BatchResult t = w->run(&sheet);
            pud::obs::metrics().setEnabled(false);
            addObsLayers(pud::obs::metrics().snapshot(), sheet);
            traced_walls.push_back(t.wallSeconds);
            sheets.push_back(std::move(sheet));
            batches.push_back(t);
        }
    } while (secondsSince(run_start) < seconds);

    // ---- output check ----------------------------------------------
    std::optional<std::uint64_t> expected;
    if (args.has("digests"))
        expected = recordedDigest(args.get("digests"), workload,
                                  scale_name, seed);
    const bool recorded = expected.has_value();
    if (!expected)
        expected = batches.front().digest;
    if (args.has("corrupt-digest"))
        *expected ^= 1;
    std::uint64_t attempted = 0, failed = 0;
    for (const BatchResult &b : batches) {
        attempted += b.units;
        failed += b.digest == *expected ? b.failedUnits : b.units;
    }
    std::fprintf(stderr,
                 "pudbench: %s scale=%s seed=%" PRIu64 " jobs=%d: %zu "
                 "batches, digest %016" PRIx64 " (%s), %" PRIu64
                 "/%" PRIu64 " units failed\n",
                 workload.c_str(), scale_name.c_str(), seed, p.jobs,
                 batches.size(), batches.front().digest,
                 recorded ? "recorded" : "not recorded", failed,
                 attempted);
    std::fprintf(stderr, "pudbench: untraced units/s per batch:");
    for (double r : rates)
        std::fprintf(stderr, " %.4g", r);
    std::fprintf(stderr, "\n");
    std::fprintf(stderr, "digest %s %s %" PRIu64 " %016" PRIx64 "\n",
                 workload.c_str(), scale_name.c_str(), seed,
                 batches.front().digest);

    // ---- result line -----------------------------------------------
    std::printf("{\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
                ",\"metrics\":{",
                attempted, failed);
    bool first = true;
    if (!trace) {
        printMetric(first, "units_per_s", median(rates));
        printMetric(first, "setup_s", median(setups));
        printMetric(first, "peak_rss_mib", peak_rss_mib);
        printMetric(first, "pass_rate",
                    1.0 - ratio(static_cast<double>(failed),
                                static_cast<double>(attempted)));
    } else {
        const double untraced = median(untraced_walls);
        for (LayerSheet &s : sheets) {
            s["dram.acts_per_host_s"] = ratio(s["dram.acts"], untraced);
            s["obs.trace_overhead"] =
                ratio(median(traced_walls), untraced) - 1.0;
        }
        for (const std::string &name : layerMetricNames()) {
            std::vector<double> v;
            for (const LayerSheet &s : sheets) {
                const auto it = s.find(name);
                v.push_back(it == s.end() ? 0.0 : it->second);
            }
            printMetric(first, name, median(v));
        }
    }
    std::printf("}}\n");
    return 0;
}
