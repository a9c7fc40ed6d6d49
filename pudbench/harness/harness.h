/**
 * @file
 * Shared pieces of the repository benchmark: the workload interface,
 * in-memory spans, output digests, and the per-layer metric sheet.
 *
 * A workload runs one fixed *batch* of work per call.  The same seed
 * gives the same inputs, so every batch of a run must produce the same
 * digest; the main loop repeats batches for the requested time and
 * reports medians.  Untraced batches give the end-to-end numbers;
 * traced batches wrap calls into the program's public functions in
 * spans and read its counters (obs snapshot, ExecStats, ShardReport,
 * Device::counters) to fill the per-layer sheet.
 */

#ifndef PUDBENCH_HARNESS_H
#define PUDBENCH_HARNESS_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace pudbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Nearest-rank quantile of `v` (q in [0, 1]); 0 for an empty set. */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(v.size() - 1) + 0.5);
    return v[std::min(rank, v.size() - 1)];
}

inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** FNV-1a over everything a workload's output check covers. */
class Digest
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ULL;
        }
    }

    void u64(std::uint64_t v) { bytes(&v, sizeof v); }

    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void
    str(std::string_view s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/**
 * Span durations recorded by the benchmark around calls into the
 * program, kept in memory and summarized when the run ends.  Safe to
 * record from the pool's worker threads.
 */
class Spans
{
  public:
    void
    add(const std::string &name, double seconds)
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans_[name].push_back(seconds);
    }

    /** Durations of every span named `name`, in seconds. */
    std::vector<double>
    durations(const std::string &name) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = spans_.find(name);
        return it == spans_.end() ? std::vector<double>{} : it->second;
    }

    double
    total(const std::string &name) const
    {
        double t = 0.0;
        for (double d : durations(name))
            t += d;
        return t;
    }

  private:
    mutable std::mutex mu_;
    std::map<std::string, std::vector<double>> spans_;
};

/**
 * RAII span: records its lifetime under `name`.  A null Spans (an
 * untraced batch) makes it a no-op, so workloads share one code path.
 */
class Span
{
  public:
    Span(Spans *spans, const char *name)
        : spans_(spans), name_(name),
          start_(spans ? Clock::now() : Clock::time_point{})
    {}
    ~Span()
    {
        if (spans_ != nullptr)
            spans_->add(name_, secondsSince(start_));
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Spans *spans_;
    const char *name_;
    Clock::time_point start_;
};

/** Run `fn` inside a span and return its result. */
template <typename Fn>
auto
spanned(Spans *spans, const char *name, Fn &&fn)
{
    const Span span(spans, name);
    return fn();
}

/** The per-layer metric sheet of one traced batch. */
using LayerSheet = std::map<std::string, double>;

/** Value of obs counter `name` in `snap` (0 when never bumped). */
inline double
counter(const pud::obs::MetricsSnapshot &snap, std::string_view name)
{
    for (const auto &c : snap.counters)
        if (c.name == name)
            return static_cast<double>(c.value);
    return 0.0;
}

inline double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * Fill the sheet entries that come straight from the obs snapshot of
 * a traced batch: executor plan/fast-path counters, device REF/TRR
 * counters, and HC_first probes per search.
 */
void addObsLayers(const pud::obs::MetricsSnapshot &snap,
                  LayerSheet &sheet);

/**
 * exec.* from per-shard busy times: efficiency = busy / (wall x jobs),
 * plus the median and slowest shard.
 */
void addExecLayers(const std::vector<double> &shard_seconds,
                   double wall_seconds, int jobs, LayerSheet &sheet);

/** hammer.search_ms.{p50,p99} from "hammer.search" spans. */
void addSearchLayers(const Spans &spans, LayerSheet &sheet);

/** What one batch did and what its output check found. */
struct BatchResult
{
    std::uint64_t units = 0;        //!< work units attempted
    std::uint64_t failedUnits = 0;  //!< units failing an invariant
    std::uint64_t digest = 0;       //!< digest of every output
    double wallSeconds = 0.0;       //!< timed part of the batch
};

/** Sizes of one workload's batch. */
enum class Scale
{
    Full,  //!< the measured benchmark
    Tiny,  //!< self-check: every path, seconds of work
};

struct WorkloadParams
{
    Scale scale = Scale::Full;
    std::uint64_t seed = 1;
    int jobs = 1;
    std::string workdir;  //!< scratch space inside the checkout
};

/** One benchmark workload. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Everything the workload does before its first unit of work:
     * device configs, victim enumeration and shard plans, candidate
     * generation, device and hook construction.  Timed repeatedly for
     * setup_s, from several threads at once; it leaves no state behind.
     */
    virtual void setup() = 0;

    /**
     * Run one batch.  With `sheet` non-null the batch is traced:
     * spans and counters land in the sheet.  The obs registry is
     * already enabled and reset by the caller for traced batches.
     */
    virtual BatchResult run(LayerSheet *sheet) = 0;
};

std::unique_ptr<Workload> makeTable2(const WorkloadParams &p);
std::unique_ptr<Workload> makeFleet(const WorkloadParams &p);
std::unique_ptr<Workload> makeFuzz(const WorkloadParams &p);
std::unique_ptr<Workload> makeMitigate(const WorkloadParams &p);

/** Every per-layer metric name; untouched entries print as 0. */
const std::vector<std::string> &layerMetricNames();

} // namespace pudbench

#endif // PUDBENCH_HARNESS_H
