/**
 * @file
 * `fleet`: sweepPopulation on one family over many module instances,
 * one victim per subarray, RowHammer only, checkpointing into a fresh
 * directory.  One unit is one HC_first search.
 */

#include <sys/inotify.h>
#include <sys/stat.h>
#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "hammer/population.h"
#include "harness.h"

namespace pudbench {

namespace {

using pud::hammer::ModuleTester;
using pud::hammer::PopulationConfig;

constexpr const char *kCheckpointName = "fleet.popckpt";

/**
 * Counts checkpoint commits from outside the program: every commit is
 * an atomic rename onto the checkpoint path, which inotify reports as
 * IN_MOVED_TO.  The committed size is read at each rename.
 */
class CommitWatcher
{
  public:
    explicit CommitWatcher(const std::string &dir)
        : fd_(inotify_init1(IN_NONBLOCK)), dir_(dir)
    {
        if (fd_ >= 0 && inotify_add_watch(fd_, dir.c_str(), IN_MOVED_TO) >= 0)
            thread_ = std::thread([this] { loop(); });
    }

    ~CommitWatcher()
    {
        finish();
        if (fd_ >= 0)
            close(fd_);
    }

    CommitWatcher(const CommitWatcher &) = delete;
    CommitWatcher &operator=(const CommitWatcher &) = delete;

    /** Stop watching after draining pending events. */
    void
    finish()
    {
        stop_ = true;
        if (thread_.joinable())
            thread_.join();
    }

    std::uint64_t commits() const { return commits_; }
    std::uint64_t bytes() const { return bytes_; }

  private:
    void
    loop()
    {
        alignas(inotify_event) char buf[4096];
        for (;;) {
            const bool last = stop_;
            pollfd pfd{fd_, POLLIN, 0};
            poll(&pfd, 1, last ? 0 : 5);
            ssize_t n = 0;
            while ((n = read(fd_, buf, sizeof buf)) > 0) {
                for (char *p = buf; p < buf + n;) {
                    const auto *ev = reinterpret_cast<inotify_event *>(p);
                    if (ev->len > 0 &&
                        std::string(ev->name) == kCheckpointName) {
                        ++commits_;
                        struct stat st{};
                        const std::string path =
                            dir_ + "/" + kCheckpointName;
                        if (stat(path.c_str(), &st) == 0)
                            bytes_ += static_cast<std::uint64_t>(
                                st.st_size);
                    }
                    p += sizeof(inotify_event) + ev->len;
                }
            }
            if (last)
                return;
        }
    }

    int fd_;
    std::string dir_;
    std::atomic<bool> stop_{false};
    std::uint64_t commits_ = 0;
    std::uint64_t bytes_ = 0;
    std::thread thread_;
};

class Fleet : public Workload
{
  public:
    explicit Fleet(const WorkloadParams &p) : p_(p)
    {
        cfg_.moduleId = "HMA81GU7AFR8N-UH";
        cfg_.modules = p.scale == Scale::Full ? 4000 : 24;
        cfg_.victimsPerSubarray = 1;
        cfg_.rowsPerSubarray = 128;
        cfg_.seed = p.seed;
        cfg_.jobs = p.jobs;
        // bench_population_scale's budget: fleet sweeps trade the
        // paper's 700K ceiling for throughput.
        opt_.search.maxHammers = 100000;
        dir_ = p.workdir + "/fleet";
    }

    void
    setup() override
    {
        const auto victims = pud::hammer::populationVictims(cfg_);
        pud::hammer::planPopulationShards(cfg_, victims.size());
        pud::hammer::populationFingerprint(cfg_, 1);
        // sweepPopulation keeps one tester per worker and resets it
        // for every module.
        for (int j = 0; j < p_.jobs; ++j)
            const ModuleTester tester(
                pud::hammer::populationDeviceConfig(cfg_, j));
    }

    BatchResult
    run(LayerSheet *sheet) override
    {
        Spans spans;
        Spans *sp = sheet != nullptr ? &spans : nullptr;
        const std::vector<pud::hammer::MeasureFn> measures = {
            [&](ModuleTester &t, pud::dram::RowId v) {
                return spanned(sp, "hammer.search",
                               [&] { return t.rhDouble(v, opt_); });
            }};

        freshDir();
        pud::hammer::SweepOptions sopt;
        sopt.checkpointPath = dir_ + "/" + kCheckpointName;
        std::unique_ptr<CommitWatcher> watcher;
        if (sheet != nullptr)
            watcher = std::make_unique<CommitWatcher>(dir_);

        BatchResult out;
        const auto start = Clock::now();
        const pud::hammer::SweepResult r =
            pud::hammer::sweepPopulation(cfg_, measures, sopt);
        out.wallSeconds = secondsSince(start);
        if (watcher)
            watcher->finish();

        const std::uint64_t searches =
            static_cast<std::uint64_t>(cfg_.modules) *
            pud::hammer::populationVictims(cfg_).size();
        out.units = searches;
        out.failedUnits = check(r, sopt, searches);

        Digest digest;
        for (const auto &s : r.sketches)
            digest.str(s.serialize());
        out.digest = digest.value();

        if (sheet != nullptr) {
            std::vector<double> shard_seconds;
            double acts = 0.0;
            for (const auto &s : r.telemetry.shards) {
                shard_seconds.push_back(s.seconds);
                acts += static_cast<double>(s.acts);
            }
            addExecLayers(shard_seconds, r.telemetry.wallSeconds,
                          p_.jobs, *sheet);
            addSearchLayers(spans, *sheet);
            (*sheet)["hammer.checkpoint_commits"] =
                static_cast<double>(watcher->commits());
            (*sheet)["hammer.checkpoint_bytes"] =
                static_cast<double>(watcher->bytes());
            (*sheet)["dram.acts"] = acts;
            (*sheet)["dram.populated_rows_max"] =
                static_cast<double>(r.telemetry.maxPopulatedRows());
        }
        std::filesystem::remove_all(dir_);
        return out;
    }

  private:
    void
    freshDir()
    {
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }

    /**
     * The sketch accounts for every search, holds only in-budget
     * HCs, and the checkpoint on disk reproduces it bit for bit.
     */
    std::uint64_t
    check(const pud::hammer::SweepResult &r,
          const pud::hammer::SweepOptions &sopt,
          std::uint64_t searches) const
    {
        if (r.sketches.size() != 1 || r.resumedShards != 0)
            return searches;
        const pud::stats::SampleSketch &sk = r.sketches[0];
        if (sk.count() + sk.dropped() != searches)
            return searches;
        if (sk.count() > 0 &&
            !(sk.min() >= 1.0 &&
              sk.max() <= static_cast<double>(opt_.search.maxHammers)))
            return searches;

        const auto records = pud::hammer::loadCheckpointRecords(
            sopt.checkpointPath,
            pud::hammer::populationFingerprint(cfg_, 1), 1,
            r.totalShards);
        if (records.size() != r.totalShards)
            return searches;
        pud::stats::SampleSketch merged(sopt.sketchAlpha);
        for (const auto &[index, rec] : records)
            merged.merge(rec.sketches.at(0));
        return merged == sk && merged.serialize() == sk.serialize()
                   ? 0
                   : searches;
    }

    WorkloadParams p_;
    PopulationConfig cfg_;
    ModuleTester::Options opt_;
    std::string dir_;
};

} // namespace

std::unique_ptr<Workload>
makeFleet(const WorkloadParams &p)
{
    return std::make_unique<Fleet>(p);
}

} // namespace pudbench
