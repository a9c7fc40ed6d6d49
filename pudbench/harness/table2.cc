/**
 * @file
 * `table2`: measurePopulation over all 14 Table 2 families with the
 * paired RowHammer / CoMRA / SiMRA double-sided searches, as
 * bench_table2 runs by default.  One unit is one HC_first search.
 */

#include <algorithm>
#include <cmath>

#include "dram/config.h"
#include "hammer/experiment.h"
#include "harness.h"

namespace pudbench {

namespace {

using pud::hammer::MeasureFn;
using pud::hammer::ModuleTester;
using pud::hammer::PopulationConfig;

class Table2 : public Workload
{
  public:
    explicit Table2(const WorkloadParams &p) : p_(p)
    {
        for (const auto &family : pud::dram::table2Families()) {
            PopulationConfig cfg;
            cfg.moduleId = family.moduleId;
            cfg.modules = std::min(family.numModules,
                                   p.scale == Scale::Full ? 2 : 1);
            cfg.victimsPerSubarray = p.scale == Scale::Full ? 8 : 1;
            // SiMRA needs sandwichable victims; every technique uses
            // the same odd victims so the comparison stays paired.
            cfg.oddOnly = family.supportsSimra;
            cfg.seed = p.seed;
            cfg.rowsPerSubarray = 128;
            cfg.jobs = p.jobs;
            configs_.push_back(cfg);
            simra_.push_back(family.supportsSimra);
        }
        opt_.searchWcdp = true;
    }

    void
    setup() override
    {
        for (const PopulationConfig &cfg : configs_) {
            const auto victims = pud::hammer::populationVictims(cfg);
            for (const auto &shard :
                 pud::hammer::planPopulationShards(cfg, victims.size()))
                const ModuleTester tester(
                    pud::hammer::populationDeviceConfig(cfg, shard.module));
        }
    }

    BatchResult
    run(LayerSheet *sheet) override
    {
        Spans spans;
        Spans *sp = sheet != nullptr ? &spans : nullptr;
        BatchResult out;
        Digest digest;
        std::vector<double> shard_seconds;
        double wall = 0.0, acts = 0.0, populated = 0.0;

        for (std::size_t f = 0; f < configs_.size(); ++f) {
            const PopulationConfig &cfg = configs_[f];
            std::vector<MeasureFn> measures = {
                [&](ModuleTester &t, pud::dram::RowId v) {
                    return spanned(sp, "hammer.search",
                                   [&] { return t.rhDouble(v, opt_); });
                },
                [&](ModuleTester &t, pud::dram::RowId v) {
                    return spanned(sp, "hammer.search", [&] {
                        return t.comraDouble(v, opt_);
                    });
                },
            };
            if (simra_[f]) {
                measures.push_back(
                    [&](ModuleTester &t, pud::dram::RowId v) {
                        return spanned(sp, "hammer.search", [&] {
                            return t.simraDouble(v, 4, opt_);
                        });
                    });
            }

            pud::hammer::PopulationTelemetry tel;
            const auto start = Clock::now();
            const auto series =
                pud::hammer::measurePopulation(cfg, measures, &tel);
            out.wallSeconds += secondsSince(start);

            const std::size_t slots =
                static_cast<std::size_t>(cfg.modules) *
                pud::hammer::populationVictims(cfg).size();
            out.units += slots * measures.size();
            digest.str(cfg.moduleId);
            for (const auto &s : series) {
                if (s.size() != slots)
                    out.failedUnits += slots;
                for (double hc : s) {
                    digest.f64(std::isnan(hc) ? -1.0 : hc);
                    // Every HC is a flip within budget or a no-flip.
                    if (!std::isnan(hc) &&
                        !(hc >= 1.0 &&
                          hc <= static_cast<double>(
                                    opt_.search.maxHammers)))
                        ++out.failedUnits;
                }
            }

            for (const auto &r : tel.shards) {
                shard_seconds.push_back(r.seconds);
                acts += static_cast<double>(r.acts);
            }
            wall += tel.wallSeconds;
            populated = std::max(
                populated, static_cast<double>(tel.maxPopulatedRows()));
        }
        out.digest = digest.value();

        if (sheet != nullptr) {
            addExecLayers(shard_seconds, wall, p_.jobs, *sheet);
            addSearchLayers(spans, *sheet);
            (*sheet)["dram.acts"] = acts;
            (*sheet)["dram.populated_rows_max"] = populated;
        }
        return out;
    }

  private:
    WorkloadParams p_;
    std::vector<PopulationConfig> configs_;
    std::vector<bool> simra_;
    ModuleTester::Options opt_;
};

} // namespace

std::unique_ptr<Workload>
makeTable2(const WorkloadParams &p)
{
    return std::make_unique<Table2>(p);
}

} // namespace pudbench
