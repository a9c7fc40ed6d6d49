#include "harness.h"

namespace pudbench {

void
addObsLayers(const pud::obs::MetricsSnapshot &snap, LayerSheet &sheet)
{
    const double hits = counter(snap, "executor.plan_cache_hits");
    const double misses = counter(snap, "executor.plan_cache_misses");
    sheet["bender.programs"] = counter(snap, "executor.programs");
    sheet["bender.plan_compiles"] = misses;
    sheet["bender.plan_hit_ratio"] = ratio(hits, hits + misses);
    sheet["bender.fastpath_iterations"] =
        counter(snap, "executor.fastpath_iterations");
    sheet["bender.phase_breaks"] = counter(snap, "executor.phase_breaks");
    // Workloads with hooked runs add the strike-based fallbacks that
    // the executor only reports to its trace.
    sheet["bender.naive_fallbacks"] +=
        counter(snap, "executor.naive_fallbacks");
    sheet["dram.refs"] = counter(snap, "device.refs");
    sheet["dram.trr_evictions"] = counter(snap, "device.trr_evictions");
    sheet["dram.trr_refreshes"] = counter(snap, "device.trr_refreshes");
    // fuzz counts its own probes: measureBuiltHc's cheap-reject probe
    // runs outside findHcFirst and its counters.
    if (sheet.count("hammer.probes_per_search") == 0)
        sheet["hammer.probes_per_search"] =
            ratio(counter(snap, "hammer.hc_probes"),
                  counter(snap, "hammer.hc_searches"));
}

void
addExecLayers(const std::vector<double> &shard_seconds,
              double wall_seconds, int jobs, LayerSheet &sheet)
{
    double busy = 0.0;
    for (double s : shard_seconds)
        busy += s;
    sheet["exec.efficiency"] =
        ratio(busy, wall_seconds * static_cast<double>(jobs));
    sheet["exec.shard_s.p50"] = median(shard_seconds);
    sheet["exec.shard_s.max"] =
        shard_seconds.empty()
            ? 0.0
            : *std::max_element(shard_seconds.begin(),
                                shard_seconds.end());
}

void
addSearchLayers(const Spans &spans, LayerSheet &sheet)
{
    const std::vector<double> s = spans.durations("hammer.search");
    sheet["hammer.search_ms.p50"] = 1e3 * quantile(s, 0.50);
    sheet["hammer.search_ms.p99"] = 1e3 * quantile(s, 0.99);
}

const std::vector<std::string> &
layerMetricNames()
{
    static const std::vector<std::string> names = {
        "exec.efficiency",
        "exec.shard_s.p50",
        "exec.shard_s.max",
        "hammer.search_ms.p50",
        "hammer.search_ms.p99",
        "hammer.probes_per_search",
        "hammer.checkpoint_commits",
        "hammer.checkpoint_bytes",
        "bender.programs",
        "bender.plan_compiles",
        "bender.plan_hit_ratio",
        "bender.fastpath_iterations",
        "bender.phase_breaks",
        "bender.naive_fallbacks",
        "dram.acts",
        "dram.acts_per_host_s",
        "dram.refs",
        "dram.trr_evictions",
        "dram.trr_refreshes",
        "dram.populated_rows_max",
        "lint.summarize_us.p50",
        "lint.predict_us.p50",
        "lint.skip_ratio",
        "fuzz.generate_s",
        "fuzz.serial_share",
        "fuzz.effective_ratio",
        "fuzz.minimize_s",
        "mitigation.on_close_calls",
        "mitigation.on_close_ns",
        "mitigation.arm_s.none",
        "mitigation.arm_s.trr",
        "mitigation.arm_s.prac",
        "mitigation.arm_s.para",
        "mitigation.arm_s.graphene",
        "obs.trace_overhead",
    };
    return names;
}

} // namespace pudbench
