/**
 * @file
 * `mitigate`: fig24's TRR-bypass patterns on the SK Hynix 8Gb A-die,
 * each measured under five arms -- no mitigation, native TRR, PRAC,
 * PARA, Graphene -- through hammer::runTrrExperiment.  One unit is one
 * runTrrExperiment call.
 *
 * The traced batch wraps every mitigation hook in a forwarding hook
 * that counts and times onClose calls.  The executor reports its
 * strike-based naive fallback only to its trace; from outside it
 * shows as a hooked measured run that replayed no loop iteration.
 */

#include <optional>

#include "bender/executor.h"
#include "dram/config.h"
#include "exec/pool.h"
#include "hammer/experiment.h"
#include "harness.h"
#include "mitigation/countermeasures.h"

namespace pudbench {

namespace {

using pud::hammer::ModuleTester;
using pud::hammer::TrrTechnique;

enum class Arm
{
    None,
    Trr,
    Prac,
    Para,
    Graphene
};

constexpr Arm kArms[] = {Arm::None, Arm::Trr, Arm::Prac, Arm::Para,
                         Arm::Graphene};

const char *
armName(Arm a)
{
    switch (a) {
      case Arm::None: return "none";
      case Arm::Trr: return "trr";
      case Arm::Prac: return "prac";
      case Arm::Para: return "para";
      case Arm::Graphene: return "graphene";
    }
    return "?";
}

struct PatternSpec
{
    TrrTechnique tech;
    int param;  //!< nSided or simraN
};

/** Forwarding hook: counts and times onClose, watches the fast path. */
class CountingHook : public pud::dram::MitigationHook
{
  public:
    CountingHook(pud::dram::MitigationHook &inner,
                 const pud::bender::Executor &executor)
        : inner_(inner), executor_(executor)
    {}

    void
    onClose(pud::dram::BankId bank, const pud::dram::CloseEvent &event,
            std::vector<pud::dram::RowId> &refresh) override
    {
        if (calls_ == 0)
            itersAtFirstClose_ = executor_.stats().fastPathIterations;
        const auto start = Clock::now();
        inner_.onClose(bank, event, refresh);
        ns_ += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - start)
                .count());
        ++calls_;
    }

    std::uint64_t calls() const { return calls_; }
    std::uint64_t ns() const { return ns_; }

    /** The hooked run replayed nothing: every loop ran naively. */
    bool
    fellBack() const
    {
        return calls_ > 0 &&
               executor_.stats().fastPathIterations == itersAtFirstClose_;
    }

  private:
    pud::dram::MitigationHook &inner_;
    const pud::bender::Executor &executor_;
    std::uint64_t calls_ = 0;
    std::uint64_t ns_ = 0;
    std::uint64_t itersAtFirstClose_ = 0;
};

class Mitigate : public Workload
{
  public:
    explicit Mitigate(const WorkloadParams &p) : p_(p)
    {
        // fig24's default configs up to SiMRA-8, at TrrConfig's
        // default 60K hammers per aggressor: enough for every pattern
        // to flip bits unmitigated.
        if (p.scale == Scale::Full)
            patterns_ = {{TrrTechnique::RowHammer, 2},
                         {TrrTechnique::RowHammer, 4},
                         {TrrTechnique::Comra, 2},
                         {TrrTechnique::Comra, 4},
                         {TrrTechnique::Simra, 2},
                         {TrrTechnique::Simra, 4},
                         {TrrTechnique::Simra, 8}};
        else
            patterns_ = {{TrrTechnique::RowHammer, 2},
                         {TrrTechnique::Simra, 4}};
    }

    void
    setup() override
    {
        // Every cell builds its own tester and hook.
        for (std::size_t i = 0; i < patterns_.size(); ++i) {
            for (Arm a : kArms) {
                const pud::dram::DeviceConfig dcfg = deviceConfig();
                const ModuleTester tester(dcfg);
                Hooks hooks;
                hooks.make(a, dcfg);
            }
        }
    }

    BatchResult
    run(LayerSheet *sheet) override
    {
        const std::size_t arms = std::size(kArms);
        const std::size_t cells = patterns_.size() * arms;
        std::vector<std::uint64_t> flips(cells, 0), acts(cells, 0),
            populated(cells, 0), calls(cells, 0), ns(cells, 0),
            fallbacks(cells, 0);
        std::vector<double> seconds(cells, 0.0);

        BatchResult out;
        const auto start = Clock::now();
        pud::exec::parallelFor(p_.jobs, cells, [&](std::size_t ci) {
            const auto cell_start = Clock::now();
            const PatternSpec &pat = patterns_[ci / arms];
            const Arm arm = kArms[ci % arms];
            const pud::dram::DeviceConfig dcfg = deviceConfig();
            ModuleTester tester(dcfg);
            Hooks hooks;
            pud::dram::MitigationHook *hook = hooks.make(arm, dcfg);
            std::optional<CountingHook> counting;
            if (sheet != nullptr && hook != nullptr)
                hook = &counting.emplace(*hook,
                                         tester.bench().executor());

            pud::hammer::TrrConfig cfg;
            cfg.nSided = pat.param;
            cfg.simraN = pat.param;
            flips[ci] = pud::hammer::runTrrExperiment(
                tester, pat.tech, cfg, arm == Arm::Trr, hook);

            seconds[ci] = secondsSince(cell_start);
            acts[ci] = tester.device().counters().acts;
            populated[ci] = tester.device().populatedRowCount();
            if (counting) {
                calls[ci] = counting->calls();
                ns[ci] = counting->ns();
                fallbacks[ci] = counting->fellBack();
            }
        });
        out.wallSeconds = secondsSince(start);
        out.units = cells;

        // The unmitigated arm is identical everywhere it is measured:
        // across every batch of the run, traced or not.
        std::vector<std::uint64_t> none;
        for (std::size_t ci = 0; ci < cells; ci += arms)
            none.push_back(flips[ci]);
        if (noneReference_.empty())
            noneReference_ = none;
        else if (none != noneReference_)
            out.failedUnits = cells;

        Digest digest;
        for (std::size_t ci = 0; ci < cells; ++ci) {
            digest.u64(static_cast<std::uint64_t>(patterns_[ci / arms].tech));
            digest.u64(static_cast<std::uint64_t>(patterns_[ci / arms].param));
            digest.str(armName(kArms[ci % arms]));
            digest.u64(flips[ci]);
        }
        out.digest = digest.value();

        if (sheet != nullptr) {
            LayerSheet &s = *sheet;
            addExecLayers(seconds, out.wallSeconds, p_.jobs, s);
            std::uint64_t total_acts = 0, total_calls = 0, total_ns = 0,
                          total_fallbacks = 0, max_populated = 0;
            for (std::size_t ci = 0; ci < cells; ++ci) {
                total_acts += acts[ci];
                total_calls += calls[ci];
                total_ns += ns[ci];
                total_fallbacks += fallbacks[ci];
                max_populated = std::max(max_populated, populated[ci]);
                s[std::string("mitigation.arm_s.") +
                  armName(kArms[ci % arms])] += seconds[ci];
            }
            s["dram.acts"] = static_cast<double>(total_acts);
            s["dram.populated_rows_max"] = static_cast<double>(max_populated);
            s["mitigation.on_close_calls"] = static_cast<double>(total_calls);
            s["mitigation.on_close_ns"] =
                ratio(static_cast<double>(total_ns),
                      static_cast<double>(total_calls));
            s["bender.naive_fallbacks"] +=
                static_cast<double>(total_fallbacks);
        }
        return out;
    }

  private:
    /** Owns the concrete hook of one arm. */
    struct Hooks
    {
        std::optional<pud::mitigation::PracMitigation> prac;
        std::optional<pud::mitigation::ParaMitigation> para;
        std::optional<pud::mitigation::GrapheneMitigation> graphene;

        /** The close-driven hook of `arm`; null for none and TRR. */
        pud::dram::MitigationHook *
        make(Arm arm, const pud::dram::DeviceConfig &d)
        {
            switch (arm) {
              case Arm::Prac:
                return &prac.emplace(pud::mitigation::PracConfig{},
                                     d.banks, d.rowsPerBank(),
                                     d.rowsPerSubarray);
              case Arm::Para:
                return &para.emplace(pud::mitigation::ParaConfig{},
                                     d.rowsPerSubarray);
              case Arm::Graphene:
                return &graphene.emplace(
                    pud::mitigation::GrapheneConfig{}, d.banks,
                    d.rowsPerSubarray);
              case Arm::None:
              case Arm::Trr:
                return nullptr;
            }
            return nullptr;
        }
    };

    pud::dram::DeviceConfig
    deviceConfig() const
    {
        pud::dram::DeviceConfig d =
            pud::dram::makeConfig("HMA81GU7AFR8N-UH", p_.seed);
        d.rowsPerSubarray = 128;
        return d;
    }

    WorkloadParams p_;
    std::vector<PatternSpec> patterns_;
    std::vector<std::uint64_t> noneReference_;
};

} // namespace

std::unique_ptr<Workload>
makeMitigate(const WorkloadParams &p)
{
    return std::make_unique<Mitigate>(p);
}

} // namespace pudbench
