#include "mitigation/prac.h"

#include <algorithm>

#include "mitigation/mitsem.h"
#include "util/logging.h"

namespace pud::mitigation {

PracCounters::PracCounters(const PracConfig &cfg, BankId banks,
                           RowId rows_per_bank)
    : cfg_(cfg), rowsPerBank_(rows_per_bank),
      banks_(banks, Bank{std::vector<std::uint32_t>(rows_per_bank, 0)})
{
    if (cfg.rdt == 0)
        fatal("PracCounters: RDT must be positive");
}

bool
PracCounters::bump(BankId bank, RowId row, std::uint32_t amount)
{
    Bank &b = banks_.at(bank);
    auto &c = b.counters.at(row);
    const bool was = c >= cfg_.rdt;
    c += amount;
    const bool now = c >= cfg_.rdt;
    if (now != was)
        now ? ++b.atRdt : --b.atRdt;
    return now;
}

bool
PracCounters::onActivate(BankId bank, RowId row)
{
    return bump(bank, row, 1);
}

bool
PracCounters::onComra(BankId bank, RowId src, RowId dst)
{
    const std::uint32_t w = pracCloseWeight(cfg_, dram::TechClass::Comra);
    const bool a = bump(bank, src, w);
    const bool b = bump(bank, dst, w);
    return a || b;
}

bool
PracCounters::onSimra(BankId bank, std::span<const RowId> rows)
{
    const std::uint32_t w = pracCloseWeight(cfg_, dram::TechClass::Simra);
    bool alert = false;
    for (RowId r : rows)
        alert |= bump(bank, r, w);
    return alert;
}

bool
PracCounters::onClose(BankId bank, std::span<const RowId> rows,
                      dram::TechClass cls)
{
    const std::uint32_t w = pracCloseWeight(cfg_, cls);
    bool alert = false;
    for (RowId r : rows)
        alert |= bump(bank, r, w);
    return alert;
}

Time
PracCounters::updateLatency(int rows_updated) const
{
    if (!cfg_.areaOptimized || rows_updated <= 1)
        return 0;
    return static_cast<Time>(rows_updated - 1) * cfg_.tRC;
}

int
PracCounters::onRfm(BankId bank, std::vector<RowId> *refreshed_rows)
{
    Bank &b = banks_.at(bank);
    auto &c = b.counters;
    int refreshed = 0;
    for (int k = 0; k < cfg_.victimsPerRfm; ++k) {
        auto it = std::max_element(c.begin(), c.end());
        if (it == c.end() || *it == 0)
            break;
        if (refreshed_rows != nullptr)
            refreshed_rows->push_back(
                static_cast<RowId>(it - c.begin()));
        if (*it >= cfg_.rdt)
            --b.atRdt;
        *it = 0;
        ++refreshed;
    }
    return refreshed;
}

bool
PracCounters::alertPending(BankId bank) const
{
    return banks_.at(bank).atRdt > 0;
}

std::uint32_t
PracCounters::counter(BankId bank, RowId row) const
{
    return banks_.at(bank).counters.at(row);
}

} // namespace pud::mitigation
