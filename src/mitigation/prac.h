/**
 * @file
 * Per Row Activation Counting (PRAC) adapted to PuDHammer (paper §8.2).
 *
 * PRAC (JEDEC DDR5, April 2024 update) keeps an activation counter per
 * row; when a counter reaches the read-disturbance threshold (RDT) the
 * device asserts the Alert/back-off signal and the memory controller
 * must issue RFM commands, during which the device preventively
 * refreshes the highest-count rows and resets their counters.
 *
 * The paper's adaptations:
 *  - PRAC-AO (area-optimized): a SiMRA op updates the N counters
 *    sequentially, blocking the bank for N * tRC;
 *  - PRAC-PO (performance-optimized): all N counters update at once;
 *  - weighted counting: a SiMRA op adds weight 200 and a CoMRA op
 *    weight 10 to each participating row's counter (the lowest
 *    observed HC_firsts are ~4K / ~400 / ~20 for RowHammer / CoMRA /
 *    SiMRA), letting the RDT stay at the RowHammer level instead of
 *    dropping to 20 for all traffic.
 */

#ifndef PUD_MITIGATION_PRAC_H
#define PUD_MITIGATION_PRAC_H

#include <cstdint>
#include <span>
#include <vector>

#include "dram/types.h"
#include "util/units.h"

namespace pud::mitigation {

using dram::BankId;
using dram::RowId;

/** PRAC configuration. */
struct PracConfig
{
    /** Counter value that asserts back-off. */
    std::uint32_t rdt = 20;

    /** Weighted counting optimization (PRAC-PO-WC). */
    bool weighted = false;
    std::uint32_t simraWeight = 200;  //!< ~4K / 20
    std::uint32_t comraWeight = 10;   //!< ~4K / 400

    /** Area-optimized counter update (sequential, N * tRC). */
    bool areaOptimized = false;

    /** Rows refreshed (and counters reset) per RFM command. */
    int victimsPerRfm = 1;

    /** Row cycle time for the update-latency model. */
    Time tRC = units::fromNs(46.0);
};

/** Per-bank PRAC counter array with the paper's multi-update methods. */
class PracCounters
{
  public:
    PracCounters(const PracConfig &cfg, BankId banks, RowId rows_per_bank);

    /** Conventional ACT: +1.  @return true if back-off asserts. */
    bool onActivate(BankId bank, RowId row);

    /** CoMRA copy cycle: both rows updated (+comraWeight if weighted,
     *  else +1 each). */
    bool onComra(BankId bank, RowId src, RowId dst);

    /** SiMRA op: every activated row updated (+simraWeight or +1). */
    bool onSimra(BankId bank, std::span<const RowId> rows);

    /**
     * Per-close view (mitsem.h): every row of one close event bumped
     * by pracCloseWeight(cls).  A CoMRA copy reaches the counters as
     * two one-row Comra closes (src, then dst), which lands on the
     * same totals as one onComra() call.
     */
    bool onClose(BankId bank, std::span<const RowId> rows,
                 dram::TechClass cls);

    /**
     * Extra bank-blocking latency of the counter update beyond a
     * normal activation: zero for PRAC-PO (counters update in
     * parallel with the row cycle), (n-1) * tRC for PRAC-AO.
     */
    Time updateLatency(int rows_updated) const;

    /**
     * Serve one RFM: refresh the victimsPerRfm highest-count rows of
     * the bank and reset their counters.  @return rows refreshed;
     * their row ids are appended to *refreshed when non-null.
     */
    int onRfm(BankId bank, std::vector<RowId> *refreshed = nullptr);

    /** True while any counter in the bank is at/above the RDT; O(1). */
    bool alertPending(BankId bank) const;

    std::uint32_t counter(BankId bank, RowId row) const;
    const PracConfig &config() const { return cfg_; }

  private:
    bool bump(BankId bank, RowId row, std::uint32_t amount);

    struct Bank
    {
        std::vector<std::uint32_t> counters;

        /** Counters at/above the RDT, kept in step by bump() and
         *  onRfm() so the alert check needs no scan. */
        std::size_t atRdt = 0;
    };

    PracConfig cfg_;
    RowId rowsPerBank_;
    std::vector<Bank> banks_;
};

} // namespace pud::mitigation

#endif // PUD_MITIGATION_PRAC_H
