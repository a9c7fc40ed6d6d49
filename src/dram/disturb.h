/**
 * @file
 * The read-disturbance model: turns aggressor-row close events into
 * damage on neighbouring rows' weak cells.
 *
 * This is the calibrated substitute for real DRAM silicon.  Every
 * condition dependence the paper characterizes is a multiplicative
 * factor on the per-event damage:
 *
 *   damage += sideStrength * distanceWeight
 *             * F_tech * F_press(t_on) * F_temp * F_data * F_region
 *             * F_timing / (2 * baseHc(cell))
 *
 * normalized so that an alternating double-sided RowHammer at the
 * reference conditions flips the weakest cell after exactly baseHc
 * hammers per aggressor.  Factor magnitudes are calibrated to the
 * paper's observations; see DESIGN.md §4 for the anchor table.
 */

#ifndef PUD_DRAM_DISTURB_H
#define PUD_DRAM_DISTURB_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "dram/cell.h"
#include "dram/config.h"
#include "dram/datapattern.h"
#include "dram/types.h"
#include "util/units.h"

namespace pud::dram {

/** Context of one aggressor row (group) being closed. */
struct CloseEvent
{
    /** Sorted physical rows that were open together (1 for non-SiMRA). */
    std::vector<RowId> rows;

    TechClass cls = TechClass::Conventional;

    /** Number of simultaneously activated rows (SiMRA only). */
    int simraN = 1;

    /** How long the row (group) stayed open. */
    Time tOn = 0;

    /** Violated PRE->ACT gap of the CoMRA cycle (both halves). */
    Time comraDelay = 0;

    /**
     * The other operand of the copy cycle.  The CoMRA amplification is
     * local to the just-closed/just-opened wordline pair: it only
     * applies to victims near *both* operands, which is why
     * single-sided CoMRA behaves like far double-sided RowHammer
     * (paper Obs. 5).
     */
    RowId comraPartner = kNoRow;

    /** True when this close is the destination half of the cycle. */
    bool comraDstRole = false;

    /**
     * The aggressor's off-time (t_AggOFF) *preceding* this open: the
     * gap between the row's previous close and this activation.
     * Longer off-times strengthen conventional hammering (RowPress
     * companion effect; what makes far double-sided RowHammer and
     * single-sided CoMRA beat plain single-sided RowHammer, Obs. 5).
     */
    Time reopenGap = 0;

    /** SiMRA ACT->PRE / PRE->ACT gaps of the ACT-PRE-ACT open. */
    Time simraActToPre = 0;
    Time simraPreToAct = 0;
};

/**
 * Aggregate exposure of one victim row, for static prediction.
 *
 * Where CloseEvent describes one concrete close, AggregateExposure
 * describes the *sum* of a program's closes as seen by one victim:
 * adjacency-weighted event count plus the representative condition
 * factors (sidedness, on-time, timing-delay) shared by those events.
 */
struct AggregateExposure
{
    TechClass cls = TechClass::Conventional;

    /** Number of simultaneously activated rows (SiMRA only). */
    int simraN = 2;

    /**
     * Aggressor close events weighted by distance (1.0 at distance 1,
     * DeviceConfig::distance2Weight at distance 2) summed over the
     * program.
     */
    double weightedCloses = 0;

    /** Representative per-close aggressor on-time. */
    Time tOn = 0;

    /** CoMRA PRE->ACT copy delay (Comra class only). */
    Time comraDelay = 0;

    /** SiMRA ACT->PRE / PRE->ACT gaps (Simra class only). */
    Time simraActToPre = 0;
    Time simraPreToAct = 0;

    /** Aggressors on both sides (sandwich) vs one side only. */
    bool doubleSided = true;

    /** Victim's spatial region within its subarray. */
    Region region = Region::Middle;

    Celsius temperature = 80.0;
};

/**
 * Pure threshold fold: the fractional damage a victim cell whose
 * double-sided reference HC_first is `base_hc` accrues under an
 * aggregate exposure -- the same multiplicative factor chain
 * DisturbanceModel::applyClose walks, evaluated population-neutrally
 * (zero temperature slope, majority flip direction, unit data gain,
 * mean distance-1 split).  The cell reads flipped once the returned
 * value reaches 1.0.
 *
 * This is what the static effect predictor (pud::lint) folds a
 * program's per-row activation totals through, using the family's
 * Table 2 anchors as `base_hc`, so the prediction and the device agree
 * by construction.
 */
double foldThreshold(const DeviceConfig &cfg, const AggregateExposure &e,
                     double base_hc);

/** One recorded damage event, for the executor's loop fast-path. */
struct DamageDelta
{
    WeakCell *cell;
    float delta;
    TechClass cls;  //!< originating technique class
    bool reset;     //!< charge restoration (aggressor self-refresh, WR)
};

/** Damage events of one loop iteration, replayable k more times. */
using DamageRecord = std::vector<DamageDelta>;

/**
 * A DamageRecord folded per cell, once, so that scaled replay and
 * event-by-event re-application need no per-call lookup table.
 */
struct DamageNets
{
    struct Net
    {
        WeakCell *cell;
        /** Per-class deposit sums of the iteration, in record order
         *  (meaningless when `reset`). */
        std::array<float, 3> delta;
        /** The iteration restores the cell's charge: its damage after
         *  the iteration is a fixed point. */
        bool reset;
    };
    std::vector<Net> cells;            //!< one per cell, first-touch order
    std::vector<std::uint32_t> netOf;  //!< per record event: its entry

    static DamageNets fold(const DamageRecord &record);
};

/**
 * Applies close events to a bank's rows.  Owned by Device; its only
 * state beyond calibration constants is an optional recording sink
 * and a memo of the pure condition factors, which never changes a
 * result (a rebuilt model starts with an empty memo).
 */
class DisturbanceModel
{
  public:
    /** Fatal unless cfg.rowsPerSubarray is a power of two. */
    DisturbanceModel(const DeviceConfig &cfg);

    /**
     * Apply one close event to the rows of a bank.
     *
     * @param rows        the bank's physical row array
     * @param event       the closed aggressor context
     * @param temperature current chip temperature
     */
    void applyClose(std::vector<Row> &rows, const CloseEvent &event,
                    Celsius temperature);

    /** Start mirroring damage additions into a record. */
    void beginRecording() { recording_ = true; record_.clear(); }

    /** Stop mirroring and take the record. */
    DamageRecord
    endRecording()
    {
        recording_ = false;
        return std::move(record_);
    }

    /**
     * Re-apply a record's net per-iteration effect `times` more times.
     *
     * Per cell, one iteration is an affine map: if the cell was reset
     * during the iteration (it was activated/written, restoring its
     * charge), its post-iteration damage is a fixed point and further
     * iterations leave it unchanged; otherwise the iteration adds a
     * constant, which scales linearly with the remaining trip count.
     */
    static void replay(const DamageNets &nets, std::uint64_t times);

    /**
     * Apply a record `times` more times event by event: the same
     * deposit()/resetDamage() calls, in the same order, as the live
     * closes that produced it, so every float comes out identical.
     * Refuses (returns false, changing nothing) if a reset would land
     * on a flipped cell -- live, that restore would materialize the
     * flip into the row's data.
     */
    bool reapply(const DamageRecord &record, const DamageNets &nets,
                 std::uint64_t times);

    /**
     * Apply record events [begin, end) once, in order: each deposit as
     * the live close made it, each reset as resetDamage().  The caller
     * guarantees no reset lands on a flipped cell.
     */
    static void apply(const DamageRecord &record, std::size_t begin,
                      std::size_t end);

    /** Events recorded so far in the current recording. */
    std::size_t recordedEvents() const { return record_.size(); }

    /** Record a charge restoration while recording (no-op otherwise). */
    void
    noteReset(WeakCell &cell)
    {
        if (recording_)
            record_.push_back(
                {&cell, 0.0f, TechClass::Conventional, true});
    }

    // --- individual factors, exposed for unit tests -------------------

    /** Press gain vs t_AggOn for a technique class and SiMRA N. */
    double pressGain(TechClass cls, int simra_n, Time t_on) const;

    /** CoMRA PRE->ACT delay gain (1.0 at <= 7.5 ns). */
    double comraDelayGain(Time delay) const;

    /** SiMRA ACT->PRE / PRE->ACT timing gain. */
    double simraTimingGain(Time act_to_pre, Time pre_to_act) const;

    /** Temperature gain for a class (per-cell slope for conventional). */
    double tempGain(TechClass cls, int simra_n, Celsius temp,
                    const WeakCell &cell) const;

    /** Data-coupling gain given aggressor data and the victim bit. */
    double dataGain(const RowData &aggressor, ColId col,
                    bool victim_bit) const;

    /** Spatial region gain for a class. */
    double regionGain(TechClass cls, int simra_n, Region region) const;

    /** Aggressor off-time gain (conventional class only). */
    double offGain(Time reopen_gap) const;

    /** Region of a physical row within its subarray. */
    Region regionOf(RowId physical_row) const;

  private:
    /**
     * Deposit damage from a class: full amount into the class's own
     * accumulator, and a calibrated cross-transfer fraction into the
     * other classes whose flip direction matches (see
     * crossTransfer()).
     */
    void addDamage(WeakCell &cell, TechClass cls, float delta);

    /** Cross-class damage transfer coefficient. */
    static double crossTransfer(TechClass from, TechClass to);

    /** Apply one deposit (shared by live path and replay). */
    static void deposit(WeakCell &cell, TechClass cls, float delta);

    /** One (victim, aggressor) adjacency of a close event. */
    struct Contribution
    {
        RowId victim;
        RowId aggressor;
        int distance;
        int side;  //!< -1: aggressor below victim, +1: above
    };

    /**
     * Exact-key memo of one pure factor function.  Successive closes
     * of a hammer loop repeat the same few arguments, so a handful of
     * entries (round-robin replacement) answers almost every lookup;
     * keys compare with ==, so a hit returns the very double the
     * factor function computed for that key.
     */
    template <typename Key, std::size_t N = 4>
    struct FactorMemo
    {
        std::array<Key, N> keys;
        std::array<double, N> values;
        std::size_t size = 0;  //!< entries [0, size) are valid
        std::size_t next = 0;

        template <typename F>
        double
        get(const Key &key, F &&compute)
        {
            for (std::size_t i = 0; i < size; ++i)
                if (keys[i] == key)
                    return values[i];
            const double v = compute();
            keys[next] = key;
            values[next] = v;
            next = (next + 1) % N;
            size = std::min(size + 1, N);
            return v;
        }
    };

    /** The per-close factors of one effective technique class. */
    struct ClassFactors
    {
        double press = 0;   //!< pressGain(cls, simraN, tOn)
        double timing = 0;  //!< comraDelayGain / simraTimingGain / 1.0
        double off = 0;     //!< offGain(reopenGap) (conventional) or 1.0
        double temp = 0;    //!< class tempGain (non-conventional) or 1.0
    };

    /** Memoized factors of `cls` under `event` at `temperature`. */
    ClassFactors classFactors(TechClass cls, const CloseEvent &event,
                              Celsius temperature);

    /**
     * The DeviceConfig fields the factors read, copied out so that a
     * model (built per Device, per Device::reset and per static
     * prediction) copies no strings.
     */
    struct Calibration
    {
        Manufacturer mfr;
        bool trueAntiCells;
        double comraTempGain50To80;
        std::array<double, 5> simraTempGain50To80;
        std::array<double, kNumRegions> comraRegionGain;
        Time simraPartialActToPre;
        double distance2Weight;
        double singleSidedScale;
    };
    Calibration cal_;

    /** log2 / mask of the (power-of-two) rows per subarray. */
    unsigned subarrayShift_;
    RowId subarrayMask_;

    /** Memo keys; no initializers, so a model (built per Device and
     *  per reset) pays nothing for the empty memo. */
    struct ClassKey
    {
        TechClass cls;
        int simraN;
        Time tOn;
        bool operator==(const ClassKey &) const = default;
    };
    struct TempKey
    {
        TechClass cls;
        int simraN;
        Celsius temp;
        bool operator==(const TempKey &) const = default;
    };
    struct GapKey
    {
        Time actToPre;
        Time preToAct;
        bool operator==(const GapKey &) const = default;
    };

    FactorMemo<ClassKey> pressMemo_;
    FactorMemo<Time> comraDelayMemo_;
    FactorMemo<GapKey> simraTimingMemo_;
    FactorMemo<Time> offMemo_;
    FactorMemo<TempKey> tempMemo_;

    /**
     * Scratch for applyClose, reused across close events.  Every close
     * of a fleet sweep's hammer loop used to heap-allocate a fresh
     * contribution vector; at 10^5+ modules that allocation churn is
     * measurable, so the model keeps the buffer warm instead (cleared,
     * never shrunk).
     */
    std::vector<Contribution> contribScratch_;

    bool recording_ = false;
    DamageRecord record_;

    /** reapply()'s trial copies of the record's cells. */
    std::vector<WeakCell> reapplyScratch_;
};

} // namespace pud::dram

#endif // PUD_DRAM_DISTURB_H
