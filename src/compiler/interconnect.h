/**
 * @file
 * On-chip interconnect timing model for one worker thread's PE array.
 *
 * CoSMIC's template gives PEs three levels of connectivity (paper
 * Sec. 5.1): bi-directional links between adjacent PEs in a row, a
 * shared bus per row, and a tree bus across rows whose latency grows
 * logarithmically with distance. The tree bus is as wide as the PE
 * rows, so transfers in distinct column lanes proceed in parallel.
 *
 * The SingleShared variant models TABLA's flat interconnect: every
 * cross-PE transfer rides one shared bus whose arbitration latency
 * grows linearly with the PE count — the scalability bottleneck the
 * paper identifies (Sec. 7.2, Fig. 17).
 */
#pragma once

#include <bit>
#include <cstdint>
#include <cstdlib>

namespace cosmic::compiler {

/** Interconnect topology to model. */
enum class BusKind
{
    /** CoSMIC: neighbour links + per-row bus + per-column tree lanes. */
    Hierarchical,
    /** TABLA: one flat shared bus for all cross-PE traffic. */
    SingleShared,
};

/** One routed transfer: its latency and the shared resource it holds. */
struct Route
{
    /** Cycles from producer output to consumer input. */
    int64_t latency = 0;
    /** Contended bus id, or -1 for contention-free neighbour links. */
    int32_t bus = -1;
};

/** Routes transfers between PEs of one worker thread. */
class InterconnectModel
{
  public:
    InterconnectModel(BusKind kind, int columns, int rows_per_thread);

    /**
     * Routes a transfer; src == dst yields a free zero-cycle route.
     * Inline: the scheduler routes every cross-PE operand edge of every
     * design point.
     */
    Route
    route(int src_pe, int dst_pe) const
    {
        Route r;
        if (src_pe == dst_pe)
            return r;

        if (kind_ == BusKind::SingleShared) {
            // Flat arbitrated bus: the latency grows linearly with the
            // number of sharers (TABLA's scalability limiter);
            // transfers originate on the source group's bus segment.
            r.latency = 1 + numPes_ / 64;
            r.bus = src_pe / 64 % busCount_;
            return r;
        }

        const int src_row = src_pe / columns_;
        const int dst_row = dst_pe / columns_;
        const int src_col = src_pe % columns_;
        const int dst_col = dst_pe % columns_;

        if (src_row == dst_row) {
            if (std::abs(src_col - dst_col) == 1) {
                // Level 1: dedicated bi-directional neighbour link.
                r.latency = 1;
                r.bus = -1;
            } else {
                // Level 2: the row's shared bus.
                r.latency = 2;
                r.bus = src_row;
            }
            return r;
        }

        // Level 3: tree bus across rows; latency is logarithmic in the
        // row distance, and the transfer occupies the source column's
        // lane.
        const int dist = std::abs(src_row - dst_row);
        const int levels = std::bit_width(static_cast<unsigned>(dist));
        r.latency = 2 + 2 * levels;
        r.bus = rows_ + src_col;
        return r;
    }

    /** Number of contended bus resources (for busy accounting). */
    int busCount() const { return busCount_; }

    BusKind kind() const { return kind_; }

  private:
    BusKind kind_;
    int columns_;
    int rows_;
    int numPes_;
    int busCount_;
};

} // namespace cosmic::compiler
