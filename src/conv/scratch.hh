/**
 * @file
 * Per-thread scratch buffers for convolution engines.
 *
 * Engines need transient buffers (unfolded inputs, layout-transformed
 * operands, private weight-gradient accumulators). Allocating them per
 * call would dominate small layers, so each worker thread keeps a
 * small arena of named slots that grow monotonically and are reused
 * across calls.
 */

#ifndef SPG_CONV_SCRATCH_HH
#define SPG_CONV_SCRATCH_HH

#include <cstddef>
#include <vector>

#include "util/aligned.hh"

namespace spg {

/** Named scratch slots; one arena instance lives per thread. */
class ScratchArena
{
  public:
    /**
     * @return a buffer of at least @p count floats for the given slot
     * id. Contents are UNINITIALIZED on growth and persist between
     * calls on the same thread — callers must fully overwrite before
     * reading (sanitized builds poison fresh storage to enforce this).
     */
    float *
    get(int slot, std::size_t count)
    {
        if (slot >= static_cast<int>(slots.size()))
            slots.resize(slot + 1);
        if (slots[slot].size() < count)
            slots[slot] = AlignedBuffer<float>(kUninit, count);
        return slots[slot].data();
    }

    /** @return the calling thread's arena. */
    static ScratchArena &
    forThread()
    {
        static thread_local ScratchArena arena;
        return arena;
    }

  private:
    std::vector<AlignedBuffer<float>> slots;
};

/** Slot ids used by the engines (disjoint per concurrent use). */
enum ScratchSlot
{
    kSlotUnfold = 0,       ///< im2col matrix
    kSlotUnfoldGrad = 1,   ///< gradient of the unfolded matrix
    kSlotPrivateDw = 2,    ///< per-thread weight-gradient accumulator
    kSlotLayoutA = 3,      ///< layout-transform staging A
    kSlotLayoutB = 4,      ///< layout-transform staging B
    kSlotLayoutC = 5,      ///< layout-transform staging C
    kSlotPanelsB = 6,      ///< im2col emitted directly in B-panel format
    kSlotMaskedEo = 7,     ///< ReLU-masked copy of one image's errors
    // Direct NCHWc engine. The batch-wide staging slots (In / Weights /
    // Out) are taken from the DISPATCHING thread's arena and shared
    // read-only (or disjointly written) by the workers inside one
    // fork-join region; kSlotDirectDw is a genuinely per-thread
    // gradient tile.
    kSlotDirectIn = 8,       ///< blocked input / staged (masked) errors
    kSlotDirectWeights = 9,  ///< KCRSck or BP-gather blocked weights
    kSlotDirectOut = 10,     ///< blocked output / input-error staging
    kSlotDirectDw = 11       ///< one task's [fx][8][8] gradient tile
};

} // namespace spg

#endif // SPG_CONV_SCRATCH_HH
