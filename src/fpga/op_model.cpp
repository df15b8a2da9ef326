#include "src/fpga/op_model.hpp"

#include <cmath>

#include "src/common/assert.hpp"
#include "src/common/math_util.hpp"

namespace fxhenn::fpga {

const char *
moduleLabel(HeOpModule op)
{
    switch (op) {
      case HeOpModule::ccAdd:
        return "OP1";
      case HeOpModule::pcMult:
        return "OP2";
      case HeOpModule::ccMult:
        return "OP3";
      case HeOpModule::rescale:
        return "OP4";
      case HeOpModule::keySwitch:
        return "OP5";
    }
    return "?";
}

const char *
moduleName(HeOpModule op)
{
    switch (op) {
      case HeOpModule::ccAdd:
        return "CCadd";
      case HeOpModule::pcMult:
        return "PCmult";
      case HeOpModule::ccMult:
        return "CCmult";
      case HeOpModule::rescale:
        return "Rescale";
      case HeOpModule::keySwitch:
        return "KeySwitch";
    }
    return "?";
}

double
nttLatencyCycles(std::uint64_t n, unsigned ncNtt)
{
    FXHENN_FATAL_IF(ncNtt == 0 || !isPowerOfTwo(ncNtt),
                    "nc_NTT must be a power of two");
    return static_cast<double>(floorLog2(n)) * static_cast<double>(n) /
           (2.0 * ncNtt);
}

double
basicLatencyCycles(HeOpModule op, const RingView &ring, unsigned ncNtt)
{
    const double ntt = nttLatencyCycles(ring.n, ncNtt);
    switch (op) {
      case HeOpModule::ccAdd:
      case HeOpModule::pcMult:
      case HeOpModule::ccMult:
        // Elementwise pass over one limb, dual-port bound.
        return static_cast<double>(ring.n);
      case HeOpModule::rescale:
        // INTT of the dropped limb + NTT back, both polynomials.
        return 2.0 * ntt;
      case HeOpModule::keySwitch:
        // Per decomposed limb: base extension to L+1 target moduli plus
        // the amortized ModDown, on two parallel NTT lanes.
        return (static_cast<double>(ring.level) + 4.0) * ntt / 2.0;
    }
    return 0.0;
}

double
pipelineIntervalCycles(HeOpModule op, const RingView &ring,
                       const OpAllocation &alloc)
{
    FXHENN_FATAL_IF(alloc.pIntra == 0 || alloc.pInter == 0,
                    "parallelism degrees must be positive");
    const double rounds = static_cast<double>(
        divCeil(ring.level, alloc.pIntra));
    return rounds * basicLatencyCycles(op, ring, alloc.ncNtt);
}

double
singleOpLatencyCycles(HeOpModule op, const RingView &ring,
                      const OpAllocation &alloc)
{
    // Fixed pipeline fill/drain of roughly one buffer load + store.
    return pipelineIntervalCycles(op, ring, alloc) +
           2.0 * static_cast<double>(ring.n);
}

double
offChipPenalty(HeOpModule op)
{
    // Table III calibration: random-access DDR traffic slows the
    // elementwise/rescale pipelines ~16X (Cnv1: 0.334 s / 0.021 s)
    // and the KeySwitch-heavy pipeline ~140X (Fc1: 22.6 s / 0.162 s).
    switch (op) {
      case HeOpModule::keySwitch:
        return 140.0;
      default:
        return 16.0;
    }
}

unsigned
dspConst(HeOpModule op, unsigned ncNtt)
{
    // Table I measurements on ACU9EG (2520 DSP): per-instance DSP at
    // P_intra = P_inter = 1. The NTT-bearing modules grow with nc_NTT;
    // values outside {2,4,8} extrapolate linearly per core.
    switch (op) {
      case HeOpModule::ccAdd:
        return 0;
      case HeOpModule::pcMult:
      case HeOpModule::ccMult:
        return 100; // 3.97 % of 2520
      case HeOpModule::rescale:
        // 112 / 184 / 328 at nc = 2 / 4 / 8: 36 per core + 40 fixed.
        return 36 * ncNtt + 40;
      case HeOpModule::keySwitch:
        // 254 / 479 / 721 at nc = 2 / 4 / 8: ~78 per core + ~105 fixed.
        return 78 * ncNtt + 105;
    }
    return 0;
}

unsigned
dspUsage(HeOpModule op, const OpAllocation &alloc)
{
    return alloc.pInter * alloc.pIntra * dspConst(op, alloc.ncNtt);
}

unsigned
lutConst(HeOpModule op, unsigned ncNtt)
{
    // Rough per-instance estimates in the HEAX/coxHE range: ~1.3k LUTs
    // per NTT butterfly core plus module control; elementwise lanes
    // are cheap. Chosen so LUTs track but do not dominate DSP/BRAM.
    switch (op) {
      case HeOpModule::ccAdd:
        return 600;
      case HeOpModule::pcMult:
        return 900;
      case HeOpModule::ccMult:
        return 1100;
      case HeOpModule::rescale:
        return 1300 * ncNtt / 2 + 2500;
      case HeOpModule::keySwitch:
        return 2600 * ncNtt / 2 + 6000;
    }
    return 0;
}

unsigned
lutUsage(HeOpModule op, const OpAllocation &alloc)
{
    return alloc.pInter * alloc.pIntra * lutConst(op, alloc.ncNtt);
}

unsigned
limbBufferBlocks(std::uint64_t n, unsigned ncNtt)
{
    const unsigned base = static_cast<unsigned>(divCeil(n, 1024));
    // The dual-port BRAM serves up to 4 NTT cores; 8 cores require the
    // data partitioned across twice the blocks (Table I observation).
    return ncNtt > 4 ? 2 * base : base;
}

BufferUnits
bufferUnits(HeOpModule op, const RingView &ring, unsigned pIntra)
{
    const double l = static_cast<double>(ring.level);
    BufferUnits u;
    switch (op) {
      case HeOpModule::ccAdd:
      case HeOpModule::pcMult:
        // One ciphertext buffered with input/output reuse (Fig. 5);
        // the plaintext of PCmult streams from off-chip.
        u.bb = 2.0 * l;
        break;
      case HeOpModule::ccMult:
        // Squaring produces a 3-part intermediate.
        u.bb = 3.0 * l;
        break;
      case HeOpModule::rescale:
        // Whole ciphertext lives in NTT-partitioned buffers; intra
        // parallel copies add one working buffer pair each.
        u.bn = 2.0 * l + 2.0 * (pIntra - 1);
        break;
      case HeOpModule::keySwitch:
        // Ciphertext in/out (2L) + per-intra-copy extension working
        // buffers (2L+2 each) + the decomposition staging buffer (L+1);
        // 38 limb units at L = 7, matching Table I's 35 % on ACU9EG.
        u.bn = 2.0 * l + (2.0 * l + 2.0) * pIntra + (l + 1.0);
        break;
    }
    return u;
}

double
opModMuls(HeOpModule op, const RingView &ring)
{
    const double n = static_cast<double>(ring.n);
    const double l = static_cast<double>(ring.level);
    const double butterflies =
        static_cast<double>(floorLog2(ring.n)) * n / 2.0;
    switch (op) {
      case HeOpModule::ccAdd:
        return 0.0;
      case HeOpModule::pcMult:
        return 2.0 * l * n; // both polynomials, every limb
      case HeOpModule::ccMult:
        return 3.0 * l * n; // three cross products (squaring)
      case HeOpModule::rescale:
        // 2 polys * L NTT passes + the scaling pass.
        return 2.0 * l * butterflies + 2.0 * (l - 1.0) * n;
      case HeOpModule::keySwitch:
        // L*(L+2) + 2(L+1) NTT passes + inner products.
        return (l * (l + 2.0) + 2.0 * (l + 1.0)) * butterflies +
               2.0 * l * (l + 1.0) * n;
    }
    return 0.0;
}

HeOpModule
moduleOf(hecnn::HeOpKind kind)
{
    const std::uint8_t module = hecnn::opInfo(kind).module;
    FXHENN_PANIC_IF(module == 0, std::string(hecnn::opName(kind)) +
                                     " has no hardware module");
    return static_cast<HeOpModule>(module - 1);
}

} // namespace fxhenn::fpga
