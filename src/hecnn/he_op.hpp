/**
 * @file
 * The HE instruction set the HE-CNN compiler targets, and the one table
 * that says what each opcode is.
 *
 * Each instruction maps onto one of the paper's HE operation modules
 * (Table I): OP1 CCadd (+ plaintext add), OP2 PCmult, OP3 CCmult,
 * OP4 Rescale, OP5 KeySwitch (Relinearize / Rotate). Names, module
 * labels, the op counts of the compiler statistics and the FPGA model,
 * and the operand rules of every static consumer read kHeOps; the
 * (level, scale, parts) step of each op lives in plan_walk.hpp.
 */
#ifndef FXHENN_HECNN_HE_OP_HPP
#define FXHENN_HECNN_HE_OP_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace fxhenn::hecnn {

/** HE instruction opcodes. */
enum class HeOpKind : std::uint8_t {
    pcMult,      ///< OP2: dst = src * plaintext[pt]
    pcAdd,       ///< OP1 variant: dst = src + plaintext[pt]
    ccAdd,       ///< OP1: dst = dst + src
    ccMult,      ///< OP3: dst = src * src (3-part result; HE-CNN square)
    relinearize, ///< OP5: dst = relin(src)
    rescale,     ///< OP4: dst = rescale(src)
    rotate,      ///< OP5: dst = rot(src, step)
    copy,        ///< bookkeeping only (no HE cost)
};

inline constexpr std::size_t kHeOpKindCount = 8;

/** What one opcode is. */
struct HeOpInfo
{
    HeOpKind kind;
    const char *name; ///< human-readable opcode name
    /** Paper module 1..5 = OP1..OP5 (Table I); 0 = no HE cost. */
    std::uint8_t module;
    bool readsDst;       ///< dst is an operand too (dst += src)
    bool readsPlaintext; ///< reads plaintext pool entry `pt`
    bool keySwitch;      ///< a KeySwitch (Sec. V-A's KS layer class)
    /** Part count the op expects of its source; 0 = any. */
    std::uint8_t partsIn;
};

/** The op table, indexed by HeOpKind. */
inline constexpr std::array<HeOpInfo, kHeOpKindCount> kHeOps{{
    {HeOpKind::pcMult, "PCmult", 2, false, true, false, 0},
    {HeOpKind::pcAdd, "PCadd", 1, false, true, false, 0},
    {HeOpKind::ccAdd, "CCadd", 1, true, false, false, 0},
    {HeOpKind::ccMult, "CCmult", 3, false, false, false, 2},
    {HeOpKind::relinearize, "Relinearize", 5, false, false, true, 3},
    {HeOpKind::rescale, "Rescale", 4, false, false, false, 0},
    {HeOpKind::rotate, "Rotate", 5, false, false, true, 2},
    {HeOpKind::copy, "Copy", 0, false, false, false, 0},
}};

static_assert(
    [] {
        for (std::size_t k = 0; k < kHeOps.size(); ++k) {
            if (static_cast<std::size_t>(kHeOps[k].kind) != k)
                return false;
        }
        return true;
    }(),
    "kHeOps must list the opcodes in HeOpKind order");

/** @return the table row of @p kind. */
constexpr const HeOpInfo &
opInfo(HeOpKind kind)
{
    return kHeOps[static_cast<std::size_t>(kind)];
}

/** @return the paper's module label ("OP1".."OP5", "-" for copy). */
const char *opModuleLabel(HeOpKind kind);

/** @return a human-readable opcode name. */
constexpr const char *
opName(HeOpKind kind)
{
    return opInfo(kind).name;
}

/** @return true when the opcode is a KeySwitch (Relinearize/Rotate). */
constexpr bool
isKeySwitch(HeOpKind kind)
{
    return opInfo(kind).keySwitch;
}

/** One HE instruction over the register file of a network plan. */
struct HeInstr
{
    HeOpKind kind;
    std::int32_t dst = -1;  ///< destination register
    std::int32_t src = -1;  ///< source register
    std::int32_t pt = -1;   ///< plaintext pool index (pcMult/pcAdd)
    std::int32_t step = 0;  ///< rotation amount (rotate)
};

} // namespace fxhenn::hecnn

#endif // FXHENN_HECNN_HE_OP_HPP
