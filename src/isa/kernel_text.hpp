/**
 * @file
 * Declarative text format for kernels.
 *
 * Lets users define workloads as data instead of C++ — the natural
 * interchange format for "bring your own access pattern" studies.
 * Example:
 *
 * ```
 * # gather-reduce, 64 iterations per block
 * kernel gather 64
 * gen 0 strided base=268435456 warp=1024 iter=49152 sm=0
 * gen 1 zipf base=536870912 lines=96 alpha=1.0 seed=7
 * load r0 pc=0x40 gen=0
 * alu r1 r0 lat=8
 * load r2 pc=0x48 gen=1 dep=r0 lanestride=4 lanes=32
 * alu r3 r2 lat=8
 * store gen=0 src=r3
 * ```
 *
 * `writeKernelText()` emits this form for any Kernel (round-trip safe);
 * `parseKernelText()` builds the Kernel back. Registers are named
 * `r<N>` in definition order; `dep=` chains a load's address
 * computation behind a producer; `alu` lines take 0-3 sources.
 * Every number is one whole decimal or `0x` token (`010` is ten; a
 * leading `-` only on the signed strides and offsets). Malformed
 * input — garbage or out-of-range numbers, zero generator sizes or
 * sharing degrees, a zipf table above ZipfGen::kMaxLines lines —
 * throws SimError(kKernel) naming the offending line.
 */

#ifndef APRES_ISA_KERNEL_TEXT_HPP
#define APRES_ISA_KERNEL_TEXT_HPP

#include <iosfwd>
#include <string>

#include "isa/kernel.hpp"

namespace apres {

/** Parse a kernel definition from @p input. */
Kernel parseKernelText(std::istream& input);

/** Convenience: parse from a string. */
Kernel parseKernelText(const std::string& text);

/**
 * The text of a kernel file, to parse or to send as a job's kernel
 * text. KernelError when the file is missing, unreadable or empty.
 */
std::string readKernelFile(const std::string& path);

/** Emit the canonical text form of @p kernel. */
void writeKernelText(const Kernel& kernel, std::ostream& output);

} // namespace apres

#endif // APRES_ISA_KERNEL_TEXT_HPP
