// KernelSpec → C++ translation unit.
//
// The emitted source contains one `extern "C"` function (kKernelSymbol) plus
// a small static preamble: exact replicas of the interpreter's floor/ceil
// integer division helpers, of ir::GuardRange, and of the host value
// evaluator's min/max and select guard, so guard splitting in native code
// lands on the same [else)[then)[else) segment boundaries as the affine
// engine. Loop nests are emitted as literal `for` statements with all
// extents, strides, and accumulator bases as integer constants — the host
// compiler sees exactly the unit-stride loops the affine analysis proved,
// and its vectorizer does the rest. Floating-point immediates are emitted as
// bit patterns (never decimal round-trips), and kernels are compiled with
// -ffp-contract=off (jit.h), so every double→float conversion happens where
// — and only where — the interpreter performs it. A store leaf is emitted as
// the per-element loop the host engines run: its index programs printed back
// as integer C++ with floor-div and mod, a bounds check per access, and its
// value tree in double. The source is the kernel's cache key
// (kernel_cache.h): equal sources share one compiled object.

#ifndef ALT_CODEGEN_CPP_EMITTER_H_
#define ALT_CODEGEN_CPP_EMITTER_H_

#include <string>

#include "src/codegen/kernel_spec.h"

namespace alt::codegen {

// Entry-point symbol of every generated shared object. Fixed: each kernel
// lives in its own dlopened object (RTLD_LOCAL), so names never collide.
inline constexpr const char* kKernelSymbol = "alt_kernel_entry";

// Renders `spec` as a complete, self-contained C++ translation unit.
// Deterministic: equal specs produce byte-identical source.
std::string EmitKernelSource(const KernelSpec& spec);

}  // namespace alt::codegen

#endif  // ALT_CODEGEN_CPP_EMITTER_H_
