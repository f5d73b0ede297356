// KernelSpec → C++ translation unit.
//
// The emitted source contains one `extern "C"` function (kKernelSymbol) plus
// a small static preamble: exact replicas of the interpreter's floor/ceil
// integer division helpers and of ir::GuardRange, so guard splitting in
// native code lands on the same [else)[then)[else) segment boundaries as the
// affine engine. Loop nests are emitted as literal `for` statements with all
// extents, strides, and accumulator bases as integer constants — the host
// compiler sees exactly the unit-stride loops the affine analysis proved,
// and its vectorizer does the rest. Floating-point immediates are emitted as
// bit patterns (never decimal round-trips), and kernels are compiled with
// -ffp-contract=off (jit.h), so every double→float conversion happens where
// — and only where — the interpreter performs it. A bytecode leaf, or a leaf
// with a kEval branch, is emitted as one call to the host callback.

#ifndef ALT_CODEGEN_CPP_EMITTER_H_
#define ALT_CODEGEN_CPP_EMITTER_H_

#include <string>

#include "src/codegen/kernel_spec.h"

namespace alt::codegen {

// Entry-point symbol of every generated shared object. Fixed: each kernel
// lives in its own dlopened object (RTLD_LOCAL), so names never collide.
inline constexpr const char* kKernelSymbol = "alt_kernel_entry";

// Bumped whenever emitted code could change for an unchanged program
// structure; part of the kernel cache key, so stale cached objects are never
// reused.
// v2: kernel ABI takes a [begin, end) slice of the outer parallel loop —
// v1 objects embedded in old artifacts miss the new "cg2|"-salted keys and
// recompile instead of loading with the four-argument signature.
// v3: buffer ids are numbered as the affine builder commits accesses, which
// now includes the stores and loads of leaves the kernel hands to the host.
// A compiled leaf may then index a different buffer table slot than a v2
// kernel of the same structure, so v2 objects must never be reused.
inline constexpr int kCodegenVersion = 3;

// Renders `spec` as a complete, self-contained C++ translation unit.
// Deterministic: equal specs produce byte-identical source.
std::string EmitKernelSource(const KernelSpec& spec);

}  // namespace alt::codegen

#endif  // ALT_CODEGEN_CPP_EMITTER_H_
