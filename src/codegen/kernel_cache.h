// Process-global cache of compiled native kernels.
//
// Keyed by KeyOf(source) — a 64-bit FNV-1a of the JIT flags (jit.h) and the
// kernel's generated source. Equal keys mean the same source compiled the
// same way, so one compiled object serves every session, prepared program,
// and hot-swapped model that emits it: programs that differ only in tensor
// or loop-variable ids emit identical source and share a kernel, while a
// changed emitter or changed flags can never reuse an object built from
// anything else. Compile results are cached both ways: successes as loaded
// kernels, failures as their Status, so a missing host compiler costs one
// shell-out per source, not one per Prepare.
//
// RegisterObject is the artifact path: a loaded artifact re-registers its
// embedded .so bytes under their saved keys, and the next Prepare hits the
// cache instead of recompiling — the "zero recompiles across save/load"
// contract, observable via the codegen.cache_hits / codegen.compiles
// counters in the process metrics registry.

#ifndef ALT_CODEGEN_KERNEL_CACHE_H_
#define ALT_CODEGEN_KERNEL_CACHE_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/codegen/jit.h"
#include "src/support/status.h"

namespace alt::codegen {

class KernelCache {
 public:
  static KernelCache& Global();

  // The cache/artifact key of a kernel: 16 lowercase hex chars of Fnv1a64
  // over the JIT flags, "|", and `source`.
  static std::string KeyOf(const std::string& source);

  // Returns the cached kernel for KeyOf(source), compiling `source` on a
  // miss. A failed compile is remembered and returned as the same Status on
  // every subsequent call (the caller falls back to the interpreter each
  // time without paying the shell-out again).
  StatusOr<std::shared_ptr<NativeKernel>> GetOrCompile(const std::string& source);

  // Installs a precompiled object (artifact load). A key that is already
  // resident is left untouched — the resident kernel is equivalent by key
  // construction. Load failures (foreign architecture, corrupt bytes)
  // return a Status and leave the cache unchanged.
  Status RegisterObject(const std::string& key, const std::vector<unsigned char>& bytes);

  // The .so bytes for `key` (artifact save). NotFound when the key was never
  // compiled; the remembered failure Status when its compile failed.
  StatusOr<std::vector<unsigned char>> ObjectBytes(const std::string& key);

  int64_t size() const;

  // Test hooks: route compiles through a specific toolchain/temp dir, and
  // drop all cached state (including remembered failures).
  void SetJitOptionsForTest(const JitOptions& options);
  void ClearForTest();

 private:
  KernelCache() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<NativeKernel>> kernels_;
  std::map<std::string, Status> failures_;
  JitOptions jit_;
};

}  // namespace alt::codegen

#endif  // ALT_CODEGEN_KERNEL_CACHE_H_
