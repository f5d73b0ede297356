// Shelling out to the host toolchain: source → .so → dlopened KernelFn.
//
// CompileAndLoad writes the generated translation unit into a private
// mkdtemp directory, invokes the host C++ compiler (`$ALT_CXX`, else `c++`)
// with -O2 -fPIC -shared, -ffp-contract=off (bit-identity: no FMA
// contraction the interpreter wouldn't perform) and -fno-builtin-exp
// -fno-builtin-tanh (no compile-time folding that could disagree with the
// host's libm by an ulp), dlopens the result, and
// ALWAYS removes the temp directory — on success the mapping keeps the code
// alive without the file, and on failure nothing is left behind. Every
// failure path (missing compiler, diagnostics, dlopen/dlsym errors) returns
// a Status; nothing here ever aborts, because a failed compile just means
// the caller serves through the interpreter instead.
//
// The raw .so bytes are retained on the loaded kernel so artifacts can embed
// them (core/artifact.cc); LoadObject is the reverse path, used when a
// loaded artifact re-registers its kernels without recompiling.

#ifndef ALT_CODEGEN_JIT_H_
#define ALT_CODEGEN_JIT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/codegen/kernel_spec.h"
#include "src/support/status.h"

namespace alt::codegen {

// Flags every kernel is compiled with, after the compiler driver. They are
// part of every kernel-cache key (kernel_cache.h), so an object built with
// other flags is never reused.
inline constexpr const char* kJitFlags =
    "-std=c++17 -O2 -fPIC -shared -ffp-contract=off -fno-builtin-exp -fno-builtin-tanh";

struct JitOptions {
  // Compiler driver; empty resolves $ALT_CXX, then "c++".
  std::string compiler;
  // Parent directory for scratch build dirs; empty resolves $TMPDIR, then
  // "/tmp". Tests point this at a private dir to assert cleanup.
  std::string temp_root;
};

// A dlopened kernel. Destroying the last reference dlcloses the object.
class NativeKernel {
 public:
  NativeKernel(void* handle, KernelFn fn, std::vector<unsigned char> object_bytes)
      : handle_(handle), fn_(fn), object_bytes_(std::move(object_bytes)) {}
  ~NativeKernel();

  NativeKernel(const NativeKernel&) = delete;
  NativeKernel& operator=(const NativeKernel&) = delete;

  KernelFn fn() const { return fn_; }
  // The shared object's file contents, for artifact embedding.
  const std::vector<unsigned char>& object_bytes() const { return object_bytes_; }

 private:
  void* handle_ = nullptr;
  KernelFn fn_ = nullptr;
  std::vector<unsigned char> object_bytes_;
};

// Compiles `source` and loads the entry point. Internal on compiler failure
// (with the first diagnostics attached), dlopen/dlsym failures likewise.
StatusOr<std::shared_ptr<NativeKernel>> CompileAndLoad(const std::string& source,
                                                       const JitOptions& options = JitOptions());

// dlopens a shared object delivered as bytes (an artifact's embedded
// kernel). A wrong-architecture or corrupt object returns InvalidArgument —
// the caller recompiles or serves through the interpreter.
StatusOr<std::shared_ptr<NativeKernel>> LoadObject(const std::vector<unsigned char>& bytes,
                                                   const JitOptions& options = JitOptions());

}  // namespace alt::codegen

#endif  // ALT_CODEGEN_JIT_H_
