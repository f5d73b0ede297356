#include "src/codegen/jit.h"

#include <cstdlib>
#include <utility>

#include "src/codegen/cpp_emitter.h"
#include "src/support/fileio.h"

#if defined(__unix__) || defined(__APPLE__)
#include <dlfcn.h>
#include <sys/stat.h>
#include <unistd.h>
#define ALT_JIT_SUPPORTED 1
#else
#define ALT_JIT_SUPPORTED 0
#endif

namespace alt::codegen {

NativeKernel::~NativeKernel() {
#if ALT_JIT_SUPPORTED
  if (handle_ != nullptr) {
    dlclose(handle_);
  }
#endif
}

#if ALT_JIT_SUPPORTED

namespace {

std::string ResolveCompiler(const JitOptions& options) {
  if (!options.compiler.empty()) {
    return options.compiler;
  }
  if (const char* env = std::getenv("ALT_CXX"); env != nullptr && env[0] != '\0') {
    return env;
  }
  return "c++";
}

std::string ResolveTempRoot(const JitOptions& options) {
  if (!options.temp_root.empty()) {
    return options.temp_root;
  }
  if (const char* env = std::getenv("TMPDIR"); env != nullptr && env[0] != '\0') {
    return env;
  }
  return "/tmp";
}

// Scratch build directory that removes its (known, flat) contents and itself
// on every exit path — compiler failures included.
class ScratchDir {
 public:
  static StatusOr<ScratchDir> Make(const std::string& root) {
    std::string pattern = root + "/altjit-XXXXXX";
    std::vector<char> buf(pattern.begin(), pattern.end());
    buf.push_back('\0');
    if (mkdtemp(buf.data()) == nullptr) {
      return Status::Internal("mkdtemp failed under " + root);
    }
    ScratchDir dir;
    dir.path_ = buf.data();
    return dir;
  }

  ScratchDir(ScratchDir&& other) noexcept : path_(std::move(other.path_)) {
    other.path_.clear();
  }
  ScratchDir& operator=(ScratchDir&&) = delete;
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  ~ScratchDir() {
    if (path_.empty()) {
      return;
    }
    for (const char* name : {"kernel.cc", "kernel.so", "cc.err"}) {
      ::unlink((path_ + "/" + name).c_str());
    }
    ::rmdir(path_.c_str());
  }

  const std::string& path() const { return path_; }

 private:
  ScratchDir() = default;
  std::string path_;
};

StatusOr<std::shared_ptr<NativeKernel>> OpenObject(const std::string& so_path,
                                                   std::vector<unsigned char> bytes) {
  void* handle = dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) {
    const char* err = dlerror();
    return Status::InvalidArgument(std::string("native kernel dlopen failed: ") +
                                   (err != nullptr ? err : "unknown error"));
  }
  void* sym = dlsym(handle, kKernelSymbol);
  if (sym == nullptr) {
    dlclose(handle);
    return Status::InvalidArgument(std::string("native kernel missing symbol ") +
                                   kKernelSymbol);
  }
  return std::make_shared<NativeKernel>(handle, reinterpret_cast<KernelFn>(sym),
                                        std::move(bytes));
}

}  // namespace

StatusOr<std::shared_ptr<NativeKernel>> CompileAndLoad(const std::string& source,
                                                       const JitOptions& options) {
  auto dir = ScratchDir::Make(ResolveTempRoot(options));
  if (!dir.ok()) {
    return dir.status();
  }
  const std::string src_path = dir->path() + "/kernel.cc";
  const std::string so_path = dir->path() + "/kernel.so";
  const std::string err_path = dir->path() + "/cc.err";
  ALT_RETURN_IF_ERROR(WriteFile(src_path, source));

  // -ffp-contract=off: the generated bodies round double products to float
  // exactly where the interpreter does; FMA contraction would skip that
  // rounding and break bit-identity. -fno-builtin-exp/-tanh: the compiler
  // folds exp and tanh of a constant with correctly rounded arithmetic,
  // which can differ by an ulp from the libm the interpreter calls.
  const std::string command =
      ResolveCompiler(options) + " " + kJitFlags + " -o '" + so_path + "' '" + src_path +
      "' 2>'" + err_path + "'";
  const int rc = std::system(command.c_str());
  if (rc != 0) {
    std::string diag;
    if (auto err = ReadFile(err_path); err.ok()) {
      diag = err->substr(0, 500);
    }
    return Status::Internal("native kernel compile failed (exit " + std::to_string(rc) +
                            "): " + diag);
  }
  auto bytes = ReadFile(so_path);
  if (!bytes.ok()) {
    return bytes.status();
  }
  return OpenObject(so_path,
                    std::vector<unsigned char>(bytes->begin(), bytes->end()));
  // ScratchDir unlinks the .so after dlopen: the mapping outlives the file.
}

StatusOr<std::shared_ptr<NativeKernel>> LoadObject(const std::vector<unsigned char>& bytes,
                                                   const JitOptions& options) {
  auto dir = ScratchDir::Make(ResolveTempRoot(options));
  if (!dir.ok()) {
    return dir.status();
  }
  const std::string so_path = dir->path() + "/kernel.so";
  ALT_RETURN_IF_ERROR(WriteFile(
      so_path, std::string_view(reinterpret_cast<const char*>(bytes.data()), bytes.size())));
  return OpenObject(so_path, bytes);
}

#else  // !ALT_JIT_SUPPORTED

StatusOr<std::shared_ptr<NativeKernel>> CompileAndLoad(const std::string&,
                                                       const JitOptions&) {
  return Status::Internal("native codegen is not supported on this platform");
}

StatusOr<std::shared_ptr<NativeKernel>> LoadObject(const std::vector<unsigned char>&,
                                                   const JitOptions&) {
  return Status::Internal("native codegen is not supported on this platform");
}

#endif  // ALT_JIT_SUPPORTED

}  // namespace alt::codegen
