#include "src/codegen/kernel_cache.h"

#include "src/support/crc32.h"
#include "src/support/metrics.h"
#include "src/support/string_util.h"

namespace alt::codegen {

KernelCache& KernelCache::Global() {
  static KernelCache* cache = new KernelCache();
  return *cache;
}

std::string KernelCache::KeyOf(const std::string& source) {
  // FNV-1a is streaming: hashing the source from the flags' hash equals
  // hashing the concatenation, without copying the source.
  static const uint64_t flags = Fnv1a64(std::string(kJitFlags) + "|");
  return FormatU64Hex(Fnv1a64(source, flags));
}

StatusOr<std::shared_ptr<NativeKernel>> KernelCache::GetOrCompile(const std::string& source) {
  static Counter& hits = MetricsRegistry::Global().counter("codegen.cache_hits");
  static Counter& compiles = MetricsRegistry::Global().counter("codegen.compiles");
  static Counter& failures = MetricsRegistry::Global().counter("codegen.compile_failures");

  const std::string key = KeyOf(source);
  // The lock covers the compile: concurrent Prepares of the same source
  // must not race the toolchain, and distinct sources compiling serially is
  // an accepted cost (compiles are rare and cached forever).
  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = kernels_.find(key); it != kernels_.end()) {
    hits.Add();
    return it->second;
  }
  if (auto it = failures_.find(key); it != failures_.end()) {
    return it->second;
  }
  compiles.Add();
  auto kernel = CompileAndLoad(source, jit_);
  if (!kernel.ok()) {
    failures.Add();
    failures_.emplace(key, kernel.status());
    return kernel.status();
  }
  kernels_.emplace(key, *kernel);
  return *kernel;
}

Status KernelCache::RegisterObject(const std::string& key,
                                   const std::vector<unsigned char>& bytes) {
  static Counter& registered = MetricsRegistry::Global().counter("codegen.registered");
  static Counter& load_failures =
      MetricsRegistry::Global().counter("codegen.load_failures");
  std::lock_guard<std::mutex> lock(mu_);
  if (kernels_.count(key) > 0) {
    return Status::Ok();
  }
  auto kernel = LoadObject(bytes, jit_);
  if (!kernel.ok()) {
    load_failures.Add();
    return kernel.status();
  }
  kernels_.emplace(key, *kernel);
  failures_.erase(key);  // a delivered object supersedes a remembered failure
  registered.Add();
  return Status::Ok();
}

StatusOr<std::vector<unsigned char>> KernelCache::ObjectBytes(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = kernels_.find(key); it != kernels_.end()) {
    return it->second->object_bytes();
  }
  if (auto it = failures_.find(key); it != failures_.end()) {
    return it->second;
  }
  return Status::NotFound("no native kernel cached under key " + key);
}

int64_t KernelCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(kernels_.size());
}

void KernelCache::SetJitOptionsForTest(const JitOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  jit_ = options;
}

void KernelCache::ClearForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  kernels_.clear();
  failures_.clear();
}

}  // namespace alt::codegen
