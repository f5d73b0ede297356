#include "src/support/fileio.h"

#include <cerrno>
#include <cstring>

#include <sys/stat.h>
#include <unistd.h>

namespace alt {

namespace {

std::string Errno(const std::string& what, const std::string& path) {
  return what + " '" + path + "': " + std::strerror(errno);
}

}  // namespace

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound(Errno("cannot open", path));
  }
  std::string out;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::Internal(Errno("read failed on", path));
  }
  return out;
}

Status WriteFile(const std::string& path, std::string_view contents) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal(Errno("cannot create", path));
  }
  size_t written = contents.empty() ? 0 : std::fwrite(contents.data(), 1, contents.size(), f);
  bool ok = written == contents.size() && std::fflush(f) == 0;
  std::fclose(f);
  if (!ok) {
    return Status::Internal(Errno("write failed on", path));
  }
  return Status::Ok();
}

Status TruncateFile(const std::string& path, uint64_t size) {
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    return Status::Internal(Errno("truncate failed on", path));
  }
  return Status::Ok();
}

Status RemoveFile(const std::string& path) {
  if (::remove(path.c_str()) != 0 && errno != ENOENT) {
    return Status::Internal(Errno("remove failed on", path));
  }
  return Status::Ok();
}

AppendWriter& AppendWriter::operator=(AppendWriter&& other) noexcept {
  if (this != &other) {
    Close();
    file_ = other.file_;
    other.file_ = nullptr;
  }
  return *this;
}

StatusOr<AppendWriter> AppendWriter::Open(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    return Status::Internal(Errno("cannot open for append", path));
  }
  AppendWriter w;
  w.file_ = f;
  return w;
}

Status AppendWriter::AppendLine(std::string_view line) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("append writer is closed");
  }
  if ((!line.empty() && std::fwrite(line.data(), 1, line.size(), file_) != line.size()) ||
      std::fputc('\n', file_) == EOF || std::fflush(file_) != 0) {
    return Status::Internal(std::string("append failed: ") + std::strerror(errno));
  }
  return Status::Ok();
}

void AppendWriter::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

}  // namespace alt
