// Minimal checked file I/O for the tuning database, artifacts and record
// files.
//
// Everything returns Status — a full disk, a missing directory, or a
// permission error during a 12-hour tuning run must surface as a recoverable
// condition, never an abort. AppendWriter flushes after every line so the
// on-disk tuning database is complete up to the last finished write even if
// the process is killed; a torn final line is expected and tolerated by the
// CRC-framed reader (see core/tuning_database.h).

#ifndef ALT_SUPPORT_FILEIO_H_
#define ALT_SUPPORT_FILEIO_H_

#include <cstdio>
#include <string>
#include <string_view>

#include "src/support/status.h"

namespace alt {

bool FileExists(const std::string& path);

StatusOr<std::string> ReadFile(const std::string& path);

Status WriteFile(const std::string& path, std::string_view contents);

// Shrinks `path` to exactly `size` bytes (used to discard a torn tuning
// database tail before appending new records after it).
Status TruncateFile(const std::string& path, uint64_t size);

Status RemoveFile(const std::string& path);

// Line-oriented append handle. Each AppendLine writes `line` plus '\n' and
// flushes, so every completed call survives a crash of this process.
class AppendWriter {
 public:
  AppendWriter() = default;
  ~AppendWriter() { Close(); }

  AppendWriter(AppendWriter&& other) noexcept : file_(other.file_) { other.file_ = nullptr; }
  AppendWriter& operator=(AppendWriter&& other) noexcept;
  AppendWriter(const AppendWriter&) = delete;
  AppendWriter& operator=(const AppendWriter&) = delete;

  static StatusOr<AppendWriter> Open(const std::string& path);

  Status AppendLine(std::string_view line);

  bool is_open() const { return file_ != nullptr; }
  void Close();

 private:
  std::FILE* file_ = nullptr;
};

}  // namespace alt

#endif  // ALT_SUPPORT_FILEIO_H_
