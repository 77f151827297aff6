#ifndef BENTO_SIM_SPILL_H_
#define BENTO_SIM_SPILL_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "util/result.h"

namespace bento::sim {

/// \brief A fresh temp file path `<dir>/<prefix>_<pid>_<n><extension>`.
/// `dir` defaults to $TMPDIR, else /tmp; `n` comes from one process-wide
/// counter, so a path never repeats within a process. The prefix names the
/// producer (bento_spill, bento_run, bento_vaex), which keeps leftover files
/// recognisable.
std::string TempFilePath(const std::string& prefix,
                         const std::string& extension,
                         const std::string& dir = "");

/// \brief A temporary on-disk byte store used by out-of-core operators
/// (the SparkSQL engine's spill path). Bytes written here are *not* charged
/// to any MemoryPool, which is exactly the point: spilling converts tracked
/// RAM into untracked disk, letting pipelines finish under small budgets.
///
/// The backing file is unlinked on destruction.
class SpillFile {
 public:
  /// Creates a spill file in `dir` (defaults to the system temp directory).
  static Result<std::unique_ptr<SpillFile>> Create(const std::string& dir = "");

  ~SpillFile();

  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  /// Appends `size` bytes; returns the offset they were written at.
  Result<uint64_t> Write(const void* data, uint64_t size);

  /// Reads `size` bytes from `offset` into `out`.
  Status Read(uint64_t offset, uint64_t size, void* out);

  uint64_t bytes_written() const { return bytes_written_; }
  const std::string& path() const { return path_; }

  /// Test-only fault injection, process-wide: after `write_bytes` more bytes
  /// have been written (resp. `read_bytes` read) across all spill files, the
  /// next Write/Read fails with a clean IOError — the short-write/short-read
  /// model for proving spill consumers never surface corrupt frames.
  /// UINT64_MAX disarms a fuse.
  static void InjectFaults(uint64_t write_bytes, uint64_t read_bytes);
  static void ClearFaults();

 private:
  SpillFile(std::FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}

  std::FILE* file_;
  std::string path_;
  uint64_t bytes_written_ = 0;
};

}  // namespace bento::sim

#endif  // BENTO_SIM_SPILL_H_
