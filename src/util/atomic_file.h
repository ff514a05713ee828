// Crash-consistent file replacement.
//
// A plain ofstream write is torn by a crash at any point: the target
// path transitions through every partial length, and a reader (or a
// restarted process) can observe a half-written file with a valid
// header. write_file_atomic() gives the POSIX publish idiom instead —
// write the full payload to a temporary in the same directory, fsync it
// so the *data* is durable before the name is, then rename() onto the
// target (atomic within a filesystem), and finally fsync the directory
// so the new name itself survives a power cut. A reader therefore sees
// either the complete old file or the complete new file, never a mix —
// the property the HSTRACE1/HSSNAP1/HSSCHED1 persistence layers rely on
// for "a crash mid-write never leaves a torn file". read_file() is the
// matching loader.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace hs::util {

/// Atomically replace `path` with `size` bytes at `data`. The temporary
/// is `path` + ".tmp" in the same directory (same filesystem, so the
/// rename is atomic); concurrent writers to one path must be externally
/// serialized, which the serving layer's with_exclusive() provides.
/// Throws util::CheckError on any I/O failure (the temporary is
/// unlinked best-effort before throwing).
void write_file_atomic(const std::string& path, const void* data,
                       size_t size);

/// The whole content of the regular file at `path`. Throws
/// util::CheckError on any I/O failure, including a path that opens but
/// is not a regular file (a directory).
[[nodiscard]] std::vector<uint8_t> read_file(const std::string& path);

namespace testing {

/// Test-only fault injection for write_file_atomic's syscalls. The
/// failure paths this function promises — "throws CheckError and leaves
/// no temporary or partial file" — involve disk-full, I/O-error, and
/// permission conditions that cannot be provoked portably from a test
/// (CI runs as root, where chmod is advisory), so the tests flip these
/// knobs instead. All fields default to "off", in which state the
/// wrappers forward to the real syscalls; production code never touches
/// this struct.
struct AtomicFileFailureInjection {
  /// Cap each write() at this many bytes, exercising the short-write
  /// retry loop on the success path. < 0 = no cap.
  long short_write_limit = -1;
  /// Fail write() with ENOSPC once this many bytes have been written in
  /// total (the classic mid-payload disk-full). < 0 = never.
  long fail_write_after = -1;
  bool fail_fsync = false;   // fsync() on the temporary fails with EIO
  bool fail_rename = false;  // rename() fails with EACCES
                             // (unwritable target directory)

  void reset() { *this = AtomicFileFailureInjection{}; }
};

/// The process-wide injection state (tests are single-threaded here).
extern AtomicFileFailureInjection atomic_file_failures;

}  // namespace testing

}  // namespace hs::util
