#include "util/atomic_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/check.h"

namespace hs::util {

namespace testing {
AtomicFileFailureInjection atomic_file_failures;
}  // namespace testing

namespace {

/// write() with the test-only failure injection applied: an optional
/// per-call byte cap (short writes) and an optional total-bytes budget
/// after which the call fails as if the disk filled.
ssize_t checked_write(int fd, const char* data, size_t size,
                      size_t total_written) {
  const auto& inject = testing::atomic_file_failures;
  if (inject.fail_write_after >= 0) {
    const size_t budget = static_cast<size_t>(inject.fail_write_after);
    if (total_written >= budget) {
      errno = ENOSPC;
      return -1;
    }
    // Short-write up to the budget first, so the partial payload the
    // failure leaves behind is realistic.
    size = std::min(size, budget - total_written);
  }
  if (inject.short_write_limit >= 0 &&
      size > static_cast<size_t>(inject.short_write_limit)) {
    size = static_cast<size_t>(inject.short_write_limit);
    if (size == 0) {
      errno = ENOSPC;
      return -1;
    }
  }
  return ::write(fd, data, size);
}

/// Write the whole buffer, riding out short writes and EINTR.
bool write_all(int fd, const char* data, size_t size) {
  size_t written = 0;
  while (size > 0) {
    const ssize_t n = checked_write(fd, data, size, written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    data += n;
    size -= static_cast<size_t>(n);
    written += static_cast<size_t>(n);
  }
  return true;
}

/// fsync()/rename() with the test-only failure injection applied.
int checked_fsync(int fd) {
  if (testing::atomic_file_failures.fail_fsync) {
    errno = EIO;
    return -1;
  }
  return ::fsync(fd);
}

int checked_rename(const char* from, const char* to) {
  if (testing::atomic_file_failures.fail_rename) {
    errno = EACCES;
    return -1;
  }
  return ::rename(from, to);
}

}  // namespace

void write_file_atomic(const std::string& path, const void* data,
                       size_t size) {
  HS_CHECK(!path.empty(), "atomic write needs a non-empty path");
  const std::string tmp = path + ".tmp";

  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  HS_CHECK(fd >= 0, "cannot open temporary file for writing: "
                        << tmp << " (" << std::strerror(errno) << ")");

  // Data first, durably: fsync before rename orders "payload on disk"
  // before "name points at payload" — the whole point of the idiom.
  const bool written = write_all(fd, static_cast<const char*>(data), size);
  const bool synced = written && checked_fsync(fd) == 0;
  const int saved_errno = errno;
  ::close(fd);
  if (!written || !synced) {
    ::unlink(tmp.c_str());
    HS_CHECK(false, "cannot write temporary file: "
                        << tmp << " (" << std::strerror(saved_errno) << ")");
  }

  if (checked_rename(tmp.c_str(), path.c_str()) != 0) {
    const int rename_errno = errno;
    ::unlink(tmp.c_str());
    HS_CHECK(false, "cannot rename " << tmp << " -> " << path << " ("
                                     << std::strerror(rename_errno) << ")");
  }

  // Durability of the rename itself requires fsyncing the directory.
  // Best-effort: a failure here (exotic filesystems reject O_DIRECTORY
  // fsync) downgrades the guarantee from power-cut-safe to
  // process-crash-safe, which is not worth failing the save over.
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

std::vector<uint8_t> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  HS_CHECK(fd >= 0, "cannot open file for reading: "
                        << path << " (" << std::strerror(errno) << ")");
  // A directory opens fine and then fails every read, so anything but a
  // regular file is rejected before its size is trusted.
  struct stat info {};
  const bool regular = ::fstat(fd, &info) == 0 && S_ISREG(info.st_mode);
  std::vector<uint8_t> bytes(regular ? static_cast<size_t>(info.st_size) : 0);
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::read(fd, bytes.data() + done, bytes.size() - done);
    if (n > 0) {
      done += static_cast<size_t>(n);
    } else if (n == 0 || errno != EINTR) {
      break;  // the file shrank, or an I/O error
    }
  }
  ::close(fd);
  HS_CHECK(regular, "not a regular file: " << path);
  HS_CHECK(done == bytes.size(), "cannot read file: " << path);
  return bytes;
}

}  // namespace hs::util
