#include "scifile/storage.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>

namespace sidr::sci {

void MemoryStorage::readAt(std::uint64_t offset,
                           std::span<std::byte> buf) const {
  if (offset > bytes_.size() || buf.size() > bytes_.size() - offset) {
    throw std::out_of_range("MemoryStorage::readAt: past end");
  }
  // An empty read may meet an empty (null-data) store: memcpy forbids it.
  if (!buf.empty()) {
    std::memcpy(buf.data(), bytes_.data() + offset, buf.size());
  }
}

void MemoryStorage::writeAt(std::uint64_t offset,
                            std::span<const std::byte> buf) {
  if (buf.empty()) return;
  if (offset + buf.size() > bytes_.size()) {
    bytes_.resize(offset + buf.size());
  }
  std::memcpy(bytes_.data() + offset, buf.data(), buf.size());
}

namespace {

[[noreturn]] void throwErrno(const std::string& what, const std::string& path) {
  throw std::system_error(errno, std::generic_category(), what + ": " + path);
}

}  // namespace

FileStorage::FileStorage(const std::string& path, Mode mode) : path_(path) {
  int flags = 0;
  switch (mode) {
    case Mode::kCreate:
      flags = O_RDWR | O_CREAT | O_TRUNC;
      writable_ = true;
      break;
    case Mode::kOpenExisting:
      flags = O_RDWR;
      writable_ = true;
      break;
    case Mode::kOpenReadOnly:
      flags = O_RDONLY;
      writable_ = false;
      break;
  }
  fd_ = ::open(path.c_str(), flags | O_CLOEXEC, 0666);
  if (fd_ < 0) throwErrno("FileStorage: open failed", path_);
}

FileStorage::~FileStorage() {
  if (fd_ >= 0) ::close(fd_);
}

void FileStorage::readAt(std::uint64_t offset, std::span<std::byte> buf) const {
  std::size_t done = 0;
  while (done < buf.size()) {
    const ssize_t n = ::pread(fd_, buf.data() + done, buf.size() - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      throwErrno("FileStorage: read failed", path_);
    }
    if (n == 0) throw std::runtime_error("FileStorage: short read in " + path_);
    done += static_cast<std::size_t>(n);
  }
}

void FileStorage::writeAt(std::uint64_t offset,
                          std::span<const std::byte> buf) {
  if (!writable_) {
    throw std::logic_error("FileStorage: write to read-only file " + path_);
  }
  std::size_t done = 0;
  while (done < buf.size()) {
    const ssize_t n = ::pwrite(fd_, buf.data() + done, buf.size() - done,
                               static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      throwErrno("FileStorage: write failed", path_);
    }
    done += static_cast<std::size_t>(n);
  }
}

std::uint64_t FileStorage::size() const {
  struct stat st {};
  if (::fstat(fd_, &st) != 0) throwErrno("FileStorage: stat failed", path_);
  return static_cast<std::uint64_t>(st.st_size);
}

void FileStorage::resize(std::uint64_t newSize) {
  if (::ftruncate(fd_, static_cast<off_t>(newSize)) != 0) {
    throwErrno("FileStorage: ftruncate failed", path_);
  }
}

void FileStorage::flush() {
  // Writes go straight to the descriptor, so only durability is left.
  // It matters for the output-scaling measurements (Table 2): without
  // it, write timings measure the page cache, not the medium.
  if (::fsync(fd_) != 0) throwErrno("FileStorage: fsync failed", path_);
}

}  // namespace sidr::sci
