#include "urmem/common/fs.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <system_error>

namespace urmem {

namespace {

/// Creates `path`'s parent directories (like `mkdir -p $(dirname p)`).
/// No-op when the parent already exists or `path` has no directory
/// component; throws std::runtime_error naming the directory otherwise.
void ensure_parent_dirs(const std::string& path) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (parent.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(parent, ec);
  if (ec) {
    throw std::runtime_error("cannot create directory '" + parent.string() +
                             "': " + ec.message());
  }
}

/// Writes all of `content` to `fd`, retrying short writes and EINTR.
bool write_all(int fd, std::string_view content) {
  while (!content.empty()) {
    const ssize_t written = ::write(fd, content.data(), content.size());
    if (written < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    content.remove_prefix(static_cast<std::size_t>(written));
  }
  return true;
}

}  // namespace

void write_file_atomic(const std::string& path, std::string_view content) {
  ensure_parent_dirs(path);
  // Process-unique temp name: concurrent shards publishing into the
  // same directory never clobber each other's in-flight writes.
  const std::string temp = path + ".tmp." + std::to_string(::getpid());
  const auto fail = [&](const std::string& what, int error) {
    std::error_code ignored;
    std::filesystem::remove(temp, ignored);
    throw std::runtime_error(what + " '" + temp +
                             "': " + std::generic_category().message(error));
  };
  const int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) fail("cannot write", errno);
  // The data must be on disk before the rename publishes it, or a host
  // crash can leave the new name pointing at an empty file.
  if (!write_all(fd, content)) {
    const int error = errno;
    ::close(fd);
    fail("short write to", error);
  }
  if (::fsync(fd) != 0) {
    const int error = errno;
    ::close(fd);
    fail("cannot fsync", error);
  }
  if (::close(fd) != 0) fail("cannot close", errno);

  std::error_code ec;
  std::filesystem::rename(temp, path, ec);
  if (ec) {
    std::error_code ignored;
    std::filesystem::remove(temp, ignored);
    throw std::runtime_error("cannot rename '" + temp + "' to '" + path +
                             "': " + ec.message());
  }
  // The rename lives in the directory: sync it so the new entry
  // survives a crash too.
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (parent.empty()) parent = ".";
  const int dir = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir < 0 || ::fsync(dir) != 0) {
    const int error = errno;
    if (dir >= 0) ::close(dir);
    throw std::runtime_error("cannot fsync directory '" + parent.string() +
                             "': " + std::generic_category().message(error));
  }
  ::close(dir);
}

void write_file(const std::string& path, std::string_view content) {
  ensure_parent_dirs(path);
  const auto fail = [&](const std::string& what, int error) {
    throw std::runtime_error(what + " '" + path +
                             "': " + std::generic_category().message(error));
  };
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) fail("cannot write", errno);
  if (!write_all(fd, content)) {
    const int error = errno;
    ::close(fd);
    fail("short write to", error);
  }
  if (::close(fd) != 0) fail("cannot close", errno);
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

}  // namespace urmem
