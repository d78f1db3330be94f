#include "support/durable_io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace ucp::support {

namespace {

Status io_error(const std::string& what) {
  return Status(ErrorCode::kInternal, what + ": " + std::strerror(errno));
}

}  // namespace

Status fsync_fd(int fd, const std::string& what) {
  if (::fsync(fd) != 0) return io_error("fsync " + what);
  return Status::Ok();
}

Status fsync_parent(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return io_error("open directory '" + dir + "' for fsync");
  Status s = fsync_fd(fd, "directory '" + dir + "'");
  ::close(fd);
  return s;
}

}  // namespace ucp::support
