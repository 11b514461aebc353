/**
 * @file
 * AF_UNIX socket wrapper implementation.
 */

#include "net/socket.hh"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace c8t::net
{

namespace
{

[[noreturn]] void
throwErrno(const std::string &what)
{
    throw std::runtime_error(what + ": " + std::strerror(errno));
}

sockaddr_un
makeAddr(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        throw std::runtime_error("socket path too long (" +
                                 std::to_string(path.size()) + " > " +
                                 std::to_string(sizeof(addr.sun_path) -
                                                1) +
                                 "): " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return addr;
}

/** One recv(2), EINTR-retried: the bytes read, 0 at EOF, -1 when a
 *  non-blocking read finds nothing. ECONNRESET reads as EOF: a
 *  vanished peer and a closing peer are the same event to the daemon. */
ssize_t
recvOnce(int fd, char *buf, std::size_t n, int flags)
{
    for (;;) {
        const ssize_t r = ::recv(fd, buf, n, flags);
        if (r >= 0 || errno == EAGAIN || errno == EWOULDBLOCK)
            return r;
        if (errno == ECONNRESET)
            return 0;
        if (errno != EINTR)
            throwErrno("read");
    }
}

} // anonymous namespace

Fd &
Fd::operator=(Fd &&other) noexcept
{
    if (this != &other) {
        close();
        _fd = other._fd;
        other._fd = -1;
    }
    return *this;
}

void
Fd::close()
{
    if (_fd >= 0) {
        ::close(_fd);
        _fd = -1;
    }
}

void
Fd::shutdownRead()
{
    if (_fd >= 0)
        ::shutdown(_fd, SHUT_RD);
}

std::size_t
readSome(int fd, char *buf, std::size_t n)
{
    return static_cast<std::size_t>(recvOnce(fd, buf, n, 0));
}

std::optional<std::size_t>
recvSome(int fd, char *buf, std::size_t n)
{
    const ssize_t r = recvOnce(fd, buf, n, MSG_DONTWAIT);
    if (r < 0)
        return std::nullopt;
    return static_cast<std::size_t>(r);
}

void
writeAll(int fd, const char *buf, std::size_t n)
{
    std::size_t off = 0;
    while (off < n) {
        // MSG_NOSIGNAL: a vanished peer must be an EPIPE exception,
        // not a process-killing SIGPIPE.
        const ssize_t w =
            ::send(fd, buf + off, n - off, MSG_NOSIGNAL);
        if (w >= 0) {
            off += static_cast<std::size_t>(w);
            continue;
        }
        if (errno == EINTR)
            continue;
        throwErrno("write");
    }
}

std::size_t
sendSome(int fd, const char *buf, std::size_t n)
{
    for (;;) {
        // The daemon's disconnect detection lives on the EPIPE path.
        const ssize_t w = ::send(fd, buf, n, MSG_NOSIGNAL | MSG_DONTWAIT);
        if (w >= 0)
            return static_cast<std::size_t>(w);
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return 0;
        if (errno != EINTR)
            throwErrno("write");
    }
}

UnixListener::UnixListener(const std::string &path) : _path(path)
{
    const sockaddr_un addr = makeAddr(path);
    Fd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
    if (!fd.valid())
        throwErrno("socket");
    // A stale socket file from a killed daemon would make bind fail;
    // removing it first is the conventional Unix-socket dance.
    ::unlink(path.c_str());
    if (::bind(fd.get(), reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0)
        throwErrno("bind " + path);
    if (::listen(fd.get(), 64) != 0)
        throwErrno("listen " + path);
    _fd = std::move(fd);
}

UnixListener::~UnixListener()
{
    _fd.close();
    ::unlink(_path.c_str());
}

Fd
UnixListener::accept()
{
    for (;;) {
        const int conn = ::accept4(_fd.get(), nullptr, nullptr, SOCK_CLOEXEC);
        if (conn >= 0)
            return Fd(conn);
        if (errno == EINTR || errno == ECONNABORTED)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EMFILE ||
            errno == ENFILE || errno == ENOBUFS || errno == ENOMEM)
            return Fd{};
        throwErrno("accept");
    }
}

Fd
connectUnix(const std::string &path)
{
    const sockaddr_un addr = makeAddr(path);
    Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid())
        throwErrno("socket");
    if (::connect(fd.get(), reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0)
        throwErrno("connect " + path);
    return fd;
}

} // namespace c8t::net
