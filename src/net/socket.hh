/**
 * @file
 * Thin RAII wrappers over AF_UNIX stream sockets — just enough POSIX
 * for the c8td daemon and c8tctl client, kept in one place so the
 * rest of net/ deals in fds, frames and exceptions only.
 */

#ifndef C8T_NET_SOCKET_HH
#define C8T_NET_SOCKET_HH

#include <cstddef>
#include <optional>
#include <string>

namespace c8t::net
{

/** Owning socket/file descriptor (move-only; closes on destruction). */
class Fd
{
  public:
    Fd() = default;
    explicit Fd(int fd) : _fd(fd) {}
    ~Fd() { close(); }
    Fd(Fd &&other) noexcept : _fd(other._fd) { other._fd = -1; }
    Fd &operator=(Fd &&other) noexcept;
    Fd(const Fd &) = delete;
    Fd &operator=(const Fd &) = delete;

    int get() const { return _fd; }
    bool valid() const { return _fd >= 0; }
    /** Close now (idempotent). */
    void close();
    /** shutdown(2) the read side only. */
    void shutdownRead();

  private:
    int _fd = -1;
};

/**
 * Read up to @p n bytes from a blocking socket (one recv(2),
 * EINTR-retried).
 * @return bytes read; 0 = orderly EOF.
 * @throws std::runtime_error on a read error (except ECONNRESET,
 *         which is reported as EOF — a vanished peer and a closing
 *         peer are the same event to the daemon).
 */
std::size_t readSome(int fd, char *buf, std::size_t n);

/** readSome without blocking: nullopt when nothing is pending. */
std::optional<std::size_t> recvSome(int fd, char *buf, std::size_t n);

/** Write all @p n bytes (EINTR-retried, partial writes resumed).
 *  @throws std::runtime_error on error (including EPIPE). */
void writeAll(int fd, const char *buf, std::size_t n);

/** Write what the socket takes now without blocking.
 *  @return bytes written; 0 when its buffer is full.
 *  @throws std::runtime_error on error (including EPIPE). */
std::size_t sendSome(int fd, const char *buf, std::size_t n);

/** A listening AF_UNIX stream socket bound to @p path. */
class UnixListener
{
  public:
    /**
     * Bind + listen. An existing socket file at @p path is unlinked
     * first (stale socket from a killed daemon); the file is unlinked
     * again on destruction.
     * @throws std::runtime_error (with errno text) on failure, e.g. a
     *         path longer than sun_path.
     */
    explicit UnixListener(const std::string &path);
    ~UnixListener();
    UnixListener(const UnixListener &) = delete;
    UnixListener &operator=(const UnixListener &) = delete;

    /**
     * Accept one pending connection without blocking (the listener is
     * non-blocking). Returns an invalid Fd when none is pending
     * (errno EAGAIN) or the process is out of descriptors or memory
     * (errno EMFILE, ENFILE, ENOBUFS or ENOMEM).
     * @throws std::runtime_error on any other accept(2) error.
     */
    Fd accept();

    int fd() const { return _fd.get(); }
    const std::string &path() const { return _path; }

  private:
    std::string _path;
    Fd _fd;
};

/** Connect to the daemon at @p path.
 *  @throws std::runtime_error when nothing listens there. */
Fd connectUnix(const std::string &path);

} // namespace c8t::net

#endif // C8T_NET_SOCKET_HH
