#include "serve/server.hh"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "support/json.hh"
#include "support/logging.hh"
#include "support/stopwatch.hh"

namespace lisa::serve {

ServeServer::ServeServer(MappingService &service, std::string socket_path)
    : svc(service), path(std::move(socket_path))
{
}

ServeServer::~ServeServer()
{
    stop();
}

bool
ServeServer::start(std::string *error)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) {
        if (error)
            *error = "socket path too long: " + path;
        return false;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        if (error)
            *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    ::unlink(path.c_str()); // stale socket from a crashed predecessor
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) !=
            0 ||
        ::listen(fd, 64) != 0) {
        if (error)
            *error = std::string("bind/listen: ") + std::strerror(errno);
        ::close(fd);
        return false;
    }
    listenFd.store(fd, std::memory_order_release);
    acceptor = std::thread([this] { acceptLoop(); });
    return true;
}

void
ServeServer::acceptLoop()
{
    while (!shuttingDown.load(std::memory_order_acquire)) {
        const int fd = ::accept(
            listenFd.load(std::memory_order_acquire), nullptr, nullptr);
        if (fd < 0) {
            if (shuttingDown.load(std::memory_order_acquire))
                break; // stop() closed the listen fd
            if (errno == EINTR || errno == ECONNABORTED)
                continue; // transient: e.g. client gone before accept
            if (errno == EMFILE || errno == ENFILE) {
                // fd exhaustion is load, not a broken listener: back
                // off so in-flight connections can finish and release
                // fds, then keep accepting.
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(50));
                continue;
            }
            break; // unrecoverable listen-socket error
        }
        reapFinished();
        support::LockGuard lock(mu);
        if (stopped || shuttingDown.load(std::memory_order_acquire)) {
            ::close(fd);
            break;
        }
        conns.emplace(fd,
                      std::thread([this, fd] { connectionLoop(fd); }));
    }
}

void
ServeServer::connectionLoop(int fd)
{
    serveConnection(fd);
    releaseConnection(fd);
}

void
ServeServer::releaseConnection(int fd)
{
    support::LockGuard lock(mu);
    const auto it = conns.find(fd);
    if (it == conns.end())
        return; // stop() owns the entry now; it closes and joins
    ::close(fd);
    finished.push_back(std::move(it->second));
    conns.erase(it);
    // stop() may be waiting for the connection table to drain.
    shutdownCv.notify_all();
}

void
ServeServer::reapFinished()
{
    std::vector<std::thread> batch;
    {
        support::LockGuard lock(mu);
        batch.swap(finished);
    }
    for (std::thread &t : batch)
        t.join();
}

namespace {

/** Write all of @p data to @p fd. @return false when the peer is gone. */
bool
sendAll(int fd, const std::string &data)
{
    size_t off = 0;
    while (off < data.size()) {
        // MSG_NOSIGNAL: a client that hung up must surface as EPIPE
        // here, not as a process-killing SIGPIPE.
        const ssize_t w = ::send(fd, data.data() + off, data.size() - off,
                                 MSG_NOSIGNAL);
        if (w <= 0)
            return false;
        off += static_cast<size_t>(w);
    }
    return true;
}

/** Response line for a request over ServeServer::kMaxLineBytes. */
std::string
lineTooLong()
{
    return encodeError("request line exceeds " +
                       std::to_string(ServeServer::kMaxLineBytes) +
                       " bytes") +
           '\n';
}

} // namespace

void
ServeServer::serveConnection(int fd)
{
    std::string pending;
    // Bytes of `pending` already searched for '\n': each recv scans only
    // what it appended, so a long line costs O(n), not O(n^2).
    size_t scanned = 0;
    char buf[1 << 14];
    while (true) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0)
            break;
        pending.append(buf, static_cast<size_t>(n));
        size_t start = 0;
        size_t nl = 0;
        while ((nl = pending.find('\n', scanned)) != std::string::npos) {
            if (nl - start > kMaxLineBytes) {
                sendAll(fd, lineTooLong());
                return;
            }
            std::string line = pending.substr(start, nl - start);
            start = scanned = nl + 1;
            if (line.empty())
                continue;
            if (!sendAll(fd, handleLine(line) + '\n'))
                return;
            if (shuttingDown.load(std::memory_order_acquire)) {
                // Shutdown response is flushed; only now wake the main
                // thread, so stop() cannot race the last write.
                shutdownCv.notify_all();
                return;
            }
        }
        pending.erase(0, start);
        scanned = pending.size();
        if (pending.size() > kMaxLineBytes) {
            // A line this long is never a valid request, and buffering
            // it would let one client grow the daemon without bound.
            sendAll(fd, lineTooLong());
            return;
        }
    }
}

std::string
ServeServer::handleLine(const std::string &line)
{
    std::string error;
    auto doc = jsonParse(line, &error);
    if (!doc || !doc->isObject())
        return encodeError("bad request: " +
                           (error.empty() ? "not an object" : error));
    const std::string op = doc->str("op");
    if (op == "ping")
        return "{\"ok\":true,\"op\":\"ping\"}";
    if (op == "stats")
        return "{\"ok\":true,\"op\":\"stats\",\"stats\":" +
               svc.stats().toJson() + "}";
    if (op == "shutdown") {
        // Only the flag flips here; the notify happens after the
        // response line is flushed (connectionLoop) or in stop(), so a
        // socket client always receives the acknowledgement before the
        // daemon starts tearing connections down. Direct callers
        // (tests, in-process bench) observe shutdownRequested().
        shuttingDown.store(true, std::memory_order_release);
        return "{\"ok\":true,\"op\":\"shutdown\"}";
    }
    if (op == "map") {
        MapRequest req;
        if (!decodeMapRequest(*doc, req, &error))
            return encodeError(error);
        Stopwatch sw;
        const MapOutcome outcome = svc.map(req);
        return encodeMapResponse(outcome, sw.millis());
    }
    return encodeError("unknown op: " + op);
}

bool
ServeServer::shutdownRequested() const
{
    return shuttingDown.load(std::memory_order_acquire);
}

bool
ServeServer::waitForShutdown(double timeout_seconds)
{
    support::UniqueLock lock(mu);
    while (!shuttingDown.load(std::memory_order_acquire) && !stopped) {
        if (timeout_seconds < 0.0) {
            shutdownCv.wait(lock);
        } else {
            shutdownCv.wait_for(
                lock, std::chrono::duration<double>(timeout_seconds));
            break;
        }
    }
    return shuttingDown.load(std::memory_order_acquire) || stopped;
}

void
ServeServer::stop()
{
    {
        support::LockGuard lock(mu);
        if (stopped)
            return;
        stopped = true;
    }
    shuttingDown.store(true, std::memory_order_release);
    shutdownCv.notify_all();
    const int lfd = listenFd.exchange(-1);
    if (lfd >= 0) {
        // shutdown() unblocks a parked accept(); close() alone does not
        // on every kernel.
        ::shutdown(lfd, SHUT_RDWR);
        ::close(lfd);
    }
    if (acceptor.joinable())
        acceptor.join();
    {
        // Nudge every live handler off its recv(). Each one then closes
        // its own fd and parks its handle in `finished`; closing here
        // instead would race a handler still blocked on the fd.
        support::LockGuard lock(mu);
        for (const auto &conn : conns)
            ::shutdown(conn.first, SHUT_RDWR);
    }
    // Drain: join finished handlers until the connection table empties.
    while (true) {
        std::vector<std::thread> batch;
        {
            support::UniqueLock lock(mu);
            batch.swap(finished);
            if (batch.empty()) {
                if (conns.empty())
                    break;
                shutdownCv.wait(lock);
                continue;
            }
        }
        for (std::thread &t : batch)
            t.join();
    }
    ::unlink(path.c_str());
}

} // namespace lisa::serve
