/**
 * @file
 * ServeServer: Unix-domain-socket front end for MappingService.
 *
 * Transport only — every request line is handed to handleLine(), which
 * is also callable directly (tests and the in-process bench bypass the
 * socket without losing protocol coverage). One accept loop thread, one
 * thread per connection, newline-delimited JSON both ways; a connection
 * handles any number of requests sequentially, each at most
 * kMaxLineBytes long. The "shutdown" op flips the server into draining
 * mode: the accept loop stops, and waitForShutdown() (the daemon main's
 * park point) returns.
 */

#ifndef LISA_SERVE_SERVER_HH
#define LISA_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "serve/service.hh"

namespace lisa::serve {

/** NDJSON-over-UDS listener in front of one MappingService. */
class ServeServer
{
  public:
    /** Longest request line accepted, in bytes without the '\n'. A
     *  connection that sends a longer line gets one protocol error
     *  response and is closed. Far above any real request: the largest
     *  PolyBench map request (symm unrolled 4x) is about 3 KB. */
    static constexpr size_t kMaxLineBytes = size_t{1} << 20;

    /** @p service must outlive the server. */
    ServeServer(MappingService &service, std::string socket_path);
    ~ServeServer();

    ServeServer(const ServeServer &) = delete;
    ServeServer &operator=(const ServeServer &) = delete;

    /** Bind + listen + start the accept loop. @return false (and fills
     *  @p error) when the socket cannot be created. */
    bool start(std::string *error = nullptr);

    /** Stop accepting, close every connection, join all threads, and
     *  unlink the socket file. Idempotent. */
    void stop();

    /** True once a {"op":"shutdown"} request arrived or stop() ran. */
    bool shutdownRequested() const;

    /**
     * Wait up to @p timeout_seconds (forever when negative) for a
     * shutdown request. @return shutdownRequested(). Daemon mains poll
     * with a short timeout so POSIX signals (observed via a
     * sig_atomic_t flag, the only async-signal-safe option) also get a
     * timely exit.
     */
    bool waitForShutdown(double timeout_seconds = -1.0);

    /**
     * Execute one protocol line and return the response line (without
     * trailing newline). Public so tests and benches can exercise the
     * full dispatch without a socket.
     */
    std::string handleLine(const std::string &line);

  private:
    void acceptLoop();
    void connectionLoop(int fd);
    /** Request/response I/O until the peer disconnects. */
    void serveConnection(int fd);
    /** Handler-side teardown: close the fd, drop the conns entry, and
     *  park the thread handle in `finished` for joining. No-op when
     *  stop() already took ownership of the entry. */
    void releaseConnection(int fd) LISA_EXCLUDES(mu);
    /** Join every thread parked in `finished` (all have exited their
     *  connection; joins are immediate). */
    void reapFinished() LISA_EXCLUDES(mu);

    MappingService &svc;
    std::string path;
    /** Atomic because stop() retires it (exchange to -1) while the
     *  accept loop is reading it for the next accept(). */
    std::atomic<int> listenFd{-1};
    std::atomic<bool> shuttingDown{false};

    support::Mutex mu;
    /** Live connections: fd -> its handler thread. An entry owns both;
     *  whoever erases it is responsible for the fd and the join. */
    std::map<int, std::thread> conns LISA_GUARDED_BY(mu);
    /** Handlers that finished their connection and parked their thread
     *  handle for joining (reaped in acceptLoop and stop()). */
    std::vector<std::thread> finished LISA_GUARDED_BY(mu);
    bool stopped LISA_GUARDED_BY(mu) = false;
    std::thread acceptor; ///< joined by stop(); set once in start()
    std::condition_variable_any shutdownCv;
};

} // namespace lisa::serve

#endif // LISA_SERVE_SERVER_HH
