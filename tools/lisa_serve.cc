/**
 * @file
 * lisa-serve: long-lived mapping daemon over a Unix domain socket.
 *
 * Usage:
 *   lisa-serve --socket /tmp/lisa.sock [--cache FILE] [--max-inflight N]
 *              [--threads N]
 *
 * Protocol: newline-delimited JSON (serve/proto.hh). Without --cache the
 * result cache lives in memory only; --threads defaults to 1. Prints
 * "lisa-serve: ready on <socket>" once accepting, exits on SIGINT /
 * SIGTERM or a client {"op":"shutdown"}.
 */

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "serve/server.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"

namespace {

/** Set by the handler; polled by main. The only async-signal-safe way
 *  to observe a signal from a multithreaded daemon. */
volatile std::sig_atomic_t g_signalled = 0;

void
onSignal(int)
{
    g_signalled = 1;
}

void
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " --socket PATH [--cache FILE] [--max-inflight N]"
                 " [--threads N]\n";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace lisa;

    std::string socket_path;
    serve::ServeConfig cfg;
    int threads = 0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::cerr << flag << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--socket")
            socket_path = value("--socket");
        else if (arg == "--cache")
            cfg.cacheFile = value("--cache");
        else if (arg == "--max-inflight")
            cfg.maxInflight = std::atoi(value("--max-inflight"));
        else if (arg == "--threads")
            threads = std::atoi(value("--threads"));
        else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::cerr << "unknown flag: " << arg << "\n";
            usage(argv[0]);
            return 2;
        }
    }
    if (socket_path.empty()) {
        usage(argv[0]);
        return 2;
    }
    if (threads > 0)
        ThreadPool::setGlobalThreads(threads);

    serve::MappingService service(cfg);
    serve::ServeServer server(service, socket_path);
    std::string error;
    if (!server.start(&error)) {
        std::cerr << "lisa-serve: " << error << "\n";
        return 1;
    }
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    // The CI smoke test and client scripts wait for this exact line.
    std::cout << "lisa-serve: ready on " << socket_path << std::endl;

    // Short-timeout poll so SIGINT/SIGTERM (observable only through the
    // sig_atomic_t flag) exits promptly too.
    while (!g_signalled && !server.waitForShutdown(0.2)) {
    }
    server.stop();
    const serve::ServeStats stats = service.stats();
    inform("lisa-serve: exiting; ", stats.toJson());
    return 0;
}
