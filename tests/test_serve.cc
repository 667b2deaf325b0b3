/**
 * @file
 * Serve-stack tests: cache store + LSRV persistence, MappingService
 * request flow (miss -> verified hit, permutation variants, verify-on-hit
 * eviction, restart warm-start), the coalescing guarantee (N identical
 * concurrent misses -> exactly one search), and the ServeServer protocol
 * dispatch (socket-free via handleLine plus real socket round trips,
 * including the request line cap).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "arch/arch_context.hh"
#include "dfg/canonical.hh"
#include "dfg/serialize.hh"
#include "mappers/sa_mapper.hh"
#include "mapping/portfolio.hh"
#include "serve/cache.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "support/json.hh"
#include "verify/mapping_io.hh"

namespace {

using namespace lisa;
using namespace lisa::serve;

const char *kKernel = "dfg k\n"
                      "node 0 load\n"
                      "node 1 load\n"
                      "node 2 mul\n"
                      "node 3 add\n"
                      "node 4 store\n"
                      "edge 0 2\n"
                      "edge 1 2\n"
                      "edge 2 3\n"
                      "edge 3 4\n"
                      "edge 3 3 1\n";

/** The same kernel with every node id permuted and edges reordered. */
const char *kKernelPermuted = "dfg other\n"
                              "node 0 store\n"
                              "node 1 add\n"
                              "node 2 mul\n"
                              "node 3 load\n"
                              "node 4 load\n"
                              "edge 1 1 1\n"
                              "edge 1 0\n"
                              "edge 2 1\n"
                              "edge 3 2\n"
                              "edge 4 2\n";

const char *kAccel = "accel cgra 4 4 1 left 4";

MapRequest
kernelRequest(const char *dfg_text = kKernel)
{
    MapRequest req;
    req.dfgText = dfg_text;
    req.accelSpec = kAccel;
    req.perIiBudget = 1.0;
    req.totalBudget = 2.0;
    req.seed = 1;
    return req;
}

std::string
tempPath(const char *name)
{
    return testing::TempDir() + name;
}

CacheEntry
sampleEntry(uint64_t dfg_hash)
{
    CacheEntry e;
    e.key = CacheKey{dfg_hash, 0xabcdefULL, "fast"};
    e.ii = 2;
    e.mii = 1;
    e.attempts = 42;
    e.searchSeconds = 0.5;
    e.winner = "SA";
    e.mappingText = "placeholder mapping bytes\n";
    return e;
}

TEST(MappingCache, InsertLookupErase)
{
    MappingCache cache;
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.lookup(CacheKey{1, 2, "fast"}), nullptr);

    auto entry = std::make_shared<CacheEntry>(sampleEntry(1));
    cache.insert(entry);
    EXPECT_EQ(cache.size(), 1u);
    auto found = cache.lookup(entry->key);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->winner, "SA");
    EXPECT_EQ(found->attempts, 42);

    // Distinct budget class, distinct entry.
    EXPECT_EQ(cache.lookup(CacheKey{1, 0xabcdefULL, "full"}), nullptr);

    EXPECT_TRUE(cache.erase(entry->key));
    EXPECT_FALSE(cache.erase(entry->key));
    EXPECT_EQ(cache.size(), 0u);
    // The handle returned before the erase stays valid.
    EXPECT_EQ(found->ii, 2);
}

TEST(MappingCache, SaveLoadRoundTrip)
{
    const std::string path = tempPath("lsrv_roundtrip.lsrv");
    std::remove(path.c_str());

    MappingCache cache;
    cache.insert(std::make_shared<CacheEntry>(sampleEntry(11)));
    cache.insert(std::make_shared<CacheEntry>(sampleEntry(22)));
    ASSERT_TRUE(cache.save(path));

    MappingCache loaded;
    ASSERT_TRUE(loaded.load(path));
    EXPECT_EQ(loaded.size(), 2u);
    auto entry = loaded.lookup(CacheKey{22, 0xabcdefULL, "fast"});
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->ii, 2);
    EXPECT_EQ(entry->mii, 1);
    EXPECT_EQ(entry->attempts, 42);
    EXPECT_DOUBLE_EQ(entry->searchSeconds, 0.5);
    EXPECT_EQ(entry->winner, "SA");
    EXPECT_EQ(entry->mappingText, "placeholder mapping bytes\n");
    std::remove(path.c_str());
}

TEST(MappingCache, LoadRejectsCorruptTruncatedAndWrongVersion)
{
    const std::string path = tempPath("lsrv_corrupt.lsrv");
    std::remove(path.c_str());
    MappingCache cache;
    cache.insert(std::make_shared<CacheEntry>(sampleEntry(5)));
    ASSERT_TRUE(cache.save(path));

    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    ASSERT_GT(bytes.size(), 16u);

    auto write_file = [&](const std::string &content) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(content.data(),
                  static_cast<std::streamsize>(content.size()));
    };

    // Flipped payload byte -> checksum mismatch, cache unchanged.
    std::string corrupt = bytes;
    corrupt[bytes.size() / 2] =
        static_cast<char>(corrupt[bytes.size() / 2] ^ 0x5a);
    write_file(corrupt);
    MappingCache c1;
    EXPECT_FALSE(c1.load(path));
    EXPECT_EQ(c1.size(), 0u);

    // Truncated file.
    write_file(bytes.substr(0, bytes.size() - 3));
    MappingCache c2;
    EXPECT_FALSE(c2.load(path));
    EXPECT_EQ(c2.size(), 0u);

    // Wrong magic.
    std::string magic = bytes;
    magic[0] = 'X';
    write_file(magic);
    MappingCache c3;
    EXPECT_FALSE(c3.load(path));

    // Missing file.
    std::remove(path.c_str());
    MappingCache c4;
    EXPECT_FALSE(c4.load(path));
}

TEST(MappingService, MissThenVerifiedHitAndPermutationVariant)
{
    ServeConfig cfg;
    cfg.cacheFile.clear(); // in-memory only
    MappingService service(cfg);

    const MapOutcome miss = service.map(kernelRequest());
    ASSERT_TRUE(miss.ok) << miss.error;
    EXPECT_FALSE(miss.cacheHit);
    EXPECT_TRUE(miss.verified);
    EXPECT_GT(miss.ii, 0);
    EXPECT_GT(miss.attempts, 0);
    EXPECT_EQ(miss.budgetClass, "fast");
    EXPECT_FALSE(miss.mappingText.empty());

    const MapOutcome hit = service.map(kernelRequest());
    ASSERT_TRUE(hit.ok) << hit.error;
    EXPECT_TRUE(hit.cacheHit);
    EXPECT_TRUE(hit.verified);
    EXPECT_EQ(hit.ii, miss.ii);

    // The same graph under a different node numbering is the same cache
    // line; the served mapping is expressed in the *request's* ids.
    const MapOutcome variant = service.map(kernelRequest(kKernelPermuted));
    ASSERT_TRUE(variant.ok) << variant.error;
    EXPECT_TRUE(variant.cacheHit);
    EXPECT_TRUE(variant.verified);
    EXPECT_EQ(variant.ii, miss.ii);
    auto loaded = verify::mappingFromText(variant.mappingText);
    ASSERT_TRUE(loaded.has_value());
    // Node 0 of the permuted request is the store; the mapping artifact
    // must be in request numbering, so its DFG matches the request text.
    auto request_dfg = dfg::fromText(kKernelPermuted);
    ASSERT_TRUE(request_dfg.has_value());
    EXPECT_EQ(loaded->dfg->node(0).op, request_dfg->node(0).op);

    // A different budget class is a different cache line.
    MapRequest full = kernelRequest();
    full.totalBudget = 30.0;
    const MapOutcome other_class = service.map(full);
    ASSERT_TRUE(other_class.ok) << other_class.error;
    EXPECT_FALSE(other_class.cacheHit);
    EXPECT_EQ(other_class.budgetClass, "full");

    const ServeStats stats = service.stats();
    EXPECT_EQ(stats.requests, 4);
    EXPECT_EQ(stats.hits, 2);
    EXPECT_EQ(stats.misses, 2);
    EXPECT_EQ(stats.searches, 2);
    EXPECT_EQ(stats.verifyFailures, 0);
}

TEST(MappingService, RejectsMalformedRequests)
{
    ServeConfig cfg;
    cfg.cacheFile.clear();
    MappingService service(cfg);

    MapRequest bad_dfg = kernelRequest("not a dfg\n");
    const MapOutcome o1 = service.map(bad_dfg);
    EXPECT_FALSE(o1.ok);
    EXPECT_NE(o1.error.find("dfg"), std::string::npos);

    MapRequest bad_accel = kernelRequest();
    bad_accel.accelSpec = "accel warp 9";
    const MapOutcome o2 = service.map(bad_accel);
    EXPECT_FALSE(o2.ok);
    EXPECT_NE(o2.error.find("accel"), std::string::npos);
}

TEST(MappingService, VerifyOnHitEvictsCorruptEntriesAndResearches)
{
    ServeConfig cfg;
    cfg.cacheFile.clear();
    MappingService service(cfg);

    // Plant a corrupt entry under exactly the key the request computes.
    auto request_dfg = dfg::fromText(kKernel);
    ASSERT_TRUE(request_dfg.has_value());
    auto accel = verify::accelFromSpec(kAccel);
    ASSERT_NE(accel, nullptr);
    arch::ArchContext context(*accel);
    map::SearchOptions options;
    options.perIiBudget = 1.0;
    options.totalBudget = 2.0;
    auto bogus = std::make_shared<CacheEntry>();
    bogus->key = CacheKey{dfg::canonicalHash(*request_dfg),
                          context.fingerprint(),
                          map::budgetClassKey(options)};
    bogus->ii = 1;
    bogus->winner = "SA";
    bogus->mappingText = "these are not the bytes you are looking for";
    service.cache().insert(bogus);

    // The corrupt bytes must never be served: the replay fails, the
    // entry is evicted, and the request falls through to a real search.
    const MapOutcome out = service.map(kernelRequest());
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_FALSE(out.cacheHit);
    EXPECT_TRUE(out.verified);
    const ServeStats stats = service.stats();
    EXPECT_EQ(stats.verifyFailures, 1);
    EXPECT_EQ(stats.searches, 1);

    // The re-searched entry replaced the corrupt one.
    const MapOutcome again = service.map(kernelRequest());
    EXPECT_TRUE(again.cacheHit);
    EXPECT_TRUE(again.verified);
}

TEST(MappingService, CachePersistsAcrossRestart)
{
    const std::string path = tempPath("serve_restart.lsrv");
    std::remove(path.c_str());

    int first_ii = 0;
    {
        ServeConfig cfg;
        cfg.cacheFile = path;
        MappingService service(cfg);
        const MapOutcome out = service.map(kernelRequest());
        ASSERT_TRUE(out.ok) << out.error;
        EXPECT_FALSE(out.cacheHit);
        first_ii = out.ii;
        // map() persists eagerly; the dtor save is belt and braces.
    }
    {
        ServeConfig cfg;
        cfg.cacheFile = path;
        MappingService service(cfg);
        const MapOutcome out = service.map(kernelRequest());
        ASSERT_TRUE(out.ok) << out.error;
        EXPECT_TRUE(out.cacheHit) << "restart lost the cache";
        EXPECT_TRUE(out.verified);
        EXPECT_EQ(out.ii, first_ii);
        EXPECT_EQ(service.stats().searches, 0);
    }
    std::remove(path.c_str());
}

TEST(MappingService, CoalescesConcurrentIdenticalMisses)
{
    constexpr int kThreads = 4;
    ServeConfig cfg;
    cfg.cacheFile.clear();
    MappingService service(cfg);

    // Gated backend: the one leader's search refuses to finish until all
    // other requesters have registered as coalesced, so no follower can
    // sneak in late and find a warm cache. Invocations are counted to
    // prove "N identical concurrent misses -> exactly one search".
    std::atomic<int> invocations{0};
    service.setSearchFn([&](const dfg::Dfg &dfg, arch::ArchContext &context,
                            const map::SearchOptions &options) {
        invocations.fetch_add(1);
        while (service.stats().coalesced < kThreads - 1)
            std::this_thread::yield();
        map::PortfolioSearch race(context);
        race.addMember("SA", std::make_unique<map::SaMapper>(), options);
        return race.run(dfg);
    });

    std::vector<MapOutcome> outcomes(kThreads);
    {
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t)
            threads.emplace_back([&, t] {
                outcomes[static_cast<size_t>(t)] =
                    service.map(kernelRequest());
            });
        for (auto &t : threads)
            t.join();
    }

    EXPECT_EQ(invocations.load(), 1);
    int coalesced = 0;
    for (const MapOutcome &out : outcomes) {
        ASSERT_TRUE(out.ok) << out.error;
        EXPECT_TRUE(out.verified);
        EXPECT_FALSE(out.cacheHit);
        EXPECT_EQ(out.ii, outcomes[0].ii);
        coalesced += out.coalesced ? 1 : 0;
    }
    EXPECT_EQ(coalesced, kThreads - 1);
    const ServeStats stats = service.stats();
    EXPECT_EQ(stats.searches, 1);
    EXPECT_EQ(stats.misses, kThreads);
    EXPECT_EQ(stats.coalesced, kThreads - 1);
}

TEST(ServeProto, DecodeValidatesMapRequests)
{
    MapRequest req;
    std::string error;
    EXPECT_TRUE(decodeMapRequest(
        "{\"op\":\"map\",\"dfg\":\"dfg k\\nnode 0 load\\n\","
        "\"accel\":\"accel cgra 4 4 1 left 4\","
        "\"perIiBudget\":1.5,\"totalBudget\":9,\"seed\":3}",
        req, &error))
        << error;
    EXPECT_EQ(req.accelSpec, kAccel);
    EXPECT_DOUBLE_EQ(req.perIiBudget, 1.5);
    EXPECT_DOUBLE_EQ(req.totalBudget, 9.0);
    EXPECT_EQ(req.seed, 3u);

    EXPECT_FALSE(decodeMapRequest("{\"op\":\"map\"}", req, &error));
    EXPECT_FALSE(decodeMapRequest(
        "{\"op\":\"map\",\"dfg\":\"x\",\"accel\":\"y\","
        "\"totalBudget\":-1}",
        req, &error));
    EXPECT_FALSE(decodeMapRequest("{\"op\":\"ping\"}", req, &error));
}

TEST(ServeServer, HandleLineDispatch)
{
    ServeConfig cfg;
    cfg.cacheFile.clear();
    MappingService service(cfg);
    ServeServer server(service, tempPath("serve_dispatch.sock"));

    EXPECT_EQ(server.handleLine("{\"op\":\"ping\"}"),
              "{\"ok\":true,\"op\":\"ping\"}");
    EXPECT_NE(server.handleLine("{\"op\":\"stats\"}").find("\"requests\":0"),
              std::string::npos);
    EXPECT_NE(server.handleLine("not json").find("\"ok\":false"),
              std::string::npos);
    EXPECT_NE(server.handleLine("{\"op\":\"warp\"}").find("unknown op"),
              std::string::npos);

    // A full map round trip through the protocol layer.
    std::string line = "{\"op\":\"map\",\"dfg\":\"";
    line += jsonEscape(kKernel);
    line += "\",\"accel\":\"";
    line += kAccel;
    line += "\",\"perIiBudget\":1,\"totalBudget\":2,\"seed\":1}";
    auto response = jsonParse(server.handleLine(line));
    ASSERT_NE(response, nullptr);
    EXPECT_TRUE(response->flag("ok"));
    EXPECT_FALSE(response->flag("cacheHit"));
    EXPECT_TRUE(response->flag("verified"));
    response = jsonParse(server.handleLine(line));
    ASSERT_NE(response, nullptr);
    EXPECT_TRUE(response->flag("cacheHit"));

    EXPECT_FALSE(server.shutdownRequested());
    EXPECT_NE(server.handleLine("{\"op\":\"shutdown\"}").find("\"ok\":true"),
              std::string::npos);
    EXPECT_TRUE(server.shutdownRequested());
    EXPECT_TRUE(server.waitForShutdown(0.0));
}

TEST(ServeServer, SocketRoundTrip)
{
    ServeConfig cfg;
    cfg.cacheFile.clear();
    MappingService service(cfg);
    const std::string path = tempPath("serve_socket.sock");
    ServeServer server(service, path);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    ASSERT_LT(path.size(), sizeof addr.sun_path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof addr),
              0);
    const char *ping = "{\"op\":\"ping\"}\n";
    ASSERT_EQ(::send(fd, ping, std::strlen(ping), MSG_NOSIGNAL),
              static_cast<ssize_t>(std::strlen(ping)));
    std::string got;
    char buf[256];
    while (got.find('\n') == std::string::npos) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        ASSERT_GT(n, 0);
        got.append(buf, static_cast<size_t>(n));
    }
    EXPECT_EQ(got, "{\"ok\":true,\"op\":\"ping\"}\n");
    ::close(fd);
    server.stop();
    EXPECT_TRUE(server.waitForShutdown(0.0));
}

size_t
openFdCount()
{
    size_t n = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc/self/fd")) {
        (void)entry;
        ++n;
    }
    return n;
}

/** Open a client connection to the server socket at @p path.
 *  @return the fd, or -1. */
int
connectTo(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path)
        return -1;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Connect to @p path and complete one ping round trip, so the server
 *  has provably accepted and served the connection. @return the fd. */
int
pingConnection(const std::string &path)
{
    const int fd = connectTo(path);
    if (fd < 0)
        return -1;
    const char *ping = "{\"op\":\"ping\"}\n";
    if (::send(fd, ping, std::strlen(ping), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(std::strlen(ping))) {
        ::close(fd);
        return -1;
    }
    std::string got;
    char buf[256];
    while (got.find('\n') == std::string::npos) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0) {
            ::close(fd);
            return -1;
        }
        got.append(buf, static_cast<size_t>(n));
    }
    return fd;
}

// Regression: the daemon must release a connection's fd (and reap its
// handler thread) when the client disconnects, not hoard both until
// stop() — a long-lived process would otherwise hit EMFILE and stop
// accepting.
TEST(ServeServer, ReleasesConnectionFdsOnClientDisconnect)
{
    ServeConfig cfg;
    cfg.cacheFile.clear();
    MappingService service(cfg);
    const std::string path = tempPath("serve_fd_release.sock");
    ServeServer server(service, path);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    const size_t baseline = openFdCount();
    for (int i = 0; i < 32; ++i) {
        const int fd = pingConnection(path);
        ASSERT_GE(fd, 0) << "cycle " << i;
        ::close(fd);
    }

    // The handler closes its side asynchronously after the client hangs
    // up; poll with a deadline rather than sleeping a fixed amount.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (openFdCount() > baseline &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_LE(openFdCount(), baseline);

    server.stop();
}

// A client that never sends '\n' must not grow the daemon's line buffer
// without bound: a line over the cap gets a protocol error and a closed
// connection, and the daemon keeps serving other clients.
TEST(ServeServer, OverlongLineGetsProtocolErrorAndClose)
{
    ServeConfig cfg;
    cfg.cacheFile.clear();
    MappingService service(cfg);
    const std::string path = tempPath("serve_overlong.sock");
    ServeServer server(service, path);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    const int fd = connectTo(path);
    ASSERT_GE(fd, 0);
    // An uncapped server never answers: bound both directions so the test
    // fails instead of hanging.
    const timeval timeout{10, 0};
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                           sizeof timeout),
              0);
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout,
                           sizeof timeout),
              0);

    const std::string chunk(size_t{1} << 16, 'x');
    size_t sent = 0;
    while (sent <= 2 * ServeServer::kMaxLineBytes) {
        const ssize_t w =
            ::send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL);
        if (w <= 0)
            break; // the server answered and closed
        sent += static_cast<size_t>(w);
    }
    EXPECT_GT(sent, ServeServer::kMaxLineBytes);

    std::string got;
    char buf[256];
    while (got.find('\n') == std::string::npos) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0)
            break;
        got.append(buf, static_cast<size_t>(n));
    }
    EXPECT_EQ(got, "{\"ok\":false,\"error\":\"request line exceeds " +
                       std::to_string(ServeServer::kMaxLineBytes) +
                       " bytes\"}\n");
    // ...and then the connection is closed (EOF or reset, not a timeout).
    errno = 0;
    EXPECT_LE(::recv(fd, buf, sizeof buf, 0), 0);
    EXPECT_NE(errno, EAGAIN);
    ::close(fd);

    const int other = pingConnection(path);
    EXPECT_GE(other, 0);
    if (other >= 0)
        ::close(other);
    server.stop();
}

} // namespace
