/**
 * @file
 * Serve-stack tests: cache store + LSRV journal persistence (round trip,
 * concurrent writers, failed writes, cut and flipped files, a record whose
 * mapping text does not decode), MappingService request flow (miss ->
 * verified hit, permutation variants, hit bytes equal to a from-text
 * reference replay, concurrent hits on one decoded entry, verify-on-hit
 * eviction, restart warm-start, one appended record per miss, torn-tail
 * repair, counted write failures, oversized requests), the coalescing
 * guarantee (N identical concurrent misses -> exactly one search), and
 * the ServeServer protocol dispatch (socket-free via handleLine plus real
 * socket round trips, including the request line cap).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "arch/arch_context.hh"
#include "arch/cgra.hh"
#include "dfg/analysis.hh"
#include "dfg/canonical.hh"
#include "dfg/serialize.hh"
#include "mappers/sa_mapper.hh"
#include "mapping/ii_search.hh"
#include "mapping/portfolio.hh"
#include "serve/cache.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "support/json.hh"
#include "support/random.hh"
#include "verify/mapping_io.hh"
#include "workloads/registry.hh"

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

/** Bytes one LSRV v2 record of @p e takes: u64 length, the payload
 *  (two u64 key hashes, three length-prefixed strings, ii and mii as u32,
 *  attempts and searchSeconds as u64) and a u64 checksum. */
size_t
recordBytes(const CacheEntry &e)
{
    return 8 + (8 + 8 + 8 + e.key.budgetKey.size() + 4 + 4 + 8 + 8 + 8 +
                e.winner.size() + 8 + e.mappingText.size()) +
           8;
}

constexpr size_t kHeaderBytes = 8; // "LSRV", u32 version

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** Inode of @p path: a tmp + rename rewrite gives the path a new one. */
ino_t
inodeOf(const std::string &path)
{
    struct stat st{};
    EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
    return st.st_ino;
}

void
writeBytes(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
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

TEST(MappingCache, ConcurrentSavesAndAppendsStayLoadable)
{
    const std::string path = tempPath("lsrv_concurrent.lsrv");
    std::remove(path.c_str());
    constexpr int kThreads = 4;
    constexpr int kPerThread = 30;

    // Each writer inserts its own entries and persists every one, by a
    // compaction or an append; saves and appends on one path interleave.
    MappingCache cache;
    {
        std::vector<std::thread> writers;
        for (int t = 0; t < kThreads; ++t)
            writers.emplace_back([&, t] {
                for (int i = 0; i < kPerThread; ++i) {
                    auto entry = std::make_shared<CacheEntry>(
                        sampleEntry(static_cast<uint64_t>(t * 1000 + i)));
                    cache.insert(entry);
                    if ((i + t) % 3 == 0)
                        EXPECT_TRUE(cache.save(path));
                    else
                        EXPECT_TRUE(cache.append(path, *entry));
                }
            });
        for (auto &w : writers)
            w.join();
    }

    MappingCache loaded;
    EXPECT_TRUE(loaded.load(path));
    EXPECT_EQ(loaded.size(), static_cast<size_t>(kThreads * kPerThread));
    for (int t = 0; t < kThreads; ++t)
        for (int i = 0; i < kPerThread; ++i)
            EXPECT_NE(loaded.lookup(CacheKey{
                          static_cast<uint64_t>(t * 1000 + i), 0xabcdefULL,
                          "fast"}),
                      nullptr);
    std::remove(path.c_str());
}

TEST(MappingCache, FailedAppendCompactsOnTheNextWrite)
{
    const std::string path = tempPath("lsrv_failed_append.lsrv");
    std::filesystem::remove_all(path);
    MappingCache cache;
    auto first = std::make_shared<CacheEntry>(sampleEntry(1));
    auto second = std::make_shared<CacheEntry>(sampleEntry(2));
    cache.insert(first);
    ASSERT_TRUE(cache.append(path, *first));
    const std::string journal = readBytes(path);

    // A write that fails (here: the path is briefly a directory) may
    // have left a torn record behind, as a full disk would.
    std::filesystem::remove(path);
    std::filesystem::create_directory(path);
    cache.insert(second);
    EXPECT_FALSE(cache.append(path, *second));
    std::filesystem::remove(path);
    writeBytes(path, journal + std::string("\x40\0\0", 3));

    // So the next write compacts instead of appending behind the tear.
    ASSERT_TRUE(cache.append(path, *second));
    MappingCache loaded;
    EXPECT_TRUE(loaded.load(path));
    EXPECT_EQ(loaded.size(), 2u);
    std::remove(path.c_str());
}

TEST(MappingCache, CutOrFlippedJournalLoadsAVerifiedPrefix)
{
    const std::string path = tempPath("lsrv_fuzz.lsrv");
    std::remove(path.c_str());
    std::vector<CacheEntry> written;
    MappingCache cache;
    for (uint64_t h = 1; h <= 3; ++h) {
        written.push_back(sampleEntry(h));
        written.back().mappingText += std::string(h, 'x');
        ASSERT_TRUE(cache.append(path, written.back()));
    }
    const std::string bytes = readBytes(path);
    // ends[k] = file offset where record k ends.
    std::vector<size_t> ends{kHeaderBytes};
    for (const CacheEntry &e : written)
        ends.push_back(ends.back() + recordBytes(e));
    ASSERT_EQ(ends.back(), bytes.size());

    // Loads @p content; checks it holds exactly the first @p prefix
    // records, byte for byte, and reports a clean load iff @p clean.
    const auto expect_prefix = [&](const std::string &content,
                                   size_t prefix, bool clean,
                                   const std::string &what) {
        writeBytes(path, content);
        MappingCache c;
        EXPECT_EQ(c.load(path), clean) << what;
        EXPECT_EQ(c.size(), prefix) << what;
        for (size_t k = 0; k < written.size(); ++k) {
            auto got = c.lookup(written[k].key);
            if (k >= prefix) {
                EXPECT_EQ(got, nullptr) << what;
                continue;
            }
            ASSERT_NE(got, nullptr) << what;
            EXPECT_EQ(got->mappingText, written[k].mappingText) << what;
            EXPECT_EQ(got->attempts, written[k].attempts) << what;
        }
    };

    // A file cut at every offset keeps the records wholly before the cut
    // and is clean only when the cut falls on a record boundary.
    for (size_t cut = 0; cut <= bytes.size(); ++cut) {
        size_t prefix = 0;
        while (prefix < written.size() && ends[prefix + 1] <= cut)
            ++prefix;
        const bool boundary =
            std::find(ends.begin(), ends.end(), cut) != ends.end();
        expect_prefix(bytes.substr(0, cut), prefix, boundary,
                      "cut at " + std::to_string(cut));
    }

    // One flipped byte loses its own record and every one after it; a
    // flip in the header loses them all.
    Rng rng(2024);
    for (int trial = 0; trial < 500; ++trial) {
        const size_t at = rng.index(bytes.size());
        std::string flipped = bytes;
        flipped[at] = static_cast<char>(
            flipped[at] ^ static_cast<char>(rng.uniformInt(1, 255)));
        size_t prefix = 0;
        while (at >= kHeaderBytes && ends[prefix + 1] <= at)
            ++prefix;
        expect_prefix(flipped, prefix, false,
                      "flip at " + std::to_string(at));
    }
    std::remove(path.c_str());
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

TEST(MappingService, AccelSpellingsOfOneFabricShareItsEntry)
{
    ServeConfig cfg;
    cfg.cacheFile.clear();
    MappingService service(cfg);
    std::vector<const arch::ArchContext *> contexts;
    service.setSearchFn([&](const dfg::Dfg &dfg, arch::ArchContext &context,
                            const map::SearchOptions &options) {
        contexts.push_back(&context);
        map::PortfolioSearch race(context);
        race.addMember("SA", std::make_unique<map::SaMapper>(), options);
        return race.run(dfg);
    });

    // kAccel is canonical (accelSpecOf's own line); the other spellings
    // parse to the same fabric. Each request carries a new kernel, so
    // each one misses and searches on the context its spec resolved to.
    const char *kernels[] = {
        kKernel,
        "dfg a\nnode 0 load\nnode 1 add\nnode 2 store\n"
        "edge 0 1\nedge 1 2\n",
        "dfg b\nnode 0 load\nnode 1 mul\nnode 2 store\n"
        "edge 0 1\nedge 1 2\n",
        "dfg c\nnode 0 load\nnode 1 sub\nnode 2 store\n"
        "edge 0 1\nedge 1 2\n",
    };
    const char *spellings[] = {kAccel, "  accel\tcgra 4 4 01 left +4",
                               "accel cgra 4 4 1 left 4 trailing",
                               kAccel};
    for (size_t i = 0; i < std::size(kernels); ++i) {
        MapRequest req = kernelRequest(kernels[i]);
        req.accelSpec = spellings[i];
        const MapOutcome out = service.map(req);
        ASSERT_TRUE(out.ok) << spellings[i] << ": " << out.error;
        EXPECT_FALSE(out.cacheHit);
    }
    ASSERT_EQ(contexts.size(), std::size(kernels));
    for (const arch::ArchContext *context : contexts)
        EXPECT_EQ(context, contexts[0]);
    EXPECT_EQ(verify::accelSpecOf(contexts[0]->accel()), kAccel);
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

    // DFG text that must fail closed: an unknown op, a negative
    // iteration distance and one far above the decoder's bound.
    for (const char *text :
         {"dfg k\nnode 0 frobnicate\n",
          "dfg k\nnode 0 load\nnode 1 store\nedge 0 1 -1\n",
          "dfg k\nnode 0 load\nnode 1 add\nnode 2 store\nedge 0 1\n"
          "edge 1 2\nedge 1 1 2000000000\n"}) {
        const MapOutcome out = service.map(kernelRequest(text));
        EXPECT_FALSE(out.ok) << text;
        EXPECT_EQ(out.error.rfind("dfg: ", 0), 0u) << out.error;
    }
    EXPECT_EQ(service.stats().misses, 0);

    // The service still serves a good request afterwards.
    const MapOutcome good = service.map(kernelRequest());
    ASSERT_TRUE(good.ok) << good.error;
    EXPECT_TRUE(good.verified);
}

TEST(MappingService, RejectsOversizedAccelSpecBeforeBuildingIt)
{
    ServeConfig cfg;
    cfg.cacheFile.clear();
    MappingService service(cfg);

    for (const char *spec : {"accel cgra 200000 200000 4 all 24",
                             "accel cgra 33 33 4 all 24",
                             "accel systolic 2147483647 2147483647"}) {
        MapRequest req = kernelRequest();
        req.accelSpec = spec;
        const MapOutcome out = service.map(req);
        EXPECT_FALSE(out.ok) << spec;
        EXPECT_EQ(out.error.rfind("accel: ", 0), 0u) << out.error;
    }
    EXPECT_EQ(service.stats().misses, 0);
}

TEST(MappingService, RejectsOversizedDfgBeforeCanonicalizing)
{
    ServeConfig cfg;
    cfg.cacheFile.clear();
    MappingService service(cfg);

    // A chain one node over the decoder's bound.
    std::string text = "dfg big\nnode 0 load\n";
    for (size_t v = 1; v <= dfg::kMaxTextNodes; ++v)
        text += "node " + std::to_string(v) + " add\nedge " +
                std::to_string(v - 1) + " " + std::to_string(v) + "\n";
    const MapOutcome out = service.map(kernelRequest(text.c_str()));
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.error.rfind("dfg: ", 0), 0u) << out.error;
    EXPECT_NE(out.error.find("more than"), std::string::npos) << out.error;
    EXPECT_EQ(service.stats().misses, 0);
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

TEST(MappingService, WarmStartReportsEntryCount)
{
    const std::string path = tempPath("serve_warm_report.lsrv");
    std::remove(path.c_str());
    {
        ServeConfig cfg;
        cfg.cacheFile = path;
        MappingService service(cfg);
        ASSERT_TRUE(service.map(kernelRequest()).ok);
    }
    ServeConfig cfg;
    cfg.cacheFile = path;
    testing::internal::CaptureStderr();
    {
        MappingService service(cfg);
    }
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("[info] lisa-serve: warm-started 1 cache entries "
                       "from " +
                       path),
              std::string::npos)
        << err;
    std::remove(path.c_str());
}

/** A load -> add (x @p adds) -> store chain: distinct @p adds give
 *  distinct cache keys. */
std::string
chainKernel(int adds)
{
    std::string text = "dfg chain\nnode 0 load\n";
    for (int i = 1; i <= adds + 1; ++i) {
        text += "node " + std::to_string(i) +
                (i == adds + 1 ? " store\n" : " add\n");
        text += "edge " + std::to_string(i - 1) + " " + std::to_string(i) +
                "\n";
    }
    return text;
}

/** The cache key MappingService computes for kernelRequest(@p dfg_text)
 *  sent for the fabric @p accel_spec. */
CacheKey
requestKey(const std::string &dfg_text, const std::string &accel_spec = kAccel)
{
    auto request_dfg = dfg::fromText(dfg_text);
    EXPECT_TRUE(request_dfg.has_value());
    auto accel = verify::accelFromSpec(accel_spec);
    arch::ArchContext context(*accel);
    map::SearchOptions options;
    options.perIiBudget = 1.0;
    options.totalBudget = 2.0;
    return CacheKey{dfg::canonicalHash(*request_dfg), context.fingerprint(),
                    map::budgetClassKey(options)};
}

TEST(MappingCache, UndecodableRecordEvictsOnHit)
{
    const std::string path = tempPath("lsrv_undecodable.lsrv");
    std::remove(path.c_str());
    const std::string first = chainKernel(1);
    const std::string middle = chainKernel(2);
    const std::string last = chainKernel(3);

    // Real entries for the neighbours, from a service's own miss path.
    std::shared_ptr<const CacheEntry> before, after;
    {
        ServeConfig cfg;
        cfg.cacheFile.clear();
        MappingService service(cfg);
        ASSERT_TRUE(service.map(kernelRequest(first.c_str())).ok);
        ASSERT_TRUE(service.map(kernelRequest(last.c_str())).ok);
        before = service.cache().lookup(requestKey(first));
        after = service.cache().lookup(requestKey(last));
    }
    ASSERT_NE(before, nullptr);
    ASSERT_NE(after, nullptr);
    CacheEntry bad = *before;
    bad.key = requestKey(middle);
    bad.mappingText = "lisa-mapping v1\nnot a mapping\n";
    bad.replay.reset();
    // A well-formed record whose embedded DFG names an unknown op: the
    // decoder must reject it, not end the process during load().
    CacheEntry unknown_op = *before;
    unknown_op.key = requestKey(chainKernel(4));
    const size_t op_at = unknown_op.mappingText.find(
        " add", unknown_op.mappingText.find("dfg-begin"));
    ASSERT_NE(op_at, std::string::npos);
    unknown_op.mappingText.replace(op_at + 1, 3, "frobnicate");
    unknown_op.replay.reset();
    {
        MappingCache writer;
        ASSERT_TRUE(writer.append(path, *before));
        ASSERT_TRUE(writer.append(path, bad));
        ASSERT_TRUE(writer.append(path, unknown_op));
        ASSERT_TRUE(writer.append(path, *after));
    }

    ServeConfig cfg;
    cfg.cacheFile = path;
    MappingService service(cfg);
    // Their checksums hold, so the records load beside their neighbours,
    // as entries with no decode.
    ASSERT_EQ(service.cache().size(), 4u);
    const auto loaded_bad = service.cache().lookup(bad.key);
    ASSERT_NE(loaded_bad, nullptr);
    EXPECT_FALSE(loaded_bad->replay.has_value());
    const auto loaded_unknown_op = service.cache().lookup(unknown_op.key);
    ASSERT_NE(loaded_unknown_op, nullptr);
    EXPECT_FALSE(loaded_unknown_op->replay.has_value());
    EXPECT_TRUE(service.cache().lookup(before->key)->replay.has_value());
    EXPECT_TRUE(service.cache().lookup(after->key)->replay.has_value());

    // Its first hit evicts it and re-searches.
    const MapOutcome out = service.map(kernelRequest(middle.c_str()));
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_FALSE(out.cacheHit);
    EXPECT_TRUE(out.verified);
    EXPECT_EQ(service.stats().verifyFailures, 1);
    EXPECT_EQ(service.stats().searches, 1);

    for (const std::string &kernel : {first, last}) {
        const MapOutcome hit = service.map(kernelRequest(kernel.c_str()));
        EXPECT_TRUE(hit.cacheHit && hit.verified) << hit.error;
    }
    const ServeStats stats = service.stats();
    EXPECT_EQ(stats.hits, 2);
    EXPECT_EQ(stats.verifyFailures, 1);
    EXPECT_EQ(stats.searches, 1);
    std::remove(path.c_str());
}

/** A cheap search backend for tests that warm many entries: one SA
 *  attempt four IIs above the kernel's MII, where SA maps every fig9a
 *  kernel within a second. */
map::PortfolioResult
slackSearch(const dfg::Dfg &dfg, arch::ArchContext &context,
            const map::SearchOptions &)
{
    const dfg::Analysis analysis(dfg);
    map::PortfolioResult res;
    res.mii = map::minimumIi(dfg, analysis, context.accel());
    res.ii = res.mii + 4;
    res.winner = "SA";
    res.attempts = 1;
    map::SaMapper sa;
    res.mapping = sa.tryMap(map::MapContext{
        dfg, analysis, context.mrrgFor(res.ii), 120.0, Rng(1)});
    res.success = res.mapping.has_value();
    return res;
}

/** @p g with its nodes renumbered and its edges reordered by @p rng. */
dfg::Dfg
renumbered(const dfg::Dfg &g, Rng &rng)
{
    std::vector<dfg::NodeId> order(g.numNodes()); // order[new id] = old id
    std::iota(order.begin(), order.end(), 0);
    rng.shuffle(order);
    std::vector<dfg::NodeId> new_id(g.numNodes());
    for (size_t i = 0; i < order.size(); ++i)
        new_id[static_cast<size_t>(order[i])] = static_cast<dfg::NodeId>(i);
    dfg::Dfg out(g.name());
    for (dfg::NodeId old_id : order)
        out.addNode(g.node(old_id).op, g.node(old_id).name);
    std::vector<dfg::EdgeId> edges(g.numEdges());
    std::iota(edges.begin(), edges.end(), 0);
    rng.shuffle(edges);
    for (dfg::EdgeId e : edges) {
        const dfg::Edge &edge = g.edge(e);
        out.addEdge(new_id[static_cast<size_t>(edge.src)],
                    new_id[static_cast<size_t>(edge.dst)],
                    edge.iterDistance);
    }
    return out;
}

/** What a hit serves by re-parsing the stored text on every request:
 *  parse @p stored, translate it to @p request's ids through its
 *  canonical tables, and print it. */
std::string
referenceReplay(const std::string &stored, const dfg::Dfg &request)
{
    auto loaded = verify::mappingFromText(stored);
    EXPECT_TRUE(loaded.has_value());
    if (!loaded)
        return "";
    const dfg::CanonicalDfg canon = dfg::canonicalize(request);
    map::Mapping translated(request, loaded->mrrg);
    for (size_t v = 0; v < request.numNodes(); ++v) {
        const map::Placement &p =
            loaded->mapping->placement(static_cast<dfg::NodeId>(v));
        translated.placeNode(canon.nodeOrder[v], p.pe, p.time);
    }
    for (size_t e = 0; e < request.numEdges(); ++e)
        translated.setRoute(
            canon.edgeOrder[e],
            loaded->mapping->route(static_cast<dfg::EdgeId>(e)));
    return verify::mappingToText(translated);
}

TEST(MappingService, HitBytesMatchReferenceReplay)
{
    const std::string path = tempPath("serve_reference.lsrv");
    std::remove(path.c_str());
    const std::string spec =
        verify::accelSpecOf(arch::CgraArch(arch::baselineCgra(4, 4)));

    // Every fig9a kernel, then 8 renumbered variants of it.
    constexpr size_t kVariants = 8;
    std::vector<MapRequest> requests;
    Rng rng(7);
    for (const workloads::Workload &w : workloads::polybenchSuite()) {
        MapRequest req = kernelRequest();
        req.accelSpec = spec;
        req.dfgText = dfg::toText(w.dfg);
        requests.push_back(req);
        for (size_t k = 0; k < kVariants; ++k) {
            req.dfgText = dfg::toText(renumbered(w.dfg, rng));
            requests.push_back(req);
        }
    }

    const auto expect_reference_bytes = [&](MappingService &service,
                                            const std::string &when) {
        for (const MapRequest &req : requests) {
            const MapOutcome out = service.map(req);
            ASSERT_TRUE(out.ok) << when << ": " << out.error;
            EXPECT_TRUE(out.cacheHit && out.verified) << when;
            const auto entry =
                service.cache().lookup(requestKey(req.dfgText, spec));
            ASSERT_NE(entry, nullptr) << when;
            const auto request_dfg = dfg::fromText(req.dfgText);
            ASSERT_TRUE(request_dfg.has_value());
            EXPECT_EQ(out.mappingText,
                      referenceReplay(entry->mappingText, *request_dfg))
                << when << ", kernel " << request_dfg->name();
        }
        EXPECT_EQ(service.stats().verifyFailures, 0) << when;
    };

    size_t entries = 0;
    {
        ServeConfig cfg;
        cfg.cacheFile = path;
        MappingService service(cfg);
        service.setSearchFn(slackSearch);
        for (size_t k = 0; k < requests.size(); k += kVariants + 1) {
            const MapOutcome warm = service.map(requests[k]);
            ASSERT_TRUE(warm.ok) << warm.error;
        }
        entries = service.cache().size();
        expect_reference_bytes(service, "before restart");
    }
    ServeConfig cfg;
    cfg.cacheFile = path;
    MappingService service(cfg);
    ASSERT_EQ(service.cache().size(), entries);
    expect_reference_bytes(service, "after restart");
    EXPECT_EQ(service.stats().searches, 0);
    std::remove(path.c_str());
}

TEST(MappingService, ConcurrentHitsShareOneReplay)
{
    constexpr int kThreads = 8;
    constexpr int kHitsPerThread = 4;
    ServeConfig cfg;
    cfg.cacheFile.clear();
    MappingService service(cfg);
    const MapOutcome miss = service.map(kernelRequest());
    ASSERT_TRUE(miss.ok) << miss.error;
    const auto entry = service.cache().lookup(requestKey(kKernel));
    ASSERT_NE(entry, nullptr);
    ASSERT_TRUE(entry->replay.has_value());

    std::vector<std::vector<MapOutcome>> outcomes(kThreads);
    {
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t)
            threads.emplace_back([&, t] {
                const char *kernel = t % 2 ? kKernelPermuted : kKernel;
                for (int i = 0; i < kHitsPerThread; ++i)
                    outcomes[static_cast<size_t>(t)].push_back(
                        service.map(kernelRequest(kernel)));
            });
        for (auto &t : threads)
            t.join();
    }
    for (const auto &per_thread : outcomes)
        for (const MapOutcome &out : per_thread) {
            ASSERT_TRUE(out.ok) << out.error;
            EXPECT_TRUE(out.cacheHit);
            EXPECT_TRUE(out.verified);
            EXPECT_EQ(out.ii, miss.ii);
        }
    // Every hit replayed the one decoded entry: none evicted or replaced it.
    EXPECT_EQ(service.cache().lookup(requestKey(kKernel)), entry);
    const ServeStats stats = service.stats();
    EXPECT_EQ(stats.hits, kThreads * kHitsPerThread);
    EXPECT_EQ(stats.verifyFailures, 0);
    EXPECT_EQ(stats.searches, 1);
}

TEST(MappingService, MissAppendsOneRecord)
{
    const std::string path = tempPath("serve_append.lsrv");
    const std::string copy = tempPath("serve_append_copy.lsrv");
    std::remove(path.c_str());
    ASSERT_TRUE(MappingCache().save(path)); // a header-only journal

    ServeConfig cfg;
    cfg.cacheFile = path;
    MappingService service(cfg);
    std::string before = readBytes(path);
    ASSERT_EQ(before.size(), kHeaderBytes);
    const ino_t inode = inodeOf(path);
    for (int adds = 1; adds <= 4; ++adds) {
        const std::string kernel = chainKernel(adds);
        const MapOutcome out = service.map(kernelRequest(kernel.c_str()));
        ASSERT_TRUE(out.ok) << out.error;
        ASSERT_FALSE(out.cacheHit);
        auto entry = service.cache().lookup(requestKey(kernel));
        ASSERT_NE(entry, nullptr);

        // The file grew by exactly this entry's record, in place: same
        // inode, the bytes before it untouched.
        const std::string after = readBytes(path);
        EXPECT_EQ(after.size(), before.size() + recordBytes(*entry));
        EXPECT_EQ(after.compare(0, before.size(), before), 0);
        EXPECT_EQ(inodeOf(path), inode);
        before = after;

        // Durable before the reply: a copy taken now, with the service
        // still alive, loads with the new entry in it.
        writeBytes(copy, after);
        MappingCache reloaded;
        EXPECT_TRUE(reloaded.load(copy));
        EXPECT_EQ(reloaded.size(), static_cast<size_t>(adds));
        auto got = reloaded.lookup(entry->key);
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(got->mappingText, entry->mappingText);
    }
    EXPECT_EQ(service.stats().persistFailures, 0);
    std::remove(path.c_str());
    std::remove(copy.c_str());
}

TEST(MappingService, RepairsTornJournalBeforeAppending)
{
    const std::string path = tempPath("serve_torn.lsrv");
    const std::string copy = tempPath("serve_torn_copy.lsrv");
    std::remove(path.c_str());
    const std::string second = chainKernel(2);
    {
        ServeConfig cfg;
        cfg.cacheFile = path;
        MappingService service(cfg);
        ASSERT_TRUE(service.map(kernelRequest()).ok);
    }
    // A crash mid-append leaves part of a record behind the last one.
    writeBytes(path, readBytes(path) + std::string("\x40\0\0\0\0", 5));
    {
        ServeConfig cfg;
        cfg.cacheFile = path;
        MappingService service(cfg);
        EXPECT_EQ(service.cache().size(), 1u);
        const MapOutcome out = service.map(kernelRequest(second.c_str()));
        ASSERT_TRUE(out.ok) << out.error;
        EXPECT_FALSE(out.cacheHit);
        // The file as a crash right now would leave it, before the
        // shutdown compaction runs.
        writeBytes(copy, readBytes(path));
    }
    ServeConfig cfg;
    cfg.cacheFile = copy;
    MappingService service(cfg);
    EXPECT_EQ(service.cache().size(), 2u);
    const MapOutcome first_hit = service.map(kernelRequest());
    const MapOutcome second_hit = service.map(kernelRequest(second.c_str()));
    EXPECT_TRUE(first_hit.cacheHit && first_hit.verified);
    EXPECT_TRUE(second_hit.cacheHit && second_hit.verified);
    EXPECT_EQ(service.stats().searches, 0);
    std::remove(path.c_str());
    std::remove(copy.c_str());
}

TEST(MappingService, CountsPersistFailures)
{
    const std::string dir = tempPath("serve_no_such_dir");
    std::filesystem::remove_all(dir);
    ServeConfig cfg;
    cfg.cacheFile = dir + "/cache.lsrv";
    MappingService service(cfg);

    // The write fails, the request does not: the result is served and
    // stays cached in memory.
    const MapOutcome out = service.map(kernelRequest());
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_TRUE(out.verified);
    EXPECT_TRUE(service.map(kernelRequest()).cacheHit);
    const ServeStats stats = service.stats();
    EXPECT_EQ(stats.persistFailures, 1);
    EXPECT_NE(stats.toJson().find("\"persistFailures\":1"),
              std::string::npos);
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
