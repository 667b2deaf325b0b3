/**
 * @file
 * MappingService: the serve daemon's request brain, socket-free.
 *
 * One service owns the content-addressed result cache (serve/cache.hh),
 * a registry of ArchContexts keyed by accelerator spec, and the
 * admission/coalescing machinery in front of the search. The socket
 * layer (serve/server.hh) and the bench load generator both drive this
 * class directly, so every protocol behavior is testable in-process.
 *
 * Request flow (DESIGN.md section 14):
 *
 *   parse DFG -> resolve ArchContext -> canonicalize (dfg/canonical.hh)
 *   -> key = (canonical hash, fabric fingerprint, budget class key)
 *   -> cache lookup
 *      hit:  replay the entry's decoded canonical mapping (decoded
 *            once, when the entry was created or loaded) onto the
 *            context's shared MRRG, translate to request node ids,
 *            range-check and re-verify with verify::verifyMapping; an
 *            undecodable entry or a failing replay evicts the entry and
 *            falls through to the miss path (verify-on-hit: no bytes are
 *            served that did not just pass the independent verifier).
 *      miss: coalesce — the first requester of a key becomes the leader
 *            and runs one PortfolioSearch on the *canonical* DFG (so the
 *            stored artifact serves all permutation variants); N-1
 *            concurrent identical requesters wait on the leader's result
 *            instead of searching. Leaders pass admission control first:
 *            at most maxInflight searches run at once, excess leaders
 *            queue. A successful result is inserted, and the leader
 *            appends its one LSRV record to the cache file before it
 *            replies (serve/cache.hh; the file is compacted at shutdown).
 *
 * Determinism and seeds: the cache key is (canonical DFG, fabric
 * fingerprint, budget class) — deliberately *not* the request seed —
 * so results are shared across seeds within a budget class: a hit or a
 * coalesced response may replay an artifact whose search ran under a
 * different seed, and its II/winner/attempts can differ from what this
 * seed's own search would have produced. Every served mapping still
 * passed the independent verifier against this exact request. Only a
 * genuine leader miss runs a search, and that search is reproducible
 * for a fixed (DFG, accel, budget, seed).
 */

#ifndef LISA_SERVE_SERVICE_HH
#define LISA_SERVE_SERVICE_HH

#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "dfg/canonical.hh"
#include "mapping/portfolio.hh"
#include "serve/cache.hh"
#include "serve/proto.hh"

namespace lisa::arch {
class Accelerator;
class ArchContext;
} // namespace lisa::arch

namespace lisa::serve {

/** Daemon-level configuration. */
struct ServeConfig
{
    /** Result-cache persistence file ("" = in-memory only). */
    std::string cacheFile;
    /** Admission control: max concurrently running searches. */
    int maxInflight = 2;
};

/** Monotonic service counters (snapshot; see MappingService::stats). */
struct ServeStats
{
    long requests = 0;
    long hits = 0;
    long misses = 0;
    /** Requests that waited on another request's identical search. */
    long coalesced = 0;
    /** Searches actually run (== misses - coalesced when all succeed). */
    long searches = 0;
    /** Cache entries evicted because their replay failed verification. */
    long verifyFailures = 0;
    /** Searched results that could not be written to the cache file
     *  (they are still cached in memory and served). */
    long persistFailures = 0;

    std::string toJson() const;
};

/** Long-lived mapping service: cache in front of PortfolioSearch. */
class MappingService
{
  public:
    /** Injectable search backend (tests swap in gated fakes to prove
     *  coalescing; production uses the built-in SA + ILP-star
     *  portfolio). */
    using SearchFn = std::function<map::PortfolioResult(
        const dfg::Dfg &, arch::ArchContext &,
        const map::SearchOptions &)>;

    explicit MappingService(ServeConfig config);
    ~MappingService();

    MappingService(const MappingService &) = delete;
    MappingService &operator=(const MappingService &) = delete;

    /** Serve one map request (thread-safe, called concurrently by every
     *  connection handler). */
    MapOutcome map(const MapRequest &request) LISA_EXCLUDES(mu);

    ServeStats stats() const LISA_EXCLUDES(mu);

    /** Replace the search backend (test hook; not thread-safe against
     *  concurrent map() calls — install before serving). */
    void setSearchFn(SearchFn fn);

    /** Direct cache access (tests, tools). */
    MappingCache &cache() { return store; }

    /** Compact the cache file now: rewrite it as one record per live
     *  entry (no-op without a cacheFile). Runs at shutdown; the miss path
     *  only appends. @return false on write failure. */
    bool saveCache();

  private:
    /** One registered accelerator: the spec string owns both objects. */
    struct ArchEntry
    {
        /** The normalized spec line (verify::accelSpecOf), the registry
         *  key; a hit compares its replay's spec against it. */
        std::string spec;
        std::unique_ptr<arch::Accelerator> accel;
        std::unique_ptr<arch::ArchContext> context;
    };

    /** One in-flight search other requests may coalesce onto. Fields are
     *  written by the leader and read by followers strictly under the
     *  service mutex; `cv` hands the done-flip to waiters. */
    struct Inflight
    {
        std::condition_variable_any cv;
        bool done = false;
        std::shared_ptr<const CacheEntry> entry;
        std::string error;
        int mii = 0;
    };

    /** Find-or-create the ArchEntry for @p spec. nullptr + @p error on a
     *  malformed spec. A spec already spelled as a registry key resolves
     *  without a parse; any other spelling is parsed and normalized. The
     *  returned pointer is stable for the service's lifetime (entries
     *  are never removed). */
    ArchEntry *archFor(const std::string &spec, std::string *error)
        LISA_EXCLUDES(mu);

    /**
     * Replay @p entry against @p request_dfg: translate its decoded
     * canonical mapping through @p canon's tables onto the context's
     * MRRG, re-verify, and fill @p out. @return false when the entry is
     * unusable (no decode, shape or fabric mismatch, out-of-range PE,
     * time or resource, verifier violation) — the caller evicts and
     * re-searches.
     */
    bool serveEntry(ArchEntry &arch, const dfg::Dfg &request_dfg,
                    const dfg::CanonicalDfg &canon, const CacheEntry &entry,
                    MapOutcome &out);

    ServeConfig cfg;
    MappingCache store;
    SearchFn search;

    mutable support::Mutex mu;
    /** Accelerator registry, keyed by normalized spec line. */
    std::map<std::string, std::unique_ptr<ArchEntry>> archs
        LISA_GUARDED_BY(mu);
    /** Coalescing table: key -> the search currently computing it. */
    std::map<CacheKey, std::shared_ptr<Inflight>> inflight
        LISA_GUARDED_BY(mu);
    /** Admission control state. */
    int runningSearches LISA_GUARDED_BY(mu) = 0;
    std::condition_variable_any admitCv;
    ServeStats counters LISA_GUARDED_BY(mu);
};

} // namespace lisa::serve

#endif // LISA_SERVE_SERVICE_HH
