#include "serve/service.hh"

#include <exception>
#include <sstream>

#include "arch/arch_context.hh"
#include "dfg/serialize.hh"
#include "mappers/exact_mapper.hh"
#include "mappers/sa_mapper.hh"
#include "support/logging.hh"
#include "verify/mapping_io.hh"
#include "verify/verify.hh"

namespace lisa::serve {

std::string
ServeStats::toJson() const
{
    std::ostringstream os;
    os << "{\"requests\":" << requests << ",\"hits\":" << hits
       << ",\"misses\":" << misses << ",\"coalesced\":" << coalesced
       << ",\"searches\":" << searches
       << ",\"verifyFailures\":" << verifyFailures
       << ",\"persistFailures\":" << persistFailures << "}";
    return os.str();
}

namespace {

/** Production search backend: the full cross-mapper race, minus LISA —
 *  the daemon serves without a trained GNN on disk; adding the guided
 *  member is a config concern once models ship with deployments. */
map::PortfolioResult
portfolioSearch(const dfg::Dfg &dfg, arch::ArchContext &context,
                const map::SearchOptions &options)
{
    map::PortfolioSearch race(context);
    race.addMember("SA", std::make_unique<map::SaMapper>(), options);
    race.addMember("ILP*", std::make_unique<map::ExactMapper>(), options);
    return race.run(dfg);
}

} // namespace

MappingService::MappingService(ServeConfig config)
    : cfg(std::move(config)), search(portfolioSearch)
{
    if (!cfg.cacheFile.empty()) {
        // An unclean load (torn tail, bad record, old format) keeps the
        // valid prefix; the cache then compacts on the first append, so
        // no new record lands behind the bad bytes.
        const bool clean = store.load(cfg.cacheFile);
        if (store.size() > 0)
            inform("lisa-serve: warm-started ", store.size(),
                   " cache entries from ", cfg.cacheFile,
                   clean ? "" : " (dropped a bad tail)");
    }
    if (cfg.maxInflight < 1)
        cfg.maxInflight = 1;
}

MappingService::~MappingService()
{
    if (!saveCache())
        warn("lisa-serve: cannot compact cache file ", cfg.cacheFile);
}

void
MappingService::setSearchFn(SearchFn fn)
{
    search = std::move(fn);
}

bool
MappingService::saveCache()
{
    return cfg.cacheFile.empty() || store.save(cfg.cacheFile);
}

ServeStats
MappingService::stats() const
{
    support::LockGuard lock(mu);
    return counters;
}

MappingService::ArchEntry *
MappingService::archFor(const std::string &spec, std::string *error)
{
    // Registry keys are canonical spec lines and accelSpecOf() of a
    // parsed canonical line gives that line back, so a request that
    // spells its fabric canonically (as clients echoing accelSpecOf do)
    // resolves without a parse.
    {
        support::LockGuard lock(mu);
        auto it = archs.find(spec);
        if (it != archs.end())
            return it->second.get();
    }
    auto accel = verify::accelFromSpec(spec, error);
    if (!accel)
        return nullptr;
    // Normalize: two spellings of one fabric share an entry.
    const std::string canonical_spec = verify::accelSpecOf(*accel);
    support::LockGuard lock(mu);
    auto it = archs.find(canonical_spec);
    if (it != archs.end())
        return it->second.get();
    auto entry = std::make_unique<ArchEntry>();
    entry->spec = canonical_spec;
    entry->accel = std::move(accel);
    entry->context = std::make_unique<arch::ArchContext>(*entry->accel);
    ArchEntry *raw = entry.get();
    archs[canonical_spec] = std::move(entry);
    return raw;
}

bool
MappingService::serveEntry(ArchEntry &arch, const dfg::Dfg &request_dfg,
                           const dfg::CanonicalDfg &canon,
                           const CacheEntry &entry, MapOutcome &out)
{
    if (!entry.replay)
        return false;
    const MappingReplay &replay = *entry.replay;
    // The stored artifact must be shaped like this request's canonical
    // form; anything else is corruption (or an FNV collision) and the
    // entry is unusable.
    if (replay.numNodes() != request_dfg.numNodes() ||
        replay.numEdges() != request_dfg.numEdges() ||
        replay.accelSpec != arch.spec)
        return false;

    auto mrrg = arch.context->mrrgFor(replay.ii);
    map::Mapping translated(request_dfg, mrrg);

    const int num_pes = arch.context->accel().numPes();
    for (size_t canon_v = 0; canon_v < replay.numNodes(); ++canon_v) {
        const MappingReplay::Slot &p = replay.placements[canon_v];
        if (p.pe < 0 || p.pe >= num_pes || p.time < 0 ||
            p.time >= translated.horizon())
            return false;
        translated.placeNode(canon.nodeOrder[canon_v], PeId{p.pe},
                             AbsTime{p.time});
    }
    for (size_t canon_e = 0; canon_e < replay.numEdges(); ++canon_e) {
        const std::span<const int> route = replay.route(canon_e);
        for (int res : route)
            if (res < 0 || res >= mrrg->numResources())
                return false;
        translated.assignRoute(canon.edgeOrder[canon_e], route);
    }

    // Verify-on-hit: the *served* bytes (translated to request ids, on
    // this context's MRRG) pass the independent verifier, or nothing is
    // served from the cache at all.
    const verify::VerifyReport report =
        verify::verifyMapping(request_dfg, *mrrg, translated, {});
    if (!report.ok())
        return false;

    out.ok = true;
    out.verified = true;
    out.ii = entry.ii;
    out.mii = entry.mii;
    out.winner = entry.winner;
    out.attempts = entry.attempts;
    out.searchSeconds = entry.searchSeconds;
    out.mappingText = verify::mappingToText(translated);
    return true;
}

MapOutcome
MappingService::map(const MapRequest &req)
{
    MapOutcome out;
    {
        support::LockGuard lock(mu);
        ++counters.requests;
    }

    std::string error;
    auto parsed = dfg::fromText(req.dfgText, &error);
    if (!parsed) {
        out.error = "dfg: " + error;
        return out;
    }
    const dfg::Dfg &request_dfg = *parsed;

    ArchEntry *arch = archFor(req.accelSpec, &error);
    if (!arch) {
        out.error = "accel: " + error;
        return out;
    }

    map::SearchOptions options;
    options.perIiBudget = req.perIiBudget;
    options.totalBudget = req.totalBudget;
    options.seed = req.seed;
    out.budgetClass = map::budgetClassName(map::budgetClassOf(options));

    const dfg::CanonicalDfg canon = dfg::canonicalize(request_dfg);
    const CacheKey key{canon.hash, arch->context->fingerprint(),
                       map::budgetClassKey(options)};

    if (auto entry = store.lookup(key)) {
        if (serveEntry(*arch, request_dfg, canon, *entry, out)) {
            out.cacheHit = true;
            support::LockGuard lock(mu);
            ++counters.hits;
            return out;
        }
        // Evict the unusable entry and treat the request as a miss.
        store.erase(key);
        support::LockGuard lock(mu);
        ++counters.verifyFailures;
    }

    // Miss path: coalesce identical concurrent requests onto one search.
    std::shared_ptr<Inflight> flight;
    bool leader = false;
    {
        support::UniqueLock lock(mu);
        ++counters.misses;
        auto it = inflight.find(key);
        if (it != inflight.end()) {
            flight = it->second;
            ++counters.coalesced;
            while (!flight->done)
                flight->cv.wait(lock);
        } else {
            flight = std::make_shared<Inflight>();
            inflight[key] = flight;
            leader = true;
        }
    }

    if (leader) {
        // Admission control: bound concurrent searches.
        {
            support::UniqueLock lock(mu);
            while (runningSearches >= cfg.maxInflight)
                admitCv.wait(lock);
            ++runningSearches;
            ++counters.searches;
        }

        // Search the *canonical* DFG so the stored mapping is expressed
        // in canonical ids and serves every permutation variant.
        std::shared_ptr<const CacheEntry> result;
        std::string search_error;
        int mii = 0;
        // A throwing search must still publish a (failed) result below:
        // followers are parked on flight->cv and an admission slot is
        // held, so letting the exception escape would strand both.
        try {
            auto canon_dfg = dfg::fromText(canon.text, &error);
            if (!canon_dfg) {
                // Canonicalizer and serializer disagree — a bug, not a
                // request problem; fail the request loudly.
                search_error =
                    "internal: canonical text unparsable: " + error;
            } else {
                const map::PortfolioResult res =
                    search(*canon_dfg, *arch->context, options);
                mii = res.mii;
                if (res.success && res.mapping) {
                    auto entry = std::make_shared<CacheEntry>();
                    entry->key = key;
                    entry->ii = res.ii;
                    entry->mii = res.mii;
                    entry->attempts = res.attempts;
                    entry->searchSeconds = res.seconds;
                    entry->winner = res.winner;
                    entry->mappingText =
                        verify::mappingToText(*res.mapping);
                    // Decode the bytes the append below persists, so
                    // every answer comes from what a restart would load.
                    entry->replay =
                        MappingReplay::decode(entry->mappingText);
                    store.insert(entry);
                    result = std::move(entry);
                } else {
                    search_error = "unmappable within budget";
                }
            }
        } catch (const std::exception &e) {
            search_error =
                std::string("internal: search failed: ") + e.what();
        } catch (...) {
            search_error = "internal: search failed";
        }

        {
            support::UniqueLock lock(mu);
            --runningSearches;
            flight->done = true;
            flight->entry = result;
            flight->error = search_error;
            flight->mii = mii;
            inflight.erase(key);
        }
        admitCv.notify_one();
        flight->cv.notify_all();
        // Persist before replying, so a crash after a successful search
        // never loses the work: one appended record, O(entry).
        if (result && !cfg.cacheFile.empty() &&
            !store.append(cfg.cacheFile, *result)) {
            long failures = 0;
            {
                support::LockGuard lock(mu);
                failures = ++counters.persistFailures;
            }
            if (failures == 1)
                warn("lisa-serve: cannot write cache file ", cfg.cacheFile,
                     "; results stay cached in memory only (counted in "
                     "stats.persistFailures)");
        }
    } else {
        out.coalesced = true;
    }

    std::shared_ptr<const CacheEntry> entry;
    int mii = 0;
    {
        support::LockGuard lock(mu);
        entry = flight->entry;
        error = flight->error;
        mii = flight->mii;
    }
    if (!entry) {
        out.error = error;
        out.mii = mii;
        return out;
    }
    if (!serveEntry(*arch, request_dfg, canon, *entry, out)) {
        out.error = "internal: fresh search result failed verification";
        return out;
    }
    return out;
}

} // namespace lisa::serve
