/**
 * @file
 * Content-addressed mapping result cache for the serve daemon.
 *
 * Key = (canonical DFG hash, ArchContext fabric fingerprint, budget
 * class key). The first component makes isomorphic kernel re-submissions
 * collide (dfg/canonical.hh); the second pins the fabric; the third
 * separates answer-affecting budget tiers (map::budgetClassKey — the
 * bucketing rule is documented once, on map::BudgetClass).
 *
 * Entries store the winning mapping as mapping_io.hh "lisa-mapping v1"
 * text *in canonical node numbering* — the search itself runs on the
 * canonical DFG, so one stored artifact serves every permutation variant
 * of the kernel — plus that text's one-time decode (MappingReplay),
 * built when the entry is created or loaded. A hit replays the decode
 * onto the context's shared MRRG, range-checks and verifies it; the
 * cache stores the bytes and their decode and never trusts either.
 *
 * Persistence ("LSRV" v2) is an append-only journal: a header (magic,
 * format version) and then one self-delimiting record per stored entry,
 * each `u64 length, payload, u64 FNV-1a(payload)`. A miss appends its
 * one record, so persisting costs O(entry), not O(cache); save() is the
 * compaction that rewrites the file as one record per live entry, tmp +
 * rename. load() keeps every record up to the first short or corrupt
 * one, and a later record for a key replaces an earlier one. A torn tail
 * costs the entries behind it and nothing else; the cache never trusts
 * the bytes anyway (a cold cache is correct, a corrupt one is not).
 *
 * This file is on the tools/lint.sh hot-file list: the lookup path —
 * the steady state of a warmed-up daemon — takes the mutex, probes one
 * std::map, and bumps one shared_ptr refcount; no heap allocation.
 * Mutation and persistence are cold and marked as such.
 */

#ifndef LISA_SERVE_CACHE_HH
#define LISA_SERVE_CACHE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "support/thread_annotations.hh"

namespace lisa::serve {

/** Cache identity of one (kernel, fabric, budget tier) request class. */
struct CacheKey
{
    uint64_t dfgHash = 0;
    uint64_t archFingerprint = 0;
    std::string budgetKey;

    bool
    operator<(const CacheKey &o) const
    {
        if (dfgHash != o.dfgHash)
            return dfgHash < o.dfgHash;
        if (archFingerprint != o.archFingerprint)
            return archFingerprint < o.archFingerprint;
        return budgetKey < o.budgetKey;
    }
};

/**
 * The one-time decode of a "lisa-mapping v1" text: what a hit needs to
 * replay it onto a shared MRRG, in canonical ids. It owns no Accelerator,
 * Mrrg or Dfg, so an entry stays small. Nothing in it is trusted: the
 * service range-checks every PE, time and resource and verifies the
 * replayed mapping on every hit.
 */
struct MappingReplay
{
    struct Slot
    {
        int pe = 0;
        int time = 0;
    };

    /** verify::accelSpecOf() of the fabric the mapping targets. */
    std::string accelSpec;
    int ii = 0;
    /** Canonical node v is placed at placements[v]. */
    std::vector<Slot> placements;
    /** Every route's hops back to back; canonical edge e's route is
     *  hops[routeStart[e], routeStart[e + 1]). */
    std::vector<int> hops;
    std::vector<size_t> routeStart;

    size_t numNodes() const { return placements.size(); }
    size_t numEdges() const { return routeStart.size() - 1; }

    std::span<const int>
    route(size_t e) const
    {
        return std::span<const int>(hops).subspan(
            routeStart[e], routeStart[e + 1] - routeStart[e]);
    }

    /** Decode @p text through verify::mappingFromText, the one parser
     *  of the format. @return nullopt when the text does not parse or
     *  leaves a node unplaced or an edge unrouted. This is the one place
     *  cache entries are decoded: MappingCache::load() and the service's
     *  miss path both call it on the text they persist. */
    static std::optional<MappingReplay> decode(const std::string &text);
};

/** One cached search result (immutable once inserted). */
struct CacheEntry
{
    CacheKey key;
    int ii = 0;
    int mii = 0;
    long attempts = 0;
    /** Wall-clock of the search that produced the entry, seconds. */
    double searchSeconds = 0.0;
    /** Winning portfolio member ("SA", "ILP*", ...). */
    std::string winner;
    /** "lisa-mapping v1" text over the canonical DFG (what LSRV
     *  persists). */
    std::string mappingText;
    /** MappingReplay::decode(mappingText); empty when the text does not
     *  decode, and then the service treats the entry as unusable. */
    std::optional<MappingReplay> replay;
};

/** Thread-safe content-addressed store of CacheEntries. */
class MappingCache
{
  public:
    MappingCache() = default;

    /** @return the entry for @p key, or nullptr on miss. Allocation-free
     *  (returned handle shares ownership with the cache, so the entry
     *  stays valid even if erased concurrently). */
    std::shared_ptr<const CacheEntry> lookup(const CacheKey &key) const
        LISA_EXCLUDES(mu);

    /** Insert (or replace) the entry under entry->key. */
    void insert(std::shared_ptr<const CacheEntry> entry) LISA_EXCLUDES(mu);

    /** Drop @p key (verify-on-hit failure path). @return true if found. */
    bool erase(const CacheKey &key) LISA_EXCLUDES(mu);

    size_t size() const LISA_EXCLUDES(mu);

    /** @{ LSRV v2 persistence. Every file access holds fileMu; the
     *  lookup mutex is held only to snapshot or merge entries, never
     *  across I/O, so hits do not wait on it. All three return false on
     *  any I/O or format failure.
     *
     *  save() compacts: it writes one record per live entry to a tmp
     *  file and renames it over @p path, holding fileMu from the entry
     *  snapshot to the rename, so it never replaces an append it did not
     *  see.
     *
     *  append() adds one record for @p entry, after the header when the
     *  file is empty or missing. When the file is not empty and this
     *  cache does not know it to be a clean journal (no clean load or
     *  save of @p path yet, or an earlier write failed), a record
     *  appended behind a bad tail would be lost on the next load, so it
     *  compacts instead; @p entry must already be inserted for the
     *  compaction to hold it.
     *
     *  load() merges every record up to the first short or corrupt one
     *  over the current content, decoding each entry's mapping text
     *  once, and returns true only when the whole file was a clean
     *  journal. A record whose text does not decode still loads (as an
     *  entry with no replay), so its neighbours are kept. */
    bool save(const std::string &path) LISA_EXCLUDES(mu, fileMu);
    bool append(const std::string &path, const CacheEntry &entry)
        LISA_EXCLUDES(mu, fileMu);
    bool load(const std::string &path) LISA_EXCLUDES(mu, fileMu);
    /** @} */

  private:
    bool saveLocked(const std::string &path) LISA_REQUIRES(fileMu)
        LISA_EXCLUDES(mu);

    mutable support::Mutex mu;
    std::map<CacheKey, std::shared_ptr<const CacheEntry>> entries
        LISA_GUARDED_BY(mu);

    /** Serializes every file access; taken before mu, never after. */
    support::Mutex fileMu;
    /** The file known to hold a clean journal ("" = none). */
    std::string cleanJournal LISA_GUARDED_BY(fileMu);
};

} // namespace lisa::serve

#endif // LISA_SERVE_CACHE_HH
