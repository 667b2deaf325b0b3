#include "serve/cache.hh"

#include <cstdio>
#include <filesystem>
#include <string_view>
#include <system_error>
#include <vector>

#include "support/fnv.hh"
#include "verify/mapping_io.hh"

namespace lisa::serve {

std::shared_ptr<const CacheEntry>
MappingCache::lookup(const CacheKey &key) const
{
    support::LockGuard lock(mu);
    const auto it = entries.find(key);
    return it == entries.end() ? nullptr : it->second;
}

// lint:cold-begin(mutation, decode and persistence; the hot path is lookup() above)

std::optional<MappingReplay>
MappingReplay::decode(const std::string &text)
{
    const auto loaded = verify::mappingFromText(text);
    if (!loaded)
        return std::nullopt;
    const map::Mapping &mapping = *loaded->mapping;
    const auto n = static_cast<dfg::NodeId>(loaded->dfg->numNodes());
    const auto m = static_cast<dfg::EdgeId>(loaded->dfg->numEdges());

    MappingReplay replay;
    replay.accelSpec = verify::accelSpecOf(*loaded->accel);
    replay.ii = loaded->mrrg->ii();
    replay.placements.reserve(static_cast<size_t>(n));
    for (dfg::NodeId v = 0; v < n; ++v) {
        const map::Placement &p = mapping.placement(v);
        if (!p.mapped())
            return std::nullopt;
        replay.placements.push_back(
            {static_cast<int>(p.pe), static_cast<int>(p.time)});
    }
    replay.routeStart.reserve(static_cast<size_t>(m) + 1);
    replay.routeStart.push_back(0);
    for (dfg::EdgeId e = 0; e < m; ++e) {
        if (!mapping.isRouted(e))
            return std::nullopt;
        const std::vector<int> &route = mapping.route(e);
        replay.hops.insert(replay.hops.end(), route.begin(), route.end());
        replay.routeStart.push_back(replay.hops.size());
    }
    return replay;
}

void
MappingCache::insert(std::shared_ptr<const CacheEntry> entry)
{
    if (!entry)
        return;
    support::LockGuard lock(mu);
    entries[entry->key] = std::move(entry);
}

bool
MappingCache::erase(const CacheKey &key)
{
    support::LockGuard lock(mu);
    return entries.erase(key) > 0;
}

size_t
MappingCache::size() const
{
    support::LockGuard lock(mu);
    return entries.size();
}

namespace {

constexpr char kMagic[4] = {'L', 'S', 'R', 'V'};
constexpr uint32_t kVersion = 2;

void
putU32(std::string &buf, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf += static_cast<char>((v >> (8 * i)) & 0xff);
}

void
putU64(std::string &buf, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf += static_cast<char>((v >> (8 * i)) & 0xff);
}

void
putStr(std::string &buf, const std::string &s)
{
    putU64(buf, s.size());
    buf += s;
}

uint64_t
doubleBits(double d)
{
    uint64_t bits = 0;
    __builtin_memcpy(&bits, &d, sizeof bits);
    return bits;
}

std::string
header()
{
    std::string buf(kMagic, sizeof kMagic);
    putU32(buf, kVersion);
    return buf;
}

/** Append @p entry's record to @p buf: u64 length, payload, checksum. */
void
putRecord(std::string &buf, const CacheEntry &entry)
{
    const size_t at = buf.size();
    putU64(buf, 0); // the length, patched once the payload is written
    putU64(buf, entry.key.dfgHash);
    putU64(buf, entry.key.archFingerprint);
    putStr(buf, entry.key.budgetKey);
    putU32(buf, static_cast<uint32_t>(entry.ii));
    putU32(buf, static_cast<uint32_t>(entry.mii));
    putU64(buf, static_cast<uint64_t>(entry.attempts));
    putU64(buf, doubleBits(entry.searchSeconds));
    putStr(buf, entry.winner);
    putStr(buf, entry.mappingText);
    const std::string_view payload = std::string_view(buf).substr(at + 8);
    for (size_t i = 0; i < 8; ++i)
        buf[at + i] = static_cast<char>((payload.size() >> (8 * i)) & 0xff);
    putU64(buf, support::fnv1a(payload));
}

/** Little-endian cursor over file bytes; sets `bad` on overrun. Every
 *  length it reads is file-shaped, so each is compared against the bytes
 *  left, never added to `pos` first (that sum can wrap). */
struct Reader
{
    std::string_view buf;
    size_t pos = 0;
    bool bad = false;

    std::string_view
    bytes(uint64_t n)
    {
        if (bad || n > buf.size() - pos) {
            bad = true;
            return {};
        }
        const std::string_view s = buf.substr(pos, n);
        pos += n;
        return s;
    }

    uint64_t
    uint(int width)
    {
        const std::string_view b = bytes(static_cast<uint64_t>(width));
        uint64_t v = 0;
        for (size_t i = 0; i < b.size(); ++i)
            v |= static_cast<uint64_t>(static_cast<unsigned char>(b[i]))
                 << (8 * i);
        return v;
    }

    uint32_t u32() { return static_cast<uint32_t>(uint(4)); }
    uint64_t u64() { return uint(8); }
    std::string str() { return std::string(bytes(u64())); }

    double
    f64()
    {
        const uint64_t bits = u64();
        double d = 0.0;
        static_assert(sizeof d == sizeof bits);
        __builtin_memcpy(&d, &bits, sizeof d);
        return d;
    }
};

/** @return the entry @p payload encodes, or nullptr if it is malformed. */
std::shared_ptr<CacheEntry>
parseRecord(std::string_view payload)
{
    Reader r{payload};
    auto entry = std::make_shared<CacheEntry>();
    entry->key.dfgHash = r.u64();
    entry->key.archFingerprint = r.u64();
    entry->key.budgetKey = r.str();
    entry->ii = static_cast<int>(r.u32());
    entry->mii = static_cast<int>(r.u32());
    entry->attempts = static_cast<long>(r.u64());
    entry->searchSeconds = r.f64();
    entry->winner = r.str();
    entry->mappingText = r.str();
    if (r.bad || r.pos != payload.size())
        return nullptr;
    entry->replay = MappingReplay::decode(entry->mappingText);
    return entry;
}

/** Write @p bytes to @p path opened in @p mode; false on any failure. */
bool
writeFile(const std::string &path, const char *mode, const std::string &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), mode);
    if (!f)
        return false;
    const bool wrote =
        std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    const bool closed = std::fclose(f) == 0;
    return wrote && closed;
}

} // namespace

bool
MappingCache::save(const std::string &path)
{
    support::LockGuard file_lock(fileMu);
    return saveLocked(path);
}

bool
MappingCache::saveLocked(const std::string &path)
{
    // Snapshot the handles under the lookup mutex; encode and write
    // outside it, so hits wait on neither.
    std::vector<std::shared_ptr<const CacheEntry>> live;
    {
        support::LockGuard lock(mu);
        live.reserve(entries.size());
        for (const auto &[key, entry] : entries)
            live.push_back(entry);
    }
    std::string buf = header();
    for (const auto &entry : live)
        putRecord(buf, *entry);

    const std::string tmp = path + ".tmp";
    if (!writeFile(tmp, "wb", buf) ||
        std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    cleanJournal = path;
    return true;
}

bool
MappingCache::append(const std::string &path, const CacheEntry &entry)
{
    support::LockGuard file_lock(fileMu);
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    const bool empty = ec || size == 0;
    if (!empty && cleanJournal != path)
        return saveLocked(path);

    std::string buf = empty ? header() : std::string();
    putRecord(buf, entry);
    const bool ok = writeFile(path, "ab", buf);
    cleanJournal = ok ? path : std::string();
    return ok;
}

bool
MappingCache::load(const std::string &path)
{
    support::LockGuard file_lock(fileMu);
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    std::string buf;
    char chunk[1 << 16];
    size_t n = 0;
    while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0)
        buf.append(chunk, n);
    std::fclose(f);

    Reader r{buf};
    bool clean = r.bytes(sizeof kMagic) ==
                     std::string_view(kMagic, sizeof kMagic) &&
                 r.u32() == kVersion;
    std::vector<std::shared_ptr<CacheEntry>> loaded;
    while (clean && r.pos < buf.size()) {
        const std::string_view payload = r.bytes(r.u64());
        const uint64_t checksum = r.u64();
        std::shared_ptr<CacheEntry> entry;
        if (!r.bad && checksum == support::fnv1a(payload))
            entry = parseRecord(payload);
        clean = entry != nullptr;
        if (entry)
            loaded.push_back(std::move(entry));
    }
    if (clean)
        cleanJournal = path;
    else if (cleanJournal == path)
        cleanJournal.clear();

    support::LockGuard lock(mu);
    for (auto &entry : loaded) {
        CacheKey key = entry->key;
        entries[std::move(key)] = std::move(entry);
    }
    return clean;
}

// lint:cold-end

} // namespace lisa::serve
