/**
 * @file
 * Workloads serve-hit and serve-mixed: an in-process lisa-serve daemon
 * (MappingService + ServeServer on a private Unix socket) driven in a
 * closed loop by two client connections, each waiting for its reply
 * before sending the next request, as compilers do.
 *
 * Set-up boots the daemon and warms its cache through its own miss path
 * with the 12 fig9a kernels (11 cache lines: gemm and syrk are
 * isomorphic). Every later fig9a request is a renamed and renumbered
 * variant drawn from the workload seed, so it is a hit that still pays
 * decode, parse, canonicalize, replay, verify and encode.
 *
 * serve-mixed adds writes: every 12th request of a client is a fresh
 * synthetic kernel (a miss that searches, inserts and persists), and
 * every 12th, offset by 6, re-requests a renumbered variant of one of the
 * client's earlier fresh kernels, so reads follow writes.
 *
 * Pool size is part of the workload: 3 global pool threads (the three
 * portfolio members race in parallel), at most 2 searches in flight.
 */

#include <algorithm>
#include <cstdio>
#include <deque>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "arch/arch_context.hh"
#include "arch/cgra.hh"
#include "common.hh"
#include "dfg/canonical.hh"
#include "dfg/serialize.hh"
#include "mapping/ii_search.hh"
#include "serve/server.hh"
#include "support/fnv.hh"
#include "support/json.hh"
#include "support/thread_pool.hh"
#include "verify/mapping_io.hh"
#include "verify/verify.hh"
#include "workloads/polybench.hh"

namespace perfbench {

using namespace lisa;

namespace {

constexpr int kPoolThreads = 3;
constexpr int kMaxInflight = 2;
constexpr int kConnections = 2;
constexpr int kSetups = 3;
/** Request budgets: the "fast" budget class (total <= 2 s). */
constexpr double kPerIiBudget = 0.5;
constexpr double kTotalBudget = 2.0;
/** fig9a variants per client (each request picks one at random). */
constexpr int kVariantsPerClient = 256;
/** serve-mixed: one fresh kernel and one fresh re-request per 12. */
constexpr int kMixPeriod = 12;

/** One request the client can send, with the DFG it describes. */
struct Request
{
    dfg::Dfg dfg;
    std::string line;
    /** Cache line it belongs to: fig9a kernel index, or a fresh id. */
    int source = 0;
};

/** A served mapping text, deduplicated per request (hits replay the same
 *  bytes for the same request, so each distinct text is checked once). */
struct Served
{
    uint64_t hash = 0;
    std::string text;
    long count = 0;
};

struct Sample
{
    double rtMs = 0.0;
    double serviceMs = 0.0;
    double searchS = 0.0;
    bool ok = false;
    bool hit = false;
    bool fresh = false;
    bool atMii = true;
    std::string winner;
    Clock::time_point done;
};

/** Everything one client connection sends and sees. */
struct ClientState
{
    std::vector<Request> variants; ///< fig9a variants
    /** Fresh kernels in send order and one renumbered variant of each;
     *  deques, so the request pointers `served` is keyed on stay valid. */
    std::deque<Request> fresh, freshAgain;
    Rng rng{1};      ///< request choice
    Rng freshRng{1}; ///< fresh kernel generation
    int freshBase = 0;
    std::vector<Sample> samples;
    std::map<const Request *, std::vector<Served>> served;
    long errors = 0;
    std::string firstError;
};

/** Generate the client's next fresh kernel and its re-request variant. */
void
addFresh(ClientState &st, const std::string &spec)
{
    Request r;
    r.source = st.freshBase + static_cast<int>(st.fresh.size());
    r.dfg = freshKernel(st.freshRng, "f" + std::to_string(r.source));
    r.line = mapRequestLine(dfg::toText(r.dfg), spec, kPerIiBudget,
                            kTotalBudget);
    Request again;
    again.source = r.source;
    again.dfg = renumberedVariant(r.dfg, st.freshRng,
                                  "g" + std::to_string(r.source));
    again.line = mapRequestLine(dfg::toText(again.dfg), spec, kPerIiBudget,
                                kTotalBudget);
    st.fresh.push_back(std::move(r));
    st.freshAgain.push_back(std::move(again));
}

/** Send @p req, time it, and record the outcome. */
void
issue(Client &client, ClientState &st, const Request &req, bool fresh)
{
    Sample s;
    s.fresh = fresh;
    const auto t0 = Clock::now();
    const std::string response = client.roundTrip(req.line);
    s.done = Clock::now();
    s.rtMs = secondsBetween(t0, s.done) * 1e3;
    auto doc = jsonParse(response);
    if (doc && doc->isObject()) {
        s.ok = doc->flag("ok");
        s.hit = doc->flag("cacheHit");
        s.serviceMs = doc->num("serviceMs");
        s.searchS = doc->num("searchSeconds");
        s.winner = doc->str("winner");
        s.atMii = doc->num("ii") == doc->num("mii");
    }
    if (!s.ok) {
        ++st.errors;
        if (st.firstError.empty())
            st.firstError = response.substr(0, 200);
    } else {
        const std::string text = doc->str("mapping");
        const uint64_t h = support::fnv1a(text);
        auto &seen = st.served[&req];
        auto it = std::find_if(seen.begin(), seen.end(),
                               [&](const Served &x) { return x.hash == h; });
        if (it == seen.end())
            seen.push_back(Served{h, text, 1});
        else
            ++it->count;
    }
    st.samples.push_back(std::move(s));
}

/** The daemon under test. */
struct Daemon
{
    std::unique_ptr<serve::MappingService> service;
    std::unique_ptr<serve::ServeServer> server;

    ~Daemon() { shutdown(); }

    void
    shutdown()
    {
        if (server)
            server->stop();
        server.reset();
        service.reset();
    }
};

void
removeFile(const std::string &path)
{
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
}

/** Per-stage accumulators of the traced hit replay, seconds. */
struct Stages
{
    double decode = 0, parse = 0, validate = 0, arch = 0, canon = 0,
           lookup = 0, mappingParse = 0, translate = 0, check = 0, text = 0,
           encode = 0;

    double
    total() const
    {
        return decode + parse + validate + arch + canon + lookup +
               mappingParse + translate + check + text + encode;
    }
};

/**
 * Replay one hit request through the public functions
 * ServeServer::handleLine and MappingService::map call, in their order.
 * With @p st, each stage is timed into its slot; without, nothing inside
 * is timed (the untraced baseline of the overhead measurement).
 * @return false when the request is not a servable hit.
 */
bool
replayHit(const std::string &line, serve::MappingService &svc,
          arch::ArchContext &ctx, Stages *st)
{
    auto last = Clock::now();
    const auto lap = [&](double Stages::*slot) {
        if (!st)
            return;
        const auto now = Clock::now();
        st->*slot += secondsBetween(last, now);
        last = now;
    };
    std::string error;
    const auto doc = jsonParse(line, &error);
    serve::MapRequest req;
    if (!doc || !serve::decodeMapRequest(line, req, &error))
        return false;
    lap(&Stages::decode);
    auto parsed = dfg::fromText(req.dfgText, &error);
    if (!parsed)
        return false;
    const dfg::Dfg request_dfg = std::move(*parsed);
    lap(&Stages::parse);
    if (!request_dfg.validate(&error))
        return false;
    lap(&Stages::validate);
    auto accel = verify::accelFromSpec(req.accelSpec, &error);
    if (!accel || verify::accelSpecOf(*accel).empty())
        return false;
    map::SearchOptions options;
    options.perIiBudget = req.perIiBudget;
    options.totalBudget = req.totalBudget;
    serve::MapOutcome out;
    out.budgetClass = map::budgetClassName(map::budgetClassOf(options));
    lap(&Stages::arch);
    const dfg::CanonicalDfg canon = dfg::canonicalize(request_dfg);
    lap(&Stages::canon);
    const serve::CacheKey key{canon.hash, ctx.fingerprint(),
                              map::budgetClassKey(options)};
    const auto entry = svc.cache().lookup(key);
    if (!entry)
        return false;
    lap(&Stages::lookup);
    auto loaded = verify::mappingFromText(entry->mappingText, &error);
    if (!loaded)
        return false;
    lap(&Stages::mappingParse);
    if (loaded->dfg->numNodes() != request_dfg.numNodes() ||
        loaded->dfg->numEdges() != request_dfg.numEdges() ||
        verify::accelSpecOf(*loaded->accel) !=
            verify::accelSpecOf(ctx.accel()))
        return false;
    auto mrrg = ctx.mrrgFor(loaded->mrrg->ii());
    map::Mapping translated(request_dfg, mrrg);
    const auto n = static_cast<dfg::NodeId>(request_dfg.numNodes());
    for (dfg::NodeId v = 0; v < n; ++v) {
        const map::Placement &p = loaded->mapping->placement(v);
        if (!p.mapped())
            return false;
        translated.placeNode(canon.nodeOrder[static_cast<size_t>(v)], p.pe,
                             p.time);
    }
    const auto m = static_cast<dfg::EdgeId>(request_dfg.numEdges());
    for (dfg::EdgeId e = 0; e < m; ++e) {
        if (!loaded->mapping->isRouted(e))
            return false;
        translated.setRoute(canon.edgeOrder[static_cast<size_t>(e)],
                            loaded->mapping->route(e));
    }
    lap(&Stages::translate);
    if (!verify::verifyMapping(request_dfg, *mrrg, translated).ok())
        return false;
    lap(&Stages::check);
    out.ok = out.verified = out.cacheHit = true;
    out.ii = entry->ii;
    out.mii = entry->mii;
    out.winner = entry->winner;
    out.attempts = entry->attempts;
    out.searchSeconds = entry->searchSeconds;
    out.mappingText = verify::mappingToText(translated);
    lap(&Stages::text);
    const std::string response = serve::encodeMapResponse(out, 0.0);
    lap(&Stages::encode);
    return !response.empty();
}

double
average(double sum, long n)
{
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

} // namespace

bool
runServeWorkload(const RunConfig &cfg, Report &report)
{
    const bool mixed = cfg.workload == "serve-mixed";
    ThreadPool::setGlobalThreads(kPoolThreads);

    arch::CgraArch accel(arch::baselineCgra(4, 4));
    const std::string spec = verify::accelSpecOf(accel);
    const std::string socket_path =
        cfg.workDir + "/pb" + std::to_string(::getpid()) + ".sock";
    const std::string cache_path = cfg.workDir + "/" + cfg.workload + ".lsrv";

    std::vector<Request> kernels;
    for (const std::string &name : workloads::polybenchKernelNames()) {
        Request r;
        r.dfg = workloads::polybenchKernel(name);
        r.line = mapRequestLine(dfg::toText(r.dfg), spec, kPerIiBudget,
                                kTotalBudget);
        r.source = static_cast<int>(kernels.size());
        kernels.push_back(std::move(r));
    }

    // Set-up, repeated so setup_s is a median: boot a cold daemon and warm
    // its cache through its own miss path from kConnections clients.
    Daemon daemon;
    std::vector<double> setups;
    std::vector<ClientState> warm(kConnections);
    for (int i = 0; i < kSetups; ++i) {
        const auto t0 = i == 0 ? cfg.processStart : Clock::now();
        daemon.shutdown();
        removeFile(cache_path);
        serve::ServeConfig scfg;
        scfg.cacheFile = mixed ? cache_path : std::string();
        scfg.maxInflight = kMaxInflight;
        daemon.service = std::make_unique<serve::MappingService>(scfg);
        daemon.server =
            std::make_unique<serve::ServeServer>(*daemon.service, socket_path);
        std::string error;
        if (!daemon.server->start(&error)) {
            std::cerr << "[perfbench] serve set-up: " << error << "\n";
            return false;
        }
        std::vector<std::thread> clients;
        for (int c = 0; c < kConnections; ++c) {
            clients.emplace_back([&, c] {
                ClientState &st = warm[static_cast<size_t>(c)];
                try {
                    Client client(socket_path);
                    for (size_t k = static_cast<size_t>(c);
                         k < kernels.size(); k += kConnections)
                        issue(client, st, kernels[k], true);
                } catch (const std::exception &e) {
                    ++st.errors;
                    st.firstError = e.what();
                }
            });
        }
        for (auto &t : clients)
            t.join();
        setups.push_back(secondsBetween(t0, Clock::now()));
    }
    // The warm daemon's footprint. Read here, because what the load
    // phase adds (client-side samples, cache growth) scales with how many
    // requests a run completes, not with the daemon's memory use.
    const double rss_mb = peakRssMb();

    // Inputs, from the workload seed only. Fresh kernels are generated in
    // send order from their own stream as the run reaches them.
    std::vector<ClientState> states(kConnections);
    const Rng base(cfg.seed);
    for (int c = 0; c < kConnections; ++c) {
        ClientState &st = states[static_cast<size_t>(c)];
        Rng rng = base.split(static_cast<uint64_t>(c));
        for (int v = 0; v < kVariantsPerClient; ++v) {
            const Request &k = kernels[rng.index(kernels.size())];
            Request r;
            r.dfg = renumberedVariant(
                k.dfg, rng, "k" + std::to_string(rng.uniformInt(0, 999999)));
            r.line = mapRequestLine(dfg::toText(r.dfg), spec, kPerIiBudget,
                                    kTotalBudget);
            r.source = k.source;
            st.variants.push_back(std::move(r));
        }
        st.rng = rng.split(1);
        st.freshRng = rng.split(2);
        st.freshBase = 1000000 * (c + 1);
    }

    // Timed phase: closed loop from every connection for cfg.seconds.
    const serve::ServeStats before = daemon.service->stats();
    const auto phase0 = Clock::now();
    {
        std::vector<std::thread> clients;
        for (int c = 0; c < kConnections; ++c) {
            clients.emplace_back([&, c] {
                ClientState &st = states[static_cast<size_t>(c)];
                try {
                    Client client(socket_path);
                    for (long i = 0; secondsBetween(phase0, Clock::now()) <
                                     cfg.seconds;
                         ++i) {
                        const long slot = i % kMixPeriod;
                        if (mixed && slot == 0) {
                            addFresh(st, spec);
                            issue(client, st, st.fresh.back(), true);
                        } else if (mixed && slot == kMixPeriod / 2) {
                            issue(client, st,
                                  st.freshAgain[st.rng.index(
                                      st.freshAgain.size())],
                                  false);
                        } else {
                            issue(client, st,
                                  st.variants[st.rng.index(
                                      st.variants.size())],
                                  false);
                        }
                    }
                } catch (const std::exception &e) {
                    ++st.errors;
                    st.firstError = e.what();
                }
            });
        }
        for (auto &t : clients)
            t.join();
    }
    const double load_s = secondsBetween(phase0, Clock::now());
    const serve::ServeStats after = daemon.service->stats();

    // Outside the timed region: correctness of every distinct served
    // mapping, simulated once per cache line.
    std::set<int> simulated;
    const auto check_client = [&](ClientState &st, const char *phase) {
        const long ops =
            std::max(static_cast<long>(st.samples.size()), st.errors);
        long bad = st.errors;
        if (st.errors > 0)
            report.fail(std::string(phase) + " request failed: " +
                        st.firstError);
        for (const auto &[req, texts] : st.served) {
            for (const Served &sv : texts) {
                const bool sim = simulated.insert(req->source).second;
                const std::string why =
                    checkServedMapping(sv.text, req->dfg, sim);
                if (!why.empty()) {
                    bad += sv.count;
                    report.fail(std::string(phase) + " mapping of source " +
                                std::to_string(req->source) + ": " + why);
                }
            }
        }
        report.count(ops, bad);
    };
    for (ClientState &st : warm)
        check_client(st, "warm-up");
    for (ClientState &st : states)
        check_client(st, "load");

    std::vector<Sample> all;
    for (ClientState &st : states)
        all.insert(all.end(), st.samples.begin(), st.samples.end());
    std::vector<double> hit_ms, miss_ms;
    long fresh_not_at_mii = 0;
    for (const Sample &s : all) {
        if (!s.ok)
            continue;
        (s.hit ? hit_ms : miss_ms).push_back(s.rtMs);
        if (s.fresh && !s.hit && !s.atMii)
            ++fresh_not_at_mii;
    }

    // Throughput as the median wall time per unit of completed requests.
    const size_t unit = mixed ? 200 : 1000;
    std::vector<Clock::time_point> done;
    for (const Sample &s : all)
        done.push_back(s.done);
    std::sort(done.begin(), done.end());
    std::vector<double> unit_s;
    for (size_t end = unit; end <= done.size(); end += unit) {
        const auto from = end == unit ? phase0 : done[end - unit - 1];
        unit_s.push_back(secondsBetween(from, done[end - 1]));
    }
    if (unit_s.empty() && !done.empty())
        unit_s.push_back(load_s * static_cast<double>(unit) /
                         static_cast<double>(done.size()));

    report.note("requests", std::to_string(all.size()));
    report.note("hits", std::to_string(hit_ms.size()));
    report.note("misses", std::to_string(miss_ms.size()));
    report.note("fresh_not_at_mii", std::to_string(fresh_not_at_mii));
    report.note("work_unit_requests", std::to_string(unit));
    report.note("pool_threads", std::to_string(kPoolThreads));
    report.note("connections", std::to_string(kConnections));
    report.metric("setup_s", median(setups), "s");
    report.metric("work_s", median(unit_s), "s");
    const double hit_p50 = percentile(hit_ms, 0.50);
    const double hit_p99 = percentile(hit_ms, 0.99);
    const double miss_p50 = percentile(miss_ms, 0.50);
    const double miss_p90 = percentile(miss_ms, 0.90);
    // What a client of this traffic mix mostly waits on. The tails are
    // per-layer: on a shared 4-core machine, hit p90 and p99 moved by a
    // quarter to a third between runs at identical settings.
    report.metric("main_ms", mixed ? miss_p50 : hit_p50, "ms");
    report.metric("peak_rss_mb", rss_mb, "MB");

    if (cfg.trace) {
        report.metric("hit_p50_ms", hit_p50, "ms");
        report.metric("hit_p99_ms", hit_p99, "ms");
        report.metric("miss_p50_ms", miss_p50, "ms");
        report.metric("miss_p90_ms", miss_p90, "ms");
        report.metric("rps", static_cast<double>(all.size()) / load_s,
                      "1/s");

        // Hit path: replay every fig9a variant through the stage
        // functions, traced and untraced, against the live cache.
        arch::ArchContext ctx(accel, std::string());
        Stages stages;
        double traced_s = 0.0, untraced_s = 0.0;
        long replays = 0;
        for (int round = 0; round < 2; ++round) {
            for (ClientState &st : states) {
                for (const Request &r : st.variants) {
                    const auto t0 = Clock::now();
                    const bool traced_ok =
                        replayHit(r.line, *daemon.service, ctx, &stages);
                    const auto t1 = Clock::now();
                    const bool untraced_ok =
                        replayHit(r.line, *daemon.service, ctx, nullptr);
                    const auto t2 = Clock::now();
                    if (!traced_ok || !untraced_ok) {
                        report.count(1, 1);
                        report.fail("hit replay failed for source " +
                                    std::to_string(r.source));
                        continue;
                    }
                    traced_s += secondsBetween(t0, t1);
                    untraced_s += secondsBetween(t1, t2);
                    ++replays;
                }
            }
        }
        const double per = average(1e6, replays);
        double hit_rt_us = 0.0, socket_us = 0.0;
        long hits = 0;
        double miss_rt = 0.0, miss_search = 0.0, miss_queue = 0.0,
               miss_socket = 0.0;
        long misses = 0, sa = 0, ilp = 0, evo = 0;
        for (const Sample &s : all) {
            if (!s.ok)
                continue;
            if (s.hit) {
                hit_rt_us += s.rtMs * 1e3;
                socket_us += (s.rtMs - s.serviceMs) * 1e3;
                ++hits;
            } else {
                miss_rt += s.rtMs;
                miss_search += s.searchS;
                miss_queue += s.serviceMs - s.searchS * 1e3;
                miss_socket += s.rtMs - s.serviceMs;
                ++misses;
                sa += s.winner == "SA";
                ilp += s.winner == "ILP*";
                evo += s.winner == "EVO";
            }
        }
        hit_rt_us = average(hit_rt_us, hits);
        socket_us = average(socket_us, hits);
        // Hit round trip = socket + the replayed stages + uncovered.
        report.metric("serve.hit_rt_us", hit_rt_us, "us");
        report.metric("serve.decode_us", stages.decode * per, "us");
        report.metric("dfg.parse_us", stages.parse * per, "us");
        report.metric("dfg.validate_us", stages.validate * per, "us");
        report.metric("serve.arch_resolve_us", stages.arch * per, "us");
        report.metric("dfg.canonicalize_us", stages.canon * per, "us");
        report.metric("serve.cache_lookup_us", stages.lookup * per, "us");
        report.metric("verify.mapping_parse_us", stages.mappingParse * per,
                      "us");
        report.metric("serve.translate_us", stages.translate * per, "us");
        report.metric("verify.check_us", stages.check * per, "us");
        report.metric("verify.mapping_text_us", stages.text * per, "us");
        report.metric("serve.encode_us", stages.encode * per, "us");
        report.metric("serve.socket_us", socket_us, "us");
        report.metric("serve.uncovered_us",
                      hit_rt_us - socket_us - stages.total() * per, "us");
        report.metric("trace.overhead_share",
                      untraced_s > 0 ? traced_s / untraced_s - 1.0 : 0.0,
                      "ratio");

        // Miss round trip = socket + queue wait + search.
        report.metric("serve.miss_rt_ms", average(miss_rt, misses), "ms");
        report.metric("serve.search_s", average(miss_search, misses), "s");
        report.metric("serve.queue_wait_ms", average(miss_queue, misses),
                      "ms");
        report.metric("serve.miss_socket_ms", average(miss_socket, misses),
                      "ms");
        report.metric("serve.winner_share.sa",
                      average(static_cast<double>(sa), misses), "ratio");
        report.metric("serve.winner_share.ilp",
                      average(static_cast<double>(ilp), misses), "ratio");
        report.metric("serve.winner_share.evo",
                      average(static_cast<double>(evo), misses), "ratio");
        report.metric("serve.searches",
                      static_cast<double>(after.searches - before.searches),
                      "count");
        report.metric("serve.coalesced",
                      static_cast<double>(after.coalesced - before.coalesced),
                      "count");
        report.metric("serve.cache_entries",
                      static_cast<double>(daemon.service->cache().size()),
                      "count");
        const std::string save_path = cfg.workDir + "/save-probe.lsrv";
        std::vector<double> saves;
        for (int i = 0; i < 5; ++i) {
            const auto t0 = Clock::now();
            if (!daemon.service->cache().save(save_path))
                report.fail("MappingCache::save failed");
            saves.push_back(secondsBetween(t0, Clock::now()) * 1e3);
        }
        removeFile(save_path);
        report.metric("serve.cache_save_ms", median(saves), "ms");

        // What a cold daemon pays for the MRRGs of the warmed IIs.
        std::set<int> iis;
        for (const ClientState &st : warm)
            for (const auto &[req, texts] : st.served)
                for (const Served &sv : texts)
                    if (auto m = verify::mappingFromText(sv.text))
                        iis.insert(m->mrrg->ii());
        arch::ArchContext cold(accel, std::string());
        const auto t0 = Clock::now();
        for (int ii : iis)
            cold.mrrgFor(ii);
        report.metric("arch.mrrg_build_s", secondsBetween(t0, Clock::now()),
                      "s");
    }

    daemon.shutdown();
    removeFile(cache_path);
    return true;
}

} // namespace perfbench
