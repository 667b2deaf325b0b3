/**
 * @file
 * lisa-serve wire protocol: newline-delimited JSON over a local socket.
 *
 * One request per line, one response line per request, in order. Ops:
 *
 *   {"op":"ping"}
 *       -> {"ok":true,"op":"ping"}
 *   {"op":"stats"}
 *       -> {"ok":true,"op":"stats","stats":{"requests":N,"hits":N,...}}
 *   {"op":"shutdown"}
 *       -> {"ok":true,"op":"shutdown"}   (daemon exits after replying)
 *   {"op":"map","dfg":"<dfg text, \n-escaped>",
 *    "accel":"accel cgra 4 4 1 left 4",
 *    "perIiBudget":3.0,"totalBudget":6.0,"seed":1}
 *       -> {"ok":true,"op":"map","cacheHit":bool,"coalesced":bool,
 *           "ii":N,"mii":N,"verified":bool,"budgetClass":"full",
 *           "winner":"SA","attempts":N,"searchSeconds":S,
 *           "serviceMs":M,"mapping":"<lisa-mapping v1 text>"}
 *
 * The embedded DFG uses dfg/serialize.hh's text format; the accel spec is
 * verify::accelSpecOf()'s line; the returned mapping is mapping_io.hh's
 * self-contained "lisa-mapping v1" artifact in the *request's* node
 * numbering (cache-internal canonical ids never leak to clients). Any
 * malformed request gets {"ok":false,"error":"..."} and the connection
 * stays usable.
 */

#ifndef LISA_SERVE_PROTO_HH
#define LISA_SERVE_PROTO_HH

#include <string>

namespace lisa {
struct JsonValue;
} // namespace lisa

namespace lisa::serve {

/** A decoded "map" request. */
struct MapRequest
{
    std::string dfgText;
    std::string accelSpec;
    double perIiBudget = 3.0;
    double totalBudget = 60.0;
    uint64_t seed = 1;
};

/** The service-level outcome of one "map" request. */
struct MapOutcome
{
    bool ok = false;
    std::string error;
    bool cacheHit = false;
    /** True when this miss piggybacked on another request's search. */
    bool coalesced = false;
    int ii = 0;
    int mii = 0;
    bool verified = false;
    std::string budgetClass;
    std::string winner;
    long attempts = 0;
    /** Wall-clock the underlying search took (0 for pure hits). */
    double searchSeconds = 0.0;
    /** "lisa-mapping v1" text in request node numbering (success only). */
    std::string mappingText;
};

/**
 * Decode the "map" fields of one parsed request. @return false (and
 * fills @p error) when @p doc is not a well-formed map request.
 */
bool decodeMapRequest(const JsonValue &doc, MapRequest &out,
                      std::string *error);

/** Parse one request line and decode it as above. */
bool decodeMapRequest(const std::string &line, MapRequest &out,
                      std::string *error);

/** Encode a map outcome (plus measured @p service_ms) as one JSON line,
 *  without the trailing newline. */
std::string encodeMapResponse(const MapOutcome &outcome, double service_ms);

/** Encode a generic {"ok":false,"error":...} line. */
std::string encodeError(const std::string &message);

} // namespace lisa::serve

#endif // LISA_SERVE_PROTO_HH
