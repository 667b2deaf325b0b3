#include "serve/proto.hh"

#include <sstream>

#include "support/json.hh"

namespace lisa::serve {

bool
decodeMapRequest(const JsonValue &doc, MapRequest &out, std::string *error)
{
    if (!doc.isObject()) {
        if (error)
            *error = "request must be a json object";
        return false;
    }
    if (doc.str("op") != "map") {
        if (error)
            *error = "not a map request";
        return false;
    }
    out.dfgText = doc.str("dfg");
    out.accelSpec = doc.str("accel");
    if (out.dfgText.empty() || out.accelSpec.empty()) {
        if (error)
            *error = "map request needs non-empty 'dfg' and 'accel'";
        return false;
    }
    out.perIiBudget = doc.num("perIiBudget", out.perIiBudget);
    out.totalBudget = doc.num("totalBudget", out.totalBudget);
    if (out.perIiBudget <= 0.0 || out.totalBudget <= 0.0) {
        if (error)
            *error = "budgets must be positive";
        return false;
    }
    const double seed = doc.num("seed", 1.0);
    if (seed < 0.0) {
        if (error)
            *error = "seed must be non-negative";
        return false;
    }
    out.seed = static_cast<uint64_t>(seed);
    return true;
}

bool
decodeMapRequest(const std::string &line, MapRequest &out, std::string *error)
{
    std::string parse_error;
    const auto doc = jsonParse(line, &parse_error);
    if (!doc) {
        if (error)
            *error = "bad json: " + parse_error;
        return false;
    }
    return decodeMapRequest(*doc, out, error);
}

std::string
encodeMapResponse(const MapOutcome &o, double service_ms)
{
    std::ostringstream os;
    if (!o.ok) {
        os << "{\"ok\":false,\"op\":\"map\",\"error\":\""
           << jsonEscape(o.error) << "\",\"serviceMs\":" << service_ms
           << "}";
        return os.str();
    }
    os << "{\"ok\":true,\"op\":\"map\",\"cacheHit\":"
       << (o.cacheHit ? "true" : "false")
       << ",\"coalesced\":" << (o.coalesced ? "true" : "false")
       << ",\"ii\":" << o.ii << ",\"mii\":" << o.mii
       << ",\"verified\":" << (o.verified ? "true" : "false")
       << ",\"budgetClass\":\"" << jsonEscape(o.budgetClass)
       << "\",\"winner\":\"" << jsonEscape(o.winner)
       << "\",\"attempts\":" << o.attempts
       << ",\"searchSeconds\":" << o.searchSeconds
       << ",\"serviceMs\":" << service_ms << ",\"mapping\":\""
       << jsonEscape(o.mappingText) << "\"}";
    return os.str();
}

std::string
encodeError(const std::string &message)
{
    return "{\"ok\":false,\"error\":\"" + jsonEscape(message) + "\"}";
}

} // namespace lisa::serve
