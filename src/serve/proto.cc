#include "serve/proto.hh"

#include "support/json.hh"
#include "support/text_append.hh"

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
    std::string out;
    if (!o.ok) {
        out.reserve(64 + o.error.size());
        out += "{\"ok\":false,\"op\":\"map\",\"error\":\"";
        appendJsonEscaped(out, o.error);
        out += "\",\"serviceMs\":";
        support::appendDouble(out, service_ms);
        out += '}';
        return out;
    }
    // The mapping text is most of the line; its escapes (one per line
    // end) add about a tenth.
    out.reserve(256 + o.budgetClass.size() + o.winner.size() +
                o.mappingText.size() + o.mappingText.size() / 8);
    out += "{\"ok\":true,\"op\":\"map\",\"cacheHit\":";
    out += o.cacheHit ? "true" : "false";
    out += ",\"coalesced\":";
    out += o.coalesced ? "true" : "false";
    out += ",\"ii\":";
    support::appendInt(out, o.ii);
    out += ",\"mii\":";
    support::appendInt(out, o.mii);
    out += ",\"verified\":";
    out += o.verified ? "true" : "false";
    out += ",\"budgetClass\":\"";
    appendJsonEscaped(out, o.budgetClass);
    out += "\",\"winner\":\"";
    appendJsonEscaped(out, o.winner);
    out += "\",\"attempts\":";
    support::appendInt(out, o.attempts);
    out += ",\"searchSeconds\":";
    support::appendDouble(out, o.searchSeconds);
    out += ",\"serviceMs\":";
    support::appendDouble(out, service_ms);
    out += ",\"mapping\":\"";
    appendJsonEscaped(out, o.mappingText);
    out += "\"}";
    return out;
}

std::string
encodeError(const std::string &message)
{
    return "{\"ok\":false,\"error\":\"" + jsonEscape(message) + "\"}";
}

} // namespace lisa::serve
