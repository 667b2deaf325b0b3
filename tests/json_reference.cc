#include "json_reference.hh"

#include <cstdio>
#include <cstdlib>

namespace lisa {

std::string
jsonEscapeReference(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\b':
            out += "\\b";
            break;
        case '\f':
            out += "\\f";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

namespace {

/** Recursive-descent JSON parser over one in-memory document. */
struct JsonParser
{
    const std::string &text;
    size_t pos = 0;
    std::string error;

    static constexpr int kMaxDepth = 64;

    bool
    fail(const std::string &what)
    {
        if (error.empty()) {
            error = what;
            error += " at offset ";
            error += std::to_string(pos);
        }
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
                text[pos] == '\r'))
            ++pos;
    }

    bool
    literal(const char *word, size_t len)
    {
        if (text.compare(pos, len, word) != 0)
            return fail("invalid literal");
        pos += len;
        return true;
    }

    /** Append Unicode code point @p cp to @p out as UTF-8. */
    static void
    appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xc0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xe0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
            out += static_cast<char>(0xf0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        }
    }

    bool
    hex4(unsigned &out)
    {
        if (pos + 4 > text.size())
            return fail("truncated \\u escape");
        out = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text[pos++];
            out <<= 4;
            if (c >= '0' && c <= '9')
                out |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                out |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                out |= static_cast<unsigned>(c - 'A' + 10);
            else
                return fail("bad hex digit in \\u escape");
        }
        return true;
    }

    bool
    parseString(std::string &out)
    {
        ++pos; // opening quote
        while (true) {
            if (pos >= text.size())
                return fail("unterminated string");
            const char c = text[pos];
            if (c == '"') {
                ++pos;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                out += c;
                ++pos;
                continue;
            }
            ++pos;
            if (pos >= text.size())
                return fail("truncated escape");
            const char e = text[pos++];
            switch (e) {
            case '"':
                out += '"';
                break;
            case '\\':
                out += '\\';
                break;
            case '/':
                out += '/';
                break;
            case 'b':
                out += '\b';
                break;
            case 'f':
                out += '\f';
                break;
            case 'n':
                out += '\n';
                break;
            case 'r':
                out += '\r';
                break;
            case 't':
                out += '\t';
                break;
            case 'u': {
                unsigned cp = 0;
                if (!hex4(cp))
                    return false;
                if (cp >= 0xd800 && cp <= 0xdbff) {
                    // High surrogate: must pair with a low one.
                    if (pos + 2 > text.size() || text[pos] != '\\' ||
                        text[pos + 1] != 'u')
                        return fail("unpaired surrogate");
                    pos += 2;
                    unsigned lo = 0;
                    if (!hex4(lo))
                        return false;
                    if (lo < 0xdc00 || lo > 0xdfff)
                        return fail("bad low surrogate");
                    cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                } else if (cp >= 0xdc00 && cp <= 0xdfff) {
                    return fail("unpaired surrogate");
                }
                appendUtf8(out, cp);
                break;
            }
            default:
                return fail("unknown escape");
            }
        }
    }

    bool
    parseNumber(JsonValue &out)
    {
        const size_t start = pos;
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        if (pos >= text.size() ||
            !(text[pos] >= '0' && text[pos] <= '9'))
            return fail("malformed number");
        while (pos < text.size() &&
               ((text[pos] >= '0' && text[pos] <= '9') || text[pos] == '.' ||
                text[pos] == 'e' || text[pos] == 'E' || text[pos] == '+' ||
                text[pos] == '-'))
            ++pos;
        const std::string tok = text.substr(start, pos - start);
        char *end = nullptr;
        out.number = std::strtod(tok.c_str(), &end);
        if (end != tok.c_str() + tok.size())
            return fail("malformed number");
        out.kind = JsonValue::Kind::Number;
        return true;
    }

    bool
    parseValue(JsonValue &out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        const char c = text[pos];
        switch (c) {
        case '{': {
            ++pos;
            out.kind = JsonValue::Kind::Object;
            skipWs();
            if (pos < text.size() && text[pos] == '}') {
                ++pos;
                return true;
            }
            while (true) {
                skipWs();
                if (pos >= text.size() || text[pos] != '"')
                    return fail("expected object key");
                std::string key;
                if (!parseString(key))
                    return false;
                skipWs();
                if (pos >= text.size() || text[pos] != ':')
                    return fail("expected ':'");
                ++pos;
                JsonValue v;
                if (!parseValue(v, depth + 1))
                    return false;
                out.object[key] = std::move(v);
                skipWs();
                if (pos < text.size() && text[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (pos < text.size() && text[pos] == '}') {
                    ++pos;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
        }
        case '[': {
            ++pos;
            out.kind = JsonValue::Kind::Array;
            skipWs();
            if (pos < text.size() && text[pos] == ']') {
                ++pos;
                return true;
            }
            while (true) {
                JsonValue v;
                if (!parseValue(v, depth + 1))
                    return false;
                out.array.push_back(std::move(v));
                skipWs();
                if (pos < text.size() && text[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (pos < text.size() && text[pos] == ']') {
                    ++pos;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
        }
        case '"':
            out.kind = JsonValue::Kind::String;
            return parseString(out.string);
        case 't':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return literal("true", 4);
        case 'f':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return literal("false", 5);
        case 'n':
            out.kind = JsonValue::Kind::Null;
            return literal("null", 4);
        default:
            return parseNumber(out);
        }
    }
};

} // namespace

std::unique_ptr<JsonValue>
jsonParseReference(const std::string &text, std::string *error)
{
    JsonParser p{text, 0, {}};
    auto value = std::make_unique<JsonValue>();
    if (!p.parseValue(*value, 0)) {
        if (error)
            *error = p.error;
        return nullptr;
    }
    p.skipWs();
    if (p.pos != text.size()) {
        if (error)
            *error = "trailing characters at offset " + std::to_string(p.pos);
        return nullptr;
    }
    return value;
}

} // namespace lisa
