/**
 * @file
 * Minimal JSON support: string escaping for the hand-rolled emitters,
 * and a small recursive-descent value parser for the consumers (the
 * serve daemon's newline-delimited request protocol).
 *
 * The bench harness and the stats sinks build their JSON lines with
 * ostringstream; any string that reaches those lines (accelerator names,
 * kernel names, mapper names) must be escaped or a single quote or
 * backslash breaks every downstream consumer of the JSONL file. One
 * shared helper keeps the escaping rules in one place. The parser is the
 * inverse: strict enough to reject malformed requests with a message
 * instead of undefined behavior, small enough to audit (no dependency —
 * the container bakes in no JSON library and the tree takes none).
 */

#ifndef LISA_SUPPORT_JSON_HH
#define LISA_SUPPORT_JSON_HH

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace lisa {

/**
 * Append @p s to @p out escaped for embedding inside a double-quoted JSON
 * string literal: backslash, double quote, and every control character
 * below 0x20 (the common ones as the two-character forms, the rest as
 * \u00xx). Does not add the surrounding quotes. Runs of bytes that need
 * no escape are appended in one call.
 */
void appendJsonEscaped(std::string &out, std::string_view s);

/** appendJsonEscaped() into a fresh string. */
std::string jsonEscape(std::string_view s);

/**
 * One parsed JSON value. Objects use std::map (ordered, deterministic
 * iteration — the determinism lint bans unordered containers on paths
 * whose iteration order can leak into output).
 */
struct JsonValue
{
    enum class Kind : uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Member lookup on an object; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /** String member with fallback (absent / wrong type -> @p fallback). */
    std::string str(const std::string &key,
                    const std::string &fallback = "") const;

    /** Numeric member with fallback (absent / wrong type -> @p fallback). */
    double num(const std::string &key, double fallback = 0.0) const;

    /** Boolean member with fallback (absent / wrong type -> @p fallback). */
    bool flag(const std::string &key, bool fallback = false) const;
};

/**
 * Parse one complete JSON document from @p text. Trailing non-whitespace
 * is an error (the serve protocol is one document per line). On failure
 * returns nullptr and fills @p error (if non-null) with a position-
 * annotated message. Handles nesting up to a fixed depth limit, \uXXXX
 * escapes (encoded as UTF-8, surrogate pairs included), and the full
 * number grammar via strtod.
 */
std::unique_ptr<JsonValue> jsonParse(const std::string &text,
                                     std::string *error = nullptr);

} // namespace lisa

#endif // LISA_SUPPORT_JSON_HH
