#include "nn/serialize.hh"

#include <charconv>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <string_view>
#include <type_traits>

namespace lisa::nn {

void
saveModule(const Module &module, const std::string &model_name,
           std::ostream &os)
{
    os << "lisa-model " << model_name << '\n';
    os << std::setprecision(17);
    for (const auto &[name, t] : module.parameters()) {
        os << "param " << name << ' ' << t.rows() << ' ' << t.cols() << '\n';
        for (int i = 0; i < t.rows(); ++i) {
            for (int j = 0; j < t.cols(); ++j) {
                if (j)
                    os << ' ';
                os << t.at(i, j);
            }
            os << '\n';
        }
    }
}

namespace {

/**
 * The whitespace-separated tokens of one model file held in memory. A
 * token counts only when whitespace follows it: saveModule ends every
 * line with '\n', so a token that runs into the end of the buffer is a
 * file cut short, and a file cut at any byte fails to load.
 */
class Tokens
{
  public:
    explicit Tokens(std::string_view text) : rest(text) {}

    /** The next token; false at the end or on a cut-off last token. */
    bool
    next(std::string_view &tok)
    {
        size_t b = 0;
        while (b < rest.size() && isSpace(rest[b]))
            ++b;
        size_t e = b;
        while (e < rest.size() && !isSpace(rest[e]))
            ++e;
        if (e == rest.size()) {
            cut = e > b;
            rest = {};
            return false;
        }
        tok = rest.substr(b, e - b);
        rest.remove_prefix(e);
        return true;
    }

    /** The last token ran into the end of the buffer. */
    bool cutShort() const { return cut; }

    /** Bytes not yet consumed. */
    size_t remaining() const { return rest.size(); }

  private:
    static bool
    isSpace(char c)
    {
        return c == ' ' || c == '\n' || c == '\t' || c == '\r' ||
               c == '\v' || c == '\f';
    }

    std::string_view rest;
    bool cut = false;
};

/** Parse all of @p tok as a T; doubles must also be finite (from_chars
 *  accepts "nan" and "inf", which no saved model contains). */
template <typename T>
bool
parseAll(std::string_view tok, T &out)
{
    const char *end = tok.data() + tok.size();
    const auto [ptr, ec] = std::from_chars(tok.data(), end, out);
    if (ec != std::errc() || ptr != end)
        return false;
    if constexpr (std::is_floating_point_v<T>)
        return std::isfinite(out);
    return true;
}

std::string
readAll(std::istream &is)
{
    std::ostringstream buf;
    buf << is.rdbuf();
    return std::move(buf).str();
}

} // namespace

bool
loadModule(Module &module, std::string_view text, std::string *error)
{
    auto fail = [&](const std::string &why) {
        if (error)
            *error = why;
        return false;
    };

    Tokens tokens(text);
    std::string_view magic, model_name;
    if (!tokens.next(magic) || magic != "lisa-model" ||
        !tokens.next(model_name))
        return fail("missing lisa-model header");

    struct Param
    {
        int rows = 0;
        int cols = 0;
        std::vector<double> values;
    };
    std::map<std::string, Param> loaded;
    std::string_view kind;
    while (tokens.next(kind)) {
        if (kind != "param")
            return fail("unexpected record '" + std::string(kind) + "'");
        std::string_view name, rows_tok, cols_tok;
        Param p;
        if (!tokens.next(name) || !tokens.next(rows_tok) ||
            !tokens.next(cols_tok) || !parseAll(rows_tok, p.rows) ||
            !parseAll(cols_tok, p.cols) || p.rows <= 0 || p.cols <= 0)
            return fail("malformed param header");
        // Each value takes at least a digit and a separator, so a count
        // the rest of the file cannot hold is rejected before allocating.
        const size_t count = static_cast<size_t>(p.rows) *
                             static_cast<size_t>(p.cols);
        if (count > tokens.remaining() / 2)
            return fail("truncated values for '" + std::string(name) + "'");
        p.values.resize(count);
        for (double &v : p.values) {
            std::string_view tok;
            if (!tokens.next(tok))
                return fail("truncated values for '" + std::string(name) +
                            "'");
            if (!parseAll(tok, v))
                return fail("bad value '" + std::string(tok) + "' for '" +
                            std::string(name) + "'");
        }
        loaded.insert_or_assign(std::string(name), std::move(p));
    }
    if (tokens.cutShort())
        return fail("truncated file");

    for (const auto &[name, t] : module.parameters()) {
        auto it = loaded.find(name);
        if (it == loaded.end())
            return fail("missing parameter '" + name + "'");
        if (it->second.rows != t.rows() || it->second.cols != t.cols())
            return fail("shape mismatch for '" + name + "'");
        t.raw()->data = it->second.values;
    }
    return true;
}

bool
loadModule(Module &module, std::istream &is, std::string *error)
{
    return loadModule(module, readAll(is), error);
}

bool
saveModuleFile(const Module &module, const std::string &model_name,
               const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        return false;
    saveModule(module, model_name, os);
    return static_cast<bool>(os);
}

bool
loadModuleFile(Module &module, const std::string &path, std::string *error)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        if (error)
            *error = "cannot open '" + path + "'";
        return false;
    }
    return loadModule(module, readAll(is), error);
}

} // namespace lisa::nn
