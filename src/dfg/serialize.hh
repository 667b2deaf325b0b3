/**
 * @file
 * Plain-text (de)serialization for DFGs.
 *
 * Format (one record per line, '#' comments allowed):
 * @code
 *   dfg <name>
 *   node <id> <op> [name]
 *   edge <src> <dst> [iterDistance]
 * @endcode
 * Node ids must be dense and ascending from 0. Fields are separated by
 * space, '\t', '\r', '\v' or '\f', so CRLF text reads as LF text, and
 * tokens after the last field of a record are ignored. A name (graph or
 * node) is one token: the writer spells '%', '#' and every byte at or
 * below ' ' or at 0x7f as %XX (two hex digits), and the reader decodes
 * them, so any name round-trips ("B2.a#3" is written "B2.a%233"). A '%'
 * without two hex digits after it is malformed. Every integer
 * field is a whole token: an optional sign and decimal digits, nothing
 * else ("3x" and "2.5" are malformed).
 */

#ifndef LISA_DFG_SERIALIZE_HH
#define LISA_DFG_SERIALIZE_HH

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "dfg/dfg.hh"

namespace lisa::dfg {

/** @{ Largest DFG the text decoder accepts. DFG text arrives from
 *  socket requests and mapping files, and canonicalization is
 *  superlinear in the node count, so both counts are bounded as each
 *  record is read. The largest kernel in the tree (symm unrolled by 4)
 *  has 92 nodes and 108 edges; these bounds leave ample room above it. */
constexpr size_t kMaxTextNodes = 512;
constexpr size_t kMaxTextEdges = 2048;
/** @} */

/** Largest loop-carried iteration distance the text decoder accepts.
 *  A distance-d edge is routed across up to d * II cycles, and the
 *  router's temporal DP keeps one row per cycle, so its memory grows
 *  linearly with d (and d * II overflows int for a large enough d). The
 *  in-tree kernels and fixtures use at most 3. */
constexpr int kMaxTextIterDistance = 8;

/** Append @p dfg in the text format to @p out. */
void appendText(const Dfg &dfg, std::string &out);

/** Render the text format to a string. */
std::string toText(const Dfg &dfg);

/**
 * Parse the text format. Returns std::nullopt (and fills @p error if
 * non-null, with "line N: ..." for a bad record) on malformed input,
 * including an unknown op mnemonic, a negative iteration distance or one
 * above kMaxTextIterDistance, more than kMaxTextNodes nodes or
 * kMaxTextEdges edges, and a graph that fails Dfg::validate(): a parsed
 * graph needs no second validation.
 */
std::optional<Dfg> fromText(std::string_view text,
                            std::string *error = nullptr);

/** fromText() over the rest of @p is. */
std::optional<Dfg> readText(std::istream &is, std::string *error = nullptr);

/** Render a Graphviz dot view (for debugging / docs). */
std::string toDot(const Dfg &dfg);

} // namespace lisa::dfg

#endif // LISA_DFG_SERIALIZE_HH
