/**
 * @file
 * Reference DFG text reader: the plain istream reader the production
 * string_view parser in src/dfg/serialize.cc must agree with.
 *
 * It reads each line through its own istringstream and each number with
 * operator>>, shares no tokenizing code with the production parser, and
 * lives outside the lisa library so production code cannot call it.
 * tests/test_dfg_text_diff.cc feeds both readers the same texts;
 * bench/micro_kernels times both.
 *
 * The two readers differ on one class of input, by design: operator>>
 * stops at the first non-digit, so this reader takes `node 0add` as node
 * 0 with op `add`, and reads a non-integer iteration distance
 * (`edge 0 1 x`, `edge 0 1 2.5`) as 0 or as its integer prefix. The
 * production parser requires every integer field to be a whole integer
 * token and rejects those lines. Both readers decode %XX escapes in
 * names, each with its own code.
 */

#ifndef LISA_TESTS_DFG_TEXT_REFERENCE_HH
#define LISA_TESTS_DFG_TEXT_REFERENCE_HH

#include <optional>
#include <string>

#include "dfg/dfg.hh"

namespace lisa::dfg {

/** Parse @p text with the reference reader. Same records, bounds and
 *  error strings as dfg::fromText. */
std::optional<Dfg> fromTextReference(const std::string &text,
                                     std::string *error = nullptr);

} // namespace lisa::dfg

#endif // LISA_TESTS_DFG_TEXT_REFERENCE_HH
