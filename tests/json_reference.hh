/**
 * @file
 * Reference JSON routines: the char-at-a-time jsonEscape and
 * recursive-descent jsonParse that the production routines in
 * src/support/json.cc must agree with. Same escapes, same parse results,
 * same error strings. Lives outside the lisa library so production code
 * cannot call it; tests/test_text_writer_diff.cc compares the two.
 */

#ifndef LISA_TESTS_JSON_REFERENCE_HH
#define LISA_TESTS_JSON_REFERENCE_HH

#include <memory>
#include <string>

#include "support/json.hh"

namespace lisa {

std::string jsonEscapeReference(const std::string &s);

std::unique_ptr<JsonValue> jsonParseReference(const std::string &text,
                                              std::string *error = nullptr);

} // namespace lisa

#endif // LISA_TESTS_JSON_REFERENCE_HH
