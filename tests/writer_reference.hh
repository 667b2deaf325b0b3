/**
 * @file
 * Reference text writers: the std::ostream implementations of the DFG
 * text, accelerator spec, mapping text and serve response writers, which
 * the production std::string writers (dfg::toText, verify::accelSpecOf,
 * verify::mappingToText, serve::encodeMapResponse) must match byte for
 * byte. Numbers go through operator<<, so the doubles of a response keep
 * ostream's default format; JSON strings go through jsonEscapeReference.
 * The file lives outside the lisa library so production code cannot call
 * it; tests/test_text_writer_diff.cc feeds both sides the same values.
 */

#ifndef LISA_TESTS_WRITER_REFERENCE_HH
#define LISA_TESTS_WRITER_REFERENCE_HH

#include <string>

#include "arch/accelerator.hh"
#include "dfg/dfg.hh"
#include "mapping/mapping.hh"
#include "serve/proto.hh"

namespace lisa::dfg {

std::string toTextReference(const Dfg &dfg);

} // namespace lisa::dfg

namespace lisa::verify {

std::string accelSpecOfReference(const arch::Accelerator &accel);
std::string mappingToTextReference(const map::Mapping &mapping);

} // namespace lisa::verify

namespace lisa::serve {

std::string encodeMapResponseReference(const MapOutcome &outcome,
                                       double service_ms);

} // namespace lisa::serve

#endif // LISA_TESTS_WRITER_REFERENCE_HH
