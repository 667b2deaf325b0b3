/**
 * @file
 * Plain-text (de)serialization for complete mapping artifacts, consumed by
 * the `lisa-verify` CLI and producible by any tool holding a map::Mapping.
 *
 * A mapping file is self-contained: it carries the accelerator spec, the
 * II, the DFG (in dfg/serialize.hh's text format), and the placements and
 * routes, so an independent process can rebuild the MRRG and re-check
 * every invariant. Format ('#' comments allowed):
 * @code
 *   lisa-mapping v1
 *   accel cgra <rows> <cols> <regsPerPe> <all|left> <configDepth>
 *   accel systolic <rows> <cols>
 *   ii <ii>
 *   dfg-begin
 *   ...dfg text format...
 *   dfg-end
 *   place <node> <pe> <time>
 *   route <edge> <hops> [<r0> <r1> ...]
 *   end
 * @endcode
 */

#ifndef LISA_VERIFY_MAPPING_IO_HH
#define LISA_VERIFY_MAPPING_IO_HH

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

#include "mapping/mapping.hh"

namespace lisa::verify {

/** A deserialized mapping plus everything it refers to, in lifetime
 *  order: the accelerator outlives the MRRG, the DFG and MRRG outlive
 *  the mapping. */
struct LoadedMapping
{
    std::unique_ptr<arch::Accelerator> accel;
    std::unique_ptr<dfg::Dfg> dfg;
    std::shared_ptr<const arch::Mrrg> mrrg;
    std::unique_ptr<map::Mapping> mapping;
};

/**
 * Reconstructible accelerator spec line ("accel cgra ..." / "accel
 * systolic ..."), or empty when the accelerator type is unsupported.
 * The inverse of accelFromSpec(); also the per-accelerator identity
 * string of the serve daemon's ArchContext registry.
 */
std::string accelSpecOf(const arch::Accelerator &accel);

/**
 * Parse an accelerator spec line produced by accelSpecOf(). Returns
 * nullptr (and fills @p error if non-null) on malformed input, including
 * a fabric larger than the bounds in mapping_io.cc, which are checked
 * before anything is allocated.
 */
std::unique_ptr<arch::Accelerator> accelFromSpec(const std::string &spec,
                                                 std::string *error = nullptr);

/**
 * Render @p mapping in the text format. The accelerator must be a
 * CgraArch or SystolicArch (the spec line must be reconstructible);
 * fatal() otherwise.
 */
std::string mappingToText(const map::Mapping &mapping);

/**
 * Parse the text format and replay it into a fresh Mapping. Structurally
 * impossible files (unknown nodes, out-of-range PEs/times, duplicate
 * placements, routes with unplaced endpoints) are rejected here with an
 * error; everything replayable — including mappings that violate routing
 * or occupancy invariants — loads fine, so the verifier can report on it.
 */
std::optional<LoadedMapping> readMapping(std::istream &is,
                                         std::string *error = nullptr);

/** Parse the text format from a string. */
std::optional<LoadedMapping> mappingFromText(const std::string &text,
                                             std::string *error = nullptr);

} // namespace lisa::verify

#endif // LISA_VERIFY_MAPPING_IO_HH
