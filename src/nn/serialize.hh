/**
 * @file
 * Plain-text save/load of module parameters. Models trained for one
 * accelerator are cached on disk so benchmark binaries can share them.
 *
 * Format:
 * @code
 *   lisa-model <modelName>
 *   param <name> <rows> <cols>
 *   <rows*cols whitespace-separated doubles>
 * @endcode
 */

#ifndef LISA_NN_SERIALIZE_HH
#define LISA_NN_SERIALIZE_HH

#include <iosfwd>
#include <string>
#include <string_view>

#include "nn/module.hh"

namespace lisa::nn {

/** Write all parameters of @p module. */
void saveModule(const Module &module, const std::string &model_name,
                std::ostream &os);

/**
 * Load parameters from the model text @p text into @p module, matching
 * by name and shape. Fails closed: @return false (with @p error filled if
 * non-null) on a missing header, an unknown record, a malformed param
 * header, a non-numeric, non-finite or out-of-range value, a file cut
 * short at any byte (the last line must end in a newline), a missing
 * parameter or a shape mismatch. Every file saveModule writes loads back
 * bit-exactly.
 */
bool loadModule(Module &module, std::string_view text,
                std::string *error = nullptr);

/** loadModule over the whole of @p is. */
bool loadModule(Module &module, std::istream &is,
                std::string *error = nullptr);

/** Save to a file path; returns false on I/O failure. */
bool saveModuleFile(const Module &module, const std::string &model_name,
                    const std::string &path);

/** Load from a file path; returns false when absent or malformed. */
bool loadModuleFile(Module &module, const std::string &path,
                    std::string *error = nullptr);

} // namespace lisa::nn

#endif // LISA_NN_SERIALIZE_HH
