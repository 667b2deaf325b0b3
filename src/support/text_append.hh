/**
 * @file
 * Number formatting onto the end of a std::string, for the text writers on
 * the serve hit path (DFG text, mapping text, accel spec lines, map
 * responses). Each call formats with std::to_chars into a stack buffer and
 * appends once: no stream, no locale, no temporary string. The output is
 * byte-identical to what std::ostream's operator<< writes by default, so
 * switching a writer from a stream to these helpers changes no byte.
 */

#ifndef LISA_SUPPORT_TEXT_APPEND_HH
#define LISA_SUPPORT_TEXT_APPEND_HH

#include <charconv>
#include <string>
#include <type_traits>

namespace lisa::support {

/** Append the decimal form of integer @p v, as operator<< writes it. */
template <typename Int>
void
appendInt(std::string &out, Int v)
{
    static_assert(std::is_integral_v<Int>);
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

/** Append @p v in operator<<'s default double format: printf's %g with
 *  six significant digits ("0.25", "1e-07", "1e+09"). */
inline void
appendDouble(std::string &out, double v)
{
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                   std::chars_format::general, 6);
    out.append(buf, res.ptr);
}

} // namespace lisa::support

#endif // LISA_SUPPORT_TEXT_APPEND_HH
