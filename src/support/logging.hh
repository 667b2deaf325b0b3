/**
 * @file
 * Lightweight logging and error-reporting helpers, gem5-flavoured.
 *
 * inform() reports normal status, warn() reports suspicious-but-survivable
 * conditions, fatal() aborts on user error (bad config / bad input), and
 * panic() aborts on internal invariant violations (library bugs).
 */

#ifndef LISA_SUPPORT_LOGGING_HH
#define LISA_SUPPORT_LOGGING_HH

#include <cstdlib>
#include <sstream>
#include <string>

namespace lisa {

namespace detail {

void emit(const char *tag, const std::string &msg);

[[noreturn]] void die(const char *tag, const std::string &msg, bool abrt);

template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

/** Print an informational message. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::emit("info", detail::format(std::forward<Args>(args)...));
}

/** Print a warning; execution continues. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::emit("warn", detail::format(std::forward<Args>(args)...));
}

/** Abort due to a user-facing error (bad configuration or input). */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::die("fatal", detail::format(std::forward<Args>(args)...), false);
}

/** Abort due to an internal invariant violation (a library bug). */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::die("panic", detail::format(std::forward<Args>(args)...), true);
}

} // namespace lisa

#endif // LISA_SUPPORT_LOGGING_HH
