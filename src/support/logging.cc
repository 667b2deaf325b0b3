#include "support/logging.hh"

#include <cstdio>

namespace lisa {

namespace detail {

void
emit(const char *tag, const std::string &msg)
{
    std::fprintf(stderr, "[%s] %s\n", tag, msg.c_str());
    std::fflush(stderr);
}

void
die(const char *tag, const std::string &msg, bool abrt)
{
    emit(tag, msg);
    if (abrt)
        std::abort();
    std::exit(1);
}

} // namespace detail

} // namespace lisa
