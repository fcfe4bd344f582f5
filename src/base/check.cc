#include "base/check.hh"

#include <cstdlib>
#include <string_view>

namespace orion::core {

namespace {

int
clampToCompiled(int level)
{
    if (level < 0)
        return 0;
    if (level > ORION_CHECK_MAX_LEVEL)
        return ORION_CHECK_MAX_LEVEL;
    return level;
}

/** Parse the ORION_CHECK environment variable (default: cheap). */
int
levelFromEnvironment()
{
    const char* env = std::getenv("ORION_CHECK");
    if (env == nullptr)
        return clampToCompiled(static_cast<int>(CheckLevel::Cheap));
    const std::string_view v(env);
    if (v == "0" || v == "off" || v == "none")
        return 0;
    if (v == "1" || v == "cheap" || v == "on")
        return clampToCompiled(1);
    if (v == "2" || v == "paranoid" || v == "full")
        return clampToCompiled(2);
    // Unrecognized values fall back to the default rather than
    // silently disabling the checks.
    return clampToCompiled(static_cast<int>(CheckLevel::Cheap));
}

} // namespace

namespace detail {

int
initCheckLevel()
{
    const int level = levelFromEnvironment();
    // Several threads may race the first lookup; they all compute the
    // same environment-derived value, so last-writer-wins is benign.
    g_checkLevel.store(level, std::memory_order_relaxed);
    return level;
}

} // namespace detail

CheckLevel
checkLevel()
{
    int level = detail::g_checkLevel.load(std::memory_order_relaxed);
    if (level < 0)
        level = detail::initCheckLevel();
    return static_cast<CheckLevel>(level);
}

void
setCheckLevel(CheckLevel level)
{
    detail::g_checkLevel.store(clampToCompiled(static_cast<int>(level)),
                               std::memory_order_relaxed);
}

CheckLevel
compiledCheckLevel()
{
    return static_cast<CheckLevel>(ORION_CHECK_MAX_LEVEL);
}

void
checkFailed(const char* kind, const char* cond, const char* file,
            int line, const std::string& message)
{
    std::ostringstream os;
    os << "ORION " << kind << " failed: " << message << " [" << cond
       << "] at " << file << ":" << line;
    throw CheckFailure(os.str());
}

} // namespace orion::core
