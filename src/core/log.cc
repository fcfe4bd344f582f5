#include "core/log.hh"

#include <cstdarg>
#include <cstdlib>
#include <ctime>
#include <stdexcept>

#include <chrono>

#include "base/json.hh"

namespace orion::core::log {

namespace {

/// Wall-clock seconds since the Unix epoch (observability only; never
/// feeds results).
double
nowUnixSeconds()
{
    const auto now =
        std::chrono::system_clock::now() // lint-allow: nondeterminism -- log timestamp only
            .time_since_epoch();
    return std::chrono::duration<double>(now).count();
}

void
appendNumber(std::string& out, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
}

} // namespace

const char*
levelName(Level level)
{
    switch (level) {
    case Level::Debug: return "debug";
    case Level::Info: return "info";
    case Level::Warn: return "warn";
    case Level::Error: return "error";
    case Level::Off: return "off";
    }
    return "info";
}

bool
parseLevel(const std::string& text, Level& out)
{
    if (text == "debug") { out = Level::Debug; return true; }
    if (text == "info") { out = Level::Info; return true; }
    if (text == "warn") { out = Level::Warn; return true; }
    if (text == "error") { out = Level::Error; return true; }
    if (text == "off") { out = Level::Off; return true; }
    return false;
}

Field
str(const char* key, std::string value)
{
    return Field{key, std::move(value), false};
}

Field
num(const char* key, double value)
{
    std::string v;
    appendNumber(v, value);
    return Field{key, std::move(v), true};
}

Field
u64(const char* key, std::uint64_t value)
{
    return Field{key, std::to_string(value), true};
}

Field
boolean(const char* key, bool value)
{
    return Field{key, value ? "true" : "false", true};
}

std::string
strf(const char* fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::string out;
    if (n > 0) {
        out.resize(static_cast<std::size_t>(n));
        std::vsnprintf(out.data(), static_cast<std::size_t>(n) + 1, fmt,
                       ap2);
    }
    va_end(ap2);
    return out;
}

void
rawStderr(const std::string& bytes)
{
    std::fwrite(bytes.data(), 1, bytes.size(), stderr);
    std::fflush(stderr);
}

Logger&
Logger::instance()
{
    static Logger logger;
    return logger;
}

void
Logger::configure(const std::string& path, Level level)
{
    LockGuard lock(mutex_);
    if (sink_ != nullptr) {
        std::fclose(sink_);
        sink_ = nullptr;
    }
    level_.store(static_cast<int>(Level::Off),
                 std::memory_order_relaxed);
    if (path.empty() || level == Level::Off)
        return;
    std::FILE* f = std::fopen(path.c_str(), "a");
    if (f == nullptr)
        throw std::runtime_error("cannot open log file '" + path + "'");
    sink_ = f;
    level_.store(static_cast<int>(level), std::memory_order_relaxed);
}

void
Logger::configureFromEnv()
{
    const char* path = std::getenv("ORION_LOG");
    if (path == nullptr || path[0] == '\0')
        return;
    Level level = Level::Info;
    if (const char* lv = std::getenv("ORION_LOG_LEVEL"))
        parseLevel(lv, level); // junk -> keep info
    configure(path, level);
}

void
Logger::event(Level level, const char* name,
              std::initializer_list<Field> fields)
{
    if (!sinkEnabled(level))
        return;
    writeLine(level, name, fields, nullptr);
}

void
Logger::diag(Level level, const char* name, const std::string& message,
             std::initializer_list<Field> fields)
{
    // The stderr bytes are part of the CLI's observable behavior
    // (tools/check.sh greps them); forward them unmodified.
    std::fwrite(message.data(), 1, message.size(), stderr);
    if (sinkEnabled(level))
        writeLine(level, name, fields, &message);
}

void
Logger::reset()
{
    configure(std::string{}, Level::Off);
}

void
Logger::writeLine(Level level, const char* name,
                  std::initializer_list<Field> fields,
                  const std::string* message)
{
    std::string line;
    line.reserve(128);
    line += "{\"ts\":";
    appendNumber(line, nowUnixSeconds());
    line += ",\"level\":\"";
    line += levelName(level);
    line += "\",\"event\":\"";
    line += report::jsonEscape(name);
    line += '"';
    for (const Field& f : fields) {
        line += ",\"";
        line += report::jsonEscape(f.key);
        line += "\":";
        if (f.raw) {
            line += f.value;
        } else {
            line += '"';
            line += report::jsonEscape(f.value);
            line += '"';
        }
    }
    if (message != nullptr) {
        std::string m = *message;
        while (!m.empty() && m.back() == '\n')
            m.pop_back();
        line += ",\"msg\":\"";
        line += report::jsonEscape(m);
        line += '"';
    }
    line += "}\n";

    LockGuard lock(mutex_);
    if (sink_ == nullptr)
        return; // detached between the level check and here
    std::fwrite(line.data(), 1, line.size(), sink_);
    std::fflush(sink_);
}

} // namespace orion::core::log
