#include "base/json.hh"

#include <cassert>
#include <cmath>
#include <cstdio>

namespace orion::report {

namespace {

/** Append @p s escaped for a JSON string literal. */
void
appendEscaped(std::string& out, std::string_view s)
{
    // Copy runs of plain characters whole; most strings are all plain.
    std::size_t plain = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char ch = s[i];
        if (ch != '"' && ch != '\\' && static_cast<unsigned char>(ch) >= 0x20)
            continue;
        out.append(s.data() + plain, i - plain);
        plain = i + 1;
        switch (ch) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default: // other control characters: \u00XX
            out += "\\u00";
            out += "0123456789abcdef"[(ch >> 4) & 0xf];
            out += "0123456789abcdef"[ch & 0xf];
        }
    }
    out.append(s.data() + plain, s.size() - plain);
}

} // namespace

void
JsonWriter::element()
{
    if (std::exchange(afterKey_, false))
        return;
    if (!std::exchange(first_, false))
        out_ += ',';
    if (!stack_.empty() && stack_.back().second)
        out_ += '\n';
}

JsonWriter&
JsonWriter::token(std::string_view text)
{
    element();
    out_ += text;
    return *this;
}

JsonWriter&
JsonWriter::open(char bracket, bool onePerLine)
{
    token(std::string_view(&bracket, 1));
    stack_.emplace_back(bracket == '{' ? '}' : ']', onePerLine);
    first_ = true;
    return *this;
}

JsonWriter&
JsonWriter::close(char bracket)
{
    assert(!stack_.empty() && stack_.back().first == bracket && !afterKey_);
    if (stack_.back().second && !first_)
        out_ += '\n';
    out_ += bracket;
    stack_.pop_back();
    first_ = false;
    return *this;
}

JsonWriter&
JsonWriter::key(std::string_view name)
{
    assert(!stack_.empty() && stack_.back().first == '}' && !afterKey_);
    element();
    out_ += '"';
    appendEscaped(out_, name);
    out_ += "\":";
    afterKey_ = true;
    return *this;
}

JsonWriter&
JsonWriter::value(std::string_view s)
{
    element();
    out_ += '"';
    appendEscaped(out_, s);
    out_ += '"';
    return *this;
}

JsonWriter&
JsonWriter::value(double v)
{
    if (!std::isfinite(v))
        return null();
    char buf[32];
    const int n = std::snprintf(buf, sizeof buf, "%.17g", v);
    return token(std::string_view(buf, static_cast<std::size_t>(n)));
}

} // namespace orion::report
