/**
 * @file
 * The one writer of JSON text. Every JSON document the tree emits
 * (run manifests, log lines, forensic snapshots, Chrome
 * traces, the overhead bench line) is built by a JsonWriter, so
 * quoting, separators and number formatting live in one place.
 *
 * Output is compact (no indentation; `jq .` pretty-prints it). One
 * number rule: integers are written exactly, doubles with `%.17g`
 * (round-trip), and a non-finite double is written as null.
 */

#ifndef ORION_BASE_JSON_HH
#define ORION_BASE_JSON_HH

#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace orion::report {

/**
 * Streaming writer of one compact JSON document. Containers nest;
 * inside an object every value follows a key(). Callers build
 * well-formed documents by construction; debug assertions catch a
 * mismatched end or a key outside an object.
 */
class JsonWriter
{
  public:
    JsonWriter& beginObject() { return open('{', false); }
    /** @p onePerLine starts each element on its own line, so a
     * line-oriented reader (grep, a trace loader) sees one element
     * per line. */
    JsonWriter& beginArray(bool onePerLine = false)
    {
        return open('[', onePerLine);
    }
    JsonWriter& endObject() { return close('}'); }
    JsonWriter& endArray() { return close(']'); }

    JsonWriter& key(std::string_view name);

    JsonWriter& value(std::string_view s);
    JsonWriter& value(const char* s) { return value(std::string_view(s)); }
    JsonWriter& value(bool b) { return token(b ? "true" : "false"); }
    JsonWriter& value(double v);
    template <typename T>
        requires std::is_integral_v<T>
    JsonWriter& value(T v) { return token(std::to_string(v)); }
    JsonWriter& null() { return token("null"); }

    /** key(@p name) followed by value(@p v). */
    template <typename T>
    JsonWriter& field(std::string_view name, const T& v)
    {
        return key(name).value(v);
    }

    /** Move the text out and start a new document. */
    std::string
    take()
    {
        stack_.clear();
        first_ = true;
        return std::exchange(out_, {});
    }
    /** take(), ending the text with a newline (files, log lines). */
    std::string
    takeLine()
    {
        out_ += '\n';
        return take();
    }

  private:
    /** Separator (and line break) before a value or key. */
    void element();
    JsonWriter& token(std::string_view text);
    JsonWriter& open(char bracket, bool onePerLine);
    JsonWriter& close(char bracket);

    std::string out_;
    /** Open containers: closing bracket, one element per line. */
    std::vector<std::pair<char, bool>> stack_;
    /** The innermost container has no element yet. */
    bool first_ = true;
    bool afterKey_ = false;
};

} // namespace orion::report

#endif // ORION_BASE_JSON_HH
