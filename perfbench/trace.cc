#include "trace.hh"

#include <chrono>
#include <cstdio>

namespace perfbench {

double
nowSeconds()
{
    const auto t = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::duration<double>(t).count();
}

std::string
jsonQuote(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

SpanRecorder::Id
SpanRecorder::begin(std::string name, Id parent)
{
    Span s;
    s.name = std::move(name);
    s.start = nowSeconds();
    s.parent = parent;
    spans_.push_back(std::move(s));
    return spans_.size() - 1;
}

void
SpanRecorder::end(Id id)
{
    spans_[id].end = nowSeconds();
}

void
SpanRecorder::writeChromeTrace(std::ostream& out,
                               const std::string& label) const
{
    const double epoch = spans_.empty() ? 0.0 : spans_.front().start;
    out << "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"label\": "
        << jsonQuote(label) << "}, \"traceEvents\": [\n";
    char times[96];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::snprintf(times, sizeof times, "\"ts\": %.3f, \"dur\": %.3f",
                      (s.start - epoch) * 1e6, (s.end - s.start) * 1e6);
        out << "{\"name\": " << jsonQuote(s.name)
            << ", \"cat\": \"perfbench\", \"ph\": \"X\", " << times
            << ", \"pid\": 1, \"tid\": 1, \"args\": {\"span\": " << i
            << ", \"parent\": ";
        if (s.parent == kNoParent)
            out << "null";
        else
            out << s.parent;
        out << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
}

Scope::Scope(SpanRecorder* rec, const std::string& name,
             SpanRecorder::Id parent)
    : rec_(rec)
{
    if (rec_ != nullptr)
        id_ = rec_->begin(name, parent);
    start_ = nowSeconds();
}

Scope::~Scope()
{
    close();
}

double
Scope::close()
{
    if (seconds_ < 0.0) {
        seconds_ = nowSeconds() - start_;
        if (rec_ != nullptr)
            rec_->end(id_);
    }
    return seconds_;
}

} // namespace perfbench
