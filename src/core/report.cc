#include "core/report.hh"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace orion {

const char*
stopReasonName(StopReason reason)
{
    switch (reason) {
      case StopReason::Completed:     return "completed";
      case StopReason::MaxCycles:     return "max-cycles";
      case StopReason::WatchdogStall: return "watchdog-stall";
      case StopReason::CheckFailure:  return "check-failure";
      case StopReason::DeadlockUnrecovered:
          return "deadlock-unrecovered";
      case StopReason::Deadline:      return "deadline";
      case StopReason::Interrupted:   return "interrupted";
      case StopReason::WorkerCrash:   return "worker-crash";
    }
    return "unknown";
}

} // namespace orion

namespace orion::report {

void
Table::addRow(std::vector<std::string> row)
{
    assert(row.size() == headers.size());
    rows.push_back(std::move(row));
}

std::string
fmt(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
fmtEng(double v, const char* unit, int precision)
{
    struct Scale
    {
        double factor;
        const char* prefix;
    };
    static constexpr Scale scales[] = {
        {1e12, "T"}, {1e9, "G"}, {1e6, "M"}, {1e3, "k"}, {1.0, ""},
        {1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"}, {1e-12, "p"},
        {1e-15, "f"}, {1e-18, "a"},
    };
    if (v == 0.0)
        return fmt(0.0, precision) + " " + unit;
    const double mag = std::fabs(v);
    for (const auto& s : scales) {
        if (mag >= s.factor) {
            return fmt(v / s.factor, precision) + " " + s.prefix + unit;
        }
    }
    const auto& last = scales[sizeof(scales) / sizeof(scales[0]) - 1];
    return fmt(v / last.factor, precision) + " " + last.prefix + unit;
}

std::string
formatTable(const Table& table)
{
    std::vector<std::size_t> width(table.headers.size());
    for (std::size_t c = 0; c < table.headers.size(); ++c)
        width[c] = table.headers[c].size();
    for (const auto& row : table.rows)
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());

    std::ostringstream out;
    if (!table.title.empty())
        out << "== " << table.title << " ==\n";

    const auto emitRow = [&](const std::vector<std::string>& row) {
        out << "|";
        for (std::size_t c = 0; c < row.size(); ++c) {
            out << ' ' << row[c];
            out << std::string(width[c] - row[c].size(), ' ') << " |";
        }
        out << '\n';
    };
    const auto emitRule = [&] {
        out << "+";
        for (const std::size_t w : width)
            out << std::string(w + 2, '-') << "+";
        out << '\n';
    };

    emitRule();
    emitRow(table.headers);
    emitRule();
    for (const auto& row : table.rows)
        emitRow(row);
    emitRule();
    return out.str();
}

std::string
formatCsv(const Table& table)
{
    std::ostringstream out;
    const auto emit = [&](const std::vector<std::string>& row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (c)
                out << ',';
            out << row[c];
        }
        out << '\n';
    };
    emit(table.headers);
    for (const auto& row : table.rows)
        emit(row);
    return out.str();
}

} // namespace orion::report
