#include "core/report.hh"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <sstream>

namespace orion {

const StopRule&
stopRule(StopReason reason)
{
    // One row per StopReason, in enum order. orion_sim never stops
    // with a worker crash itself; 3 is its code for a failed run.
    static constexpr StopRule kTable[] = {
        // name                   failed retried journaled exit
        {"completed",             false, false,  true,     0},
        {"max-cycles",            false, false,  true,     0},
        {"watchdog-stall",        false, false,  true,     2},
        {"check-failure",         true,  true,   true,     3},
        {"deadlock-unrecovered",  false, false,  true,     2},
        {"deadline",              true,  false,  false,    6},
        {"interrupted",           true,  false,  false,    5},
        {"worker-crash",          true,  true,   true,     3},
    };
    static_assert(std::size(kTable) ==
                  static_cast<std::size_t>(StopReason::WorkerCrash) + 1);
    return kTable[static_cast<std::size_t>(reason)];
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
