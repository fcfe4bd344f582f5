#include "core/model_cli.hh"

#include <climits>
#include <cmath>
#include <map>
#include <stdexcept>

#include "core/cli.hh"
#include "core/report.hh"
#include "power/arbiter_model.hh"
#include "power/buffer_model.hh"
#include "power/central_buffer_model.hh"
#include "power/crossbar_model.hh"
#include "power/link_model.hh"
#include "tech/tech_node.hh"

namespace orion::cli {

namespace {

using orion::report::fmt;
using orion::report::fmtEng;

[[noreturn]] void
fail(const std::string& what)
{
    throw std::invalid_argument(what);
}

/** Parsed option map: every option takes one value except flags. */
struct Query
{
    std::string component;
    std::map<std::string, std::string> values;
    bool muxTree = false;
    bool csv = false;

    /** A finite number >= 0 (no model takes a negative one). */
    double
    number(const std::string& key, double fallback) const
    {
        const auto it = values.find(key);
        const double v = it == values.end()
                             ? fallback
                             : parseDouble("--" + key, it->second);
        if (v < 0.0)
            fail("--" + key + " must be non-negative");
        return v;
    }

    /** A count of at least 1 (every model asserts its counts); absent
     * means @p fallback, and a fallback of 0 means required. */
    unsigned
    count(const std::string& key, unsigned fallback = 0) const
    {
        const auto it = values.find(key);
        const auto n = it == values.end()
                           ? fallback
                           : parseU64("--" + key, it->second, UINT_MAX);
        if (n < 1)
            fail("--" + key + " is required and must be >= 1");
        return static_cast<unsigned>(n);
    }

    bool has(const std::string& key) const
    {
        return values.count(key) > 0;
    }
};

Query
parseQuery(const std::vector<std::string>& args)
{
    Query q;
    q.component = args.front();
    for (std::size_t i = 1; i < args.size(); ++i) {
        const std::string& a = args[i];
        if (a == "--mux-tree") {
            q.muxTree = true;
        } else if (a == "--csv") {
            q.csv = true;
        } else if (a.rfind("--", 0) == 0) {
            if (i + 1 >= args.size())
                fail(a + ": missing value");
            q.values[a.substr(2)] = args[++i];
        } else {
            fail("unexpected argument '" + a + "'");
        }
    }
    return q;
}

tech::TechNode
techFrom(const Query& q)
{
    const double feature = q.number("feature-um", 0.1);
    const double vdd = q.number("vdd", 1.2);
    const double ghz = q.number("freq-ghz", 2.0);
    // number() checks finiteness; a huge GHz still overflows to inf Hz.
    if (feature <= 0.0 || vdd <= 0.0 || ghz <= 0.0 ||
        !std::isfinite(ghz * 1e9))
        fail("--feature-um, --vdd and --freq-ghz must be positive");
    return tech::TechNode::scaled(feature, vdd, ghz * 1e9);
}

std::string
render(const Query& q, report::Table& t)
{
    return q.csv ? report::formatCsv(t) : report::formatTable(t);
}

std::string
bufferQuery(const Query& q, const tech::TechNode& tech)
{
    const power::BufferParams p{
        q.count("flits"), q.count("bits"),
        q.count("read-ports", 1), q.count("write-ports", 1)};
    const power::BufferModel m(tech, p);
    report::Table t;
    t.title = "FIFO buffer model (Table 2)";
    t.headers = {"quantity", "value"};
    t.addRow({"L_wl", fmt(m.wordlineLengthUm(), 1) + " um"});
    t.addRow({"L_bl", fmt(m.bitlineLengthUm(), 1) + " um"});
    t.addRow({"C_wl", fmtEng(m.wordlineCap(), "F", 2)});
    t.addRow({"C_br", fmtEng(m.readBitlineCap(), "F", 2)});
    t.addRow({"C_bw", fmtEng(m.writeBitlineCap(), "F", 2)});
    t.addRow({"C_chg", fmtEng(m.prechargeCap(), "F", 2)});
    t.addRow({"C_cell", fmtEng(m.cellCap(), "F", 2)});
    t.addRow({"E_read", fmtEng(m.readEnergy(), "J", 2)});
    t.addRow({"E_wrt (avg)", fmtEng(m.avgWriteEnergy(), "J", 2)});
    t.addRow({"area", fmt(m.areaUm2() / 1e6, 4) + " mm2"});
    return render(q, t);
}

std::string
crossbarQuery(const Query& q, const tech::TechNode& tech)
{
    const power::CrossbarParams p{
        q.count("inputs"), q.count("outputs"), q.count("width"),
        q.muxTree ? power::CrossbarKind::MuxTree
                  : power::CrossbarKind::Matrix,
        q.number("load-ff", 0.0) * 1e-15};
    const power::CrossbarModel m(tech, p);
    report::Table t;
    t.title = q.muxTree ? "mux-tree crossbar model (Table 3)"
                        : "matrix crossbar model (Table 3)";
    t.headers = {"quantity", "value"};
    t.addRow({"L_in", fmt(m.inputLengthUm(), 1) + " um"});
    t.addRow({"L_out", fmt(m.outputLengthUm(), 1) + " um"});
    t.addRow({"C_in/bit", fmtEng(m.inputCap(), "F", 2)});
    t.addRow({"C_out/bit", fmtEng(m.outputCap(), "F", 2)});
    t.addRow({"C_xb_ctr", fmtEng(m.controlCap(), "F", 2)});
    t.addRow({"E_xb (avg)", fmtEng(m.avgTraversalEnergy(), "J", 2)});
    t.addRow({"E_xb_ctr", fmtEng(m.controlEnergy(), "J", 2)});
    t.addRow({"area", fmt(m.areaUm2() / 1e6, 4) + " mm2"});
    return render(q, t);
}

std::string
arbiterQuery(const Query& q, const tech::TechNode& tech)
{
    power::ArbiterKind kind = power::ArbiterKind::Matrix;
    if (q.has("kind")) {
        const std::string& k = q.values.at("kind");
        if (k == "matrix")
            kind = power::ArbiterKind::Matrix;
        else if (k == "rr")
            kind = power::ArbiterKind::RoundRobin;
        else if (k == "queuing")
            kind = power::ArbiterKind::Queuing;
        else
            fail("--kind: unknown arbiter kind '" + k + "'");
    }
    const power::ArbiterModel m(
        tech, {q.count("requests"), kind,
               q.number("xbar-ctrl-ff", 0.0) * 1e-15});
    report::Table t;
    t.title = "arbiter model (Table 4)";
    t.headers = {"quantity", "value"};
    t.addRow({"priority flip-flops",
              std::to_string(m.priorityFlipFlops())});
    t.addRow({"C_req", fmtEng(m.requestCap(), "F", 2)});
    t.addRow({"C_pri", fmtEng(m.priorityCap(), "F", 2)});
    t.addRow({"C_int", fmtEng(m.internalCap(), "F", 2)});
    t.addRow({"C_gnt", fmtEng(m.grantCap(), "F", 2)});
    t.addRow({"E_arb (avg)",
              fmtEng(m.avgArbitrationEnergy(), "J", 2)});
    return render(q, t);
}

std::string
centralBufferQuery(const Query& q, const tech::TechNode& tech)
{
    const power::CentralBufferParams p{
        q.count("banks"),          q.count("rows"),
        q.count("bits"),           q.count("read-ports", 2),
        q.count("write-ports", 2), q.count("router-ports", 5),
        2};
    const power::CentralBufferModel m(tech, p);
    report::Table t;
    t.title = "central buffer model (hierarchical, Section 3.2)";
    t.headers = {"quantity", "value"};
    t.addRow({"bank E_read", fmtEng(m.bankModel().readEnergy(), "J",
                                    2)});
    t.addRow({"E_write (avg)", fmtEng(m.avgWriteEnergy(), "J", 2)});
    t.addRow({"E_read (avg)", fmtEng(m.avgReadEnergy(), "J", 2)});
    t.addRow({"area", fmt(m.areaUm2() / 1e6, 4) + " mm2"});
    return render(q, t);
}

std::string
linkQuery(const Query& q, const tech::TechNode& tech)
{
    const double length = q.number("length-um", 0.0);
    if (length <= 0.0)
        fail("--length-um is required and must be positive");
    const power::OnChipLinkModel m(tech, length, q.count("width"));
    report::Table t;
    t.title = "on-chip link model";
    t.headers = {"quantity", "value"};
    t.addRow({"C_wire/bit", fmtEng(m.wireCap(), "F", 2)});
    t.addRow({"E_link (avg)", fmtEng(m.avgTraversalEnergy(), "J", 2)});
    t.addRow({"E_link/bit", fmtEng(m.traversalEnergy(1), "J", 2)});
    return render(q, t);
}

std::string
c2cLinkQuery(const Query& q, const tech::TechNode& tech)
{
    const power::ChipToChipLinkModel m(q.number("watts", 3.0));
    report::Table t;
    t.title = "chip-to-chip link model (constant power)";
    t.headers = {"quantity", "value"};
    t.addRow({"power", fmt(m.powerWatts(), 2) + " W"});
    t.addRow({"energy/cycle",
              fmtEng(m.energyOver(tech.cyclePeriod(), 1.0), "J", 2)});
    return render(q, t);
}

} // namespace

std::string
modelUsage()
{
    return "usage: orion_models COMPONENT [options]\n"
           "\n"
           "components:\n"
           "  buffer          --flits B --bits F [--read-ports N] "
           "[--write-ports N]\n"
           "  crossbar        --inputs I --outputs O --width W "
           "[--mux-tree] [--load-ff F]\n"
           "  arbiter         --requests R [--kind matrix|rr|queuing] "
           "[--xbar-ctrl-ff F]\n"
           "  central-buffer  --banks N --rows N --bits F "
           "[--read-ports N] [--write-ports N] [--router-ports N]\n"
           "  link            --length-um L --width W\n"
           "  c2c-link        [--watts W]\n"
           "\n"
           "common options:\n"
           "  --feature-um F   drawn feature size (default 0.1)\n"
           "  --vdd V          supply voltage (default 1.2)\n"
           "  --freq-ghz G     clock (default 2.0)\n"
           "  --csv            CSV output\n";
}

std::string
runModelQuery(const std::vector<std::string>& args)
{
    if (args.empty() || args.front() == "--help" || args.front() == "-h")
        return modelUsage();

    try {
        const Query q = parseQuery(args);
        const tech::TechNode tech = techFrom(q);

        if (q.component == "buffer")
            return bufferQuery(q, tech);
        if (q.component == "crossbar")
            return crossbarQuery(q, tech);
        if (q.component == "arbiter")
            return arbiterQuery(q, tech);
        if (q.component == "central-buffer")
            return centralBufferQuery(q, tech);
        if (q.component == "link")
            return linkQuery(q, tech);
        if (q.component == "c2c-link")
            return c2cLinkQuery(q, tech);
        fail("unknown component '" + q.component + "'");
    } catch (const std::invalid_argument& e) {
        throw std::invalid_argument(std::string("orion_models: ") +
                                    e.what() + " (--help for usage)");
    }
}

} // namespace orion::cli
